#ifndef SIGSUB_IO_MMAP_CORPUS_H_
#define SIGSUB_IO_MMAP_CORPUS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "seq/alphabet.h"

namespace sigsub {
namespace io {

/// A read-only memory-mapped file. The mapping is the record: callers mine
/// the bytes in place (decode tables translate byte -> symbol on access),
/// so a multi-gigabyte corpus costs page-cache residency, not a decoded
/// in-RAM copy. Move-only; the mapping lives until destruction.
///
/// An empty file maps to an empty span (no mmap is made — POSIX rejects
/// zero-length mappings).
class MappedFile {
 public:
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const uint8_t> bytes() const {
    return {static_cast<const uint8_t*>(data_), size_};
  }
  int64_t size() const { return static_cast<int64_t>(size_); }
  bool empty() const { return size_ == 0; }
  const std::string& path() const { return path_; }

  /// Hints the kernel that the mapping will be read front to back
  /// (madvise(MADV_SEQUENTIAL)); best-effort, errors ignored.
  void AdviseSequential() const;

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

/// Alphabet inference, shared by every loader (engine::Corpus's text and
/// mapped loaders, the CLI's --string path): mark the bytes each record
/// holds in one table, then read the alphabet off the table.
using BytePresence = std::array<bool, 256>;

/// Sets present[b] for every byte b of `bytes`. Streams in chunks;
/// touches each page once.
void MarkPresentBytes(std::span<const uint8_t> bytes, BytePresence* present);

/// The marked bytes as a string sorted in `char` order (signed on the
/// usual targets: bytes >= 0x80 come first), padded to two symbols when
/// only one is marked (X² needs k >= 2): '0' is appended, or '1' after a
/// lone '0'. Empty when nothing is marked.
std::string AlphabetFromPresence(const BytePresence& present);

/// Returns the offset of the first byte of `bytes` whose entry in `decode`
/// (a seq::Alphabet::decode_table()) is seq::Alphabet::kNoSymbol, or -1
/// when every byte is in the alphabet. Streams in chunks.
int64_t FindInvalidByte(std::span<const uint8_t> bytes,
                        const std::array<uint8_t, 256>& decode);

}  // namespace io
}  // namespace sigsub

#endif  // SIGSUB_IO_MMAP_CORPUS_H_
