#include "io/mmap_corpus.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/str_util.h"

namespace sigsub {
namespace io {
namespace {

// Streaming passes walk the map in chunks: the working set stays one chunk
// of page cache, whatever the file size.
constexpr size_t kChunkBytes = size_t{1} << 20;

}  // namespace

Result<MappedFile> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(StrCat("cannot open '", path, "'"));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(StrCat("cannot stat '", path, "'"));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument(
        StrCat("'", path, "' is not a regular file"));
  }
  MappedFile file;
  file.path_ = path;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* data = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      ::close(fd);
      return Status::IOError(StrCat("cannot mmap '", path, "' (",
                                    static_cast<int64_t>(file.size_),
                                    " bytes)"));
    }
    file.data_ = data;
  }
  // The mapping holds its own reference to the file; the descriptor is not
  // needed past this point.
  ::close(fd);
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

void MappedFile::AdviseSequential() const {
  if (data_ != nullptr) ::madvise(data_, size_, MADV_SEQUENTIAL);
}

void MarkPresentBytes(std::span<const uint8_t> bytes, BytePresence* present) {
  for (size_t offset = 0; offset < bytes.size(); offset += kChunkBytes) {
    size_t end = std::min(bytes.size(), offset + kChunkBytes);
    for (size_t i = offset; i < end; ++i) (*present)[bytes[i]] = true;
  }
}

std::string AlphabetFromPresence(const BytePresence& present) {
  std::string chars;
  for (int v = 0; v < 256; ++v) {
    if (present[v]) chars.push_back(static_cast<char>(v));
  }
  std::sort(chars.begin(), chars.end());
  if (chars.size() == 1) chars += chars[0] == '0' ? '1' : '0';
  return chars;
}

int64_t FindInvalidByte(std::span<const uint8_t> bytes,
                        const std::array<uint8_t, 256>& decode) {
  for (size_t offset = 0; offset < bytes.size(); offset += kChunkBytes) {
    size_t end = std::min(bytes.size(), offset + kChunkBytes);
    for (size_t i = offset; i < end; ++i) {
      if (decode[bytes[i]] == seq::Alphabet::kNoSymbol) {
        return static_cast<int64_t>(i);
      }
    }
  }
  return -1;
}

}  // namespace io
}  // namespace sigsub
