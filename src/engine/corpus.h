#ifndef SIGSUB_ENGINE_CORPUS_H_
#define SIGSUB_ENGINE_CORPUS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/suffix_scan.h"
#include "io/mmap_corpus.h"
#include "seq/alphabet.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace engine {

/// A batch of sequences sharing one alphabet — the unit the engine mines
/// over. Corpora come from in-memory strings, a text file with one record
/// per line, or one column of a CSV file. Empty records are skipped (a
/// trailing newline does not create a phantom record); `source_index()`
/// maps each kept record back to its position in the original input so
/// reports can cite the user's line/row numbers.
///
/// When `alphabet_chars` is empty the alphabet is inferred as the sorted
/// distinct characters across *all* records, so every record is decodable
/// and X² values are comparable corpus-wide (padded to two symbols when
/// the corpus is unary, as X² needs k >= 2).
class Corpus {
 public:
  /// Builds from in-memory records.
  static Result<Corpus> FromStrings(const std::vector<std::string>& records,
                                    const std::string& alphabet_chars = "");

  /// Reads `path`, one record per line ('\r' tolerated).
  static Result<Corpus> FromLines(const std::string& path,
                                  const std::string& alphabet_chars = "");

  /// Reads column `column` (0-based) of the CSV at `path`; `has_header`
  /// skips the first row. Rows without the column are an error.
  static Result<Corpus> FromCsvColumn(const std::string& path, int64_t column,
                                      bool has_header,
                                      const std::string& alphabet_chars = "");

  /// Memory-maps `path` as ONE record mined in place — the path for
  /// records too large to decode into RAM. One trailing newline ("\n" or
  /// "\r\n") and a leading UTF-8 BOM are excluded from the record; every
  /// other byte is data. The alphabet is inferred over the mapped bytes
  /// with the same rule as the text loaders (streamed, no decoded copy)
  /// unless `alphabet_chars` pins it, in which case every byte must be in
  /// it. A mapped corpus has no `sequence()`/`text()`; the record
  /// accessors below serve both kinds of corpus.
  static Result<Corpus> FromMappedFile(const std::string& path,
                                       const std::string& alphabet_chars = "");

  /// The alphabet-inference rule shared by Corpus and the single-string
  /// CLI path: sorted distinct characters across all records, padded to
  /// two symbols when unary (X² needs k >= 2). Records must not all be
  /// empty.
  static std::string InferAlphabetChars(
      const std::vector<std::string>& records);

  const seq::Alphabet& alphabet() const { return alphabet_; }
  int64_t size() const {
    return is_mapped() ? 1 : static_cast<int64_t>(sequences_.size());
  }
  bool empty() const { return size() == 0; }

  /// Decoded record `index`. Mapped corpora have none (is_mapped());
  /// consumers that need a decoded sequence must reject mapped input.
  const seq::Sequence& sequence(int64_t index) const {
    return sequences_[static_cast<size_t>(index)];
  }
  /// The record's original text (for reports).
  const std::string& text(int64_t index) const {
    return texts_[static_cast<size_t>(index)];
  }
  /// 0-based position of the record in the original input (line number
  /// for FromLines, data-row number for FromCsvColumn, element index for
  /// FromStrings) — stable even when empty records were skipped.
  int64_t source_index(int64_t index) const {
    return is_mapped() ? 0 : source_indices_[static_cast<size_t>(index)];
  }

  /// Mapped-corpus surface (FromMappedFile). The record is the mapped
  /// bytes; decode_table() translates byte -> symbol (io::kInvalidByte
  /// never occurs — bytes were validated at load).
  bool is_mapped() const { return mapped_ != nullptr; }
  std::span<const uint8_t> mapped_record() const { return mapped_record_; }
  const std::array<uint8_t, 256>& decode_table() const { return decode_; }

  // Record accessors: the one place that chooses between the mapped
  // bytes and a decoded sequence, so callers never branch on is_mapped().

  /// Symbols in record `index`.
  int64_t record_size(int64_t index) const;

  /// Record `index` as the input spelled it, one byte per symbol (the
  /// mapped bytes, or the record's text) — for rendering substrings.
  std::string_view record_bytes(int64_t index) const;

  /// FNV-1a fingerprint of record `index`'s decoded content
  /// (engine::FingerprintSequence), the same whichever loader read the
  /// record, so cache entries are shared across loaders. Decoded records
  /// hash on each call (O(n)); the mapped record was hashed, streaming,
  /// at load.
  uint64_t fingerprint(int64_t index) const;

  /// seq::PrefixCounts over record `index` (the O(n·k) layout of the
  /// interval kernels). The mapped record is chunk-streamed through
  /// decode_table(), without a decoded copy.
  seq::PrefixCounts BuildPrefixCounts(int64_t index) const;

  /// The suffix index over record `index` (the decoded symbols, or the
  /// mapped bytes through decode_table()). The index borrows the corpus's
  /// storage, so the corpus must outlive it. Fails only past the index's
  /// 2^31 − 2 symbol limit.
  Result<core::SuffixScan> BuildSuffixScan(int64_t index) const;

 private:
  Corpus(seq::Alphabet alphabet, std::vector<seq::Sequence> sequences,
         std::vector<std::string> texts, std::vector<int64_t> source_indices);

  seq::Alphabet alphabet_;
  std::vector<seq::Sequence> sequences_;
  std::vector<std::string> texts_;
  std::vector<int64_t> source_indices_;

  // Mapped mode. shared_ptr keeps Corpus movable/copyable; the mapping
  // itself is immutable and read-only after load.
  std::shared_ptr<io::MappedFile> mapped_;
  std::span<const uint8_t> mapped_record_;
  std::array<uint8_t, 256> decode_{};
  uint64_t mapped_fingerprint_ = 0;
};

}  // namespace engine
}  // namespace sigsub

#endif  // SIGSUB_ENGINE_CORPUS_H_
