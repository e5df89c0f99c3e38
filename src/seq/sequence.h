#ifndef SIGSUB_SEQ_SEQUENCE_H_
#define SIGSUB_SEQ_SEQUENCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "seq/alphabet.h"

namespace sigsub {
namespace seq {

/// A string over a k-symbol alphabet, stored as dense symbol ids. This is
/// the `S` of the paper; positions are 0-based here (the paper is 1-based).
class Sequence {
 public:
  /// Empty sequence over an alphabet of size k.
  explicit Sequence(int alphabet_size);

  /// Wraps existing symbol data (each value must be < alphabet_size).
  static Result<Sequence> FromSymbols(int alphabet_size,
                                      std::vector<uint8_t> symbols);

  /// Decodes a character string through `alphabet`'s decode_table(): one
  /// table load per byte. NotFound names the first byte outside the
  /// alphabet.
  static Result<Sequence> FromString(const Alphabet& alphabet,
                                     std::string_view text);

  int alphabet_size() const { return alphabet_size_; }
  int64_t size() const { return static_cast<int64_t>(symbols_.size()); }
  bool empty() const { return symbols_.empty(); }

  uint8_t operator[](int64_t i) const { return symbols_[i]; }
  std::span<const uint8_t> symbols() const { return symbols_; }

  void Append(uint8_t symbol);
  void Reserve(int64_t n) { symbols_.reserve(n); }

  /// Renders symbols back to characters with `alphabet` (alphabet size must
  /// be >= this sequence's alphabet size).
  std::string ToString(const Alphabet& alphabet) const;

  /// Renders the substring [start, end) to characters.
  std::string SubstringToString(const Alphabet& alphabet, int64_t start,
                                int64_t end) const;

  /// Count vector {Y_1..Y_k} of the substring [start, end); O(end - start).
  /// For repeated queries use PrefixCounts.
  std::vector<int64_t> CountsInRange(int64_t start, int64_t end) const;

 private:
  Sequence(int alphabet_size, std::vector<uint8_t> symbols);

  int alphabet_size_;
  std::vector<uint8_t> symbols_;
};

}  // namespace seq
}  // namespace sigsub

#endif  // SIGSUB_SEQ_SEQUENCE_H_
