#ifndef SIGSUB_SEQ_ALPHABET_H_
#define SIGSUB_SEQ_ALPHABET_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace sigsub {
namespace seq {

/// Symbol identifier: index into an Alphabet, 0 <= Symbol < k <= 255.
using Symbol = uint8_t;

/// A finite alphabet Σ = {a_1..a_k}. Maps between printable characters and
/// dense symbol ids. The paper treats k as a constant; we support k up to
/// 255.
class Alphabet {
 public:
  /// decode_table() entry of a byte outside the alphabet. Symbol ids are
  /// < 255 (k <= 255), so it never collides with one.
  static constexpr Symbol kNoSymbol = 0xFF;

  /// Builds an alphabet from distinct printable characters, e.g. "ACGT".
  static Result<Alphabet> FromCharacters(std::string_view chars);

  /// The k-letter alphabet {'a','b',...}; requires 2 <= k <= 26 for
  /// printable mapping, otherwise falls back to ids without glyphs.
  static Alphabet Canonical(int k);

  /// The binary alphabet {'0','1'}.
  static Alphabet Binary();

  int size() const { return static_cast<int>(chars_.size()); }

  /// Character glyph of symbol `s` (requires s < size()).
  char CharOf(Symbol s) const;

  /// Symbol id of character `c`; NotFound if absent.
  Result<Symbol> SymbolOf(char c) const;

  bool Contains(char c) const {
    return decode_[static_cast<uint8_t>(c)] != kNoSymbol;
  }

  /// All glyphs in symbol order.
  const std::string& characters() const { return chars_; }

  /// Byte -> symbol table: decode_table()[b] is the symbol of byte b, or
  /// kNoSymbol. Text records decode through it (Sequence::FromString), and
  /// mapped bytes are mined in place through it.
  const std::array<Symbol, 256>& decode_table() const { return decode_; }

 private:
  explicit Alphabet(std::string chars);

  std::string chars_;
  std::array<Symbol, 256> decode_;
};

}  // namespace seq
}  // namespace sigsub

#endif  // SIGSUB_SEQ_ALPHABET_H_
