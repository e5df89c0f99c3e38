#include "seq/alphabet.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/str_util.h"

namespace sigsub {
namespace seq {

Alphabet::Alphabet(std::string chars) : chars_(std::move(chars)) {
  decode_.fill(kNoSymbol);
  for (size_t i = 0; i < chars_.size(); ++i) {
    decode_[static_cast<uint8_t>(chars_[i])] = static_cast<Symbol>(i);
  }
}

Result<Alphabet> Alphabet::FromCharacters(std::string_view chars) {
  if (chars.size() < 2) {
    return Status::InvalidArgument(
        StrCat("alphabet needs at least 2 characters, got ", chars.size()));
  }
  if (chars.size() > 255) {
    return Status::InvalidArgument(
        StrCat("alphabet too large: ", chars.size(), " > 255"));
  }
  std::vector<bool> seen(256, false);
  for (char c : chars) {
    if (seen[static_cast<uint8_t>(c)]) {
      return Status::InvalidArgument(
          StrCat("duplicate character '", c, "' in alphabet"));
    }
    seen[static_cast<uint8_t>(c)] = true;
  }
  return Alphabet(std::string(chars));
}

Alphabet Alphabet::Canonical(int k) {
  SIGSUB_CHECK(k >= 2 && k <= 255);
  std::string chars;
  chars.reserve(k);
  for (int i = 0; i < k; ++i) {
    if (k <= 26) {
      chars.push_back(static_cast<char>('a' + i));
    } else {
      // Beyond 26 symbols use raw byte values; glyphs are not printable.
      chars.push_back(static_cast<char>(i + 1));
    }
  }
  return Alphabet(std::move(chars));
}

Alphabet Alphabet::Binary() {
  auto result = FromCharacters("01");
  SIGSUB_CHECK(result.ok());
  return std::move(result).value();
}

char Alphabet::CharOf(Symbol s) const {
  SIGSUB_DCHECK(s < chars_.size());
  return chars_[s];
}

Result<Symbol> Alphabet::SymbolOf(char c) const {
  Symbol id = decode_[static_cast<uint8_t>(c)];
  if (id == kNoSymbol) {
    return Status::NotFound(StrCat("character '", c, "' not in alphabet \"",
                                   chars_, "\""));
  }
  return id;
}

}  // namespace seq
}  // namespace sigsub
