#include "seq/sequence.h"

#include <array>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"

namespace sigsub {
namespace seq {

Sequence::Sequence(int alphabet_size) : alphabet_size_(alphabet_size) {
  SIGSUB_CHECK(alphabet_size >= 2 && alphabet_size <= 255);
}

Sequence::Sequence(int alphabet_size, std::vector<uint8_t> symbols)
    : alphabet_size_(alphabet_size), symbols_(std::move(symbols)) {}

Result<Sequence> Sequence::FromSymbols(int alphabet_size,
                                       std::vector<uint8_t> symbols) {
  if (alphabet_size < 2 || alphabet_size > 255) {
    return Status::InvalidArgument(
        StrCat("invalid alphabet size ", alphabet_size));
  }
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i] >= alphabet_size) {
      return Status::InvalidArgument(
          StrCat("symbol ", static_cast<int>(symbols[i]), " at position ", i,
                 " out of range for alphabet size ", alphabet_size));
    }
  }
  return Sequence(alphabet_size, std::move(symbols));
}

Result<Sequence> Sequence::FromString(const Alphabet& alphabet,
                                      std::string_view text) {
  const std::array<Symbol, 256>& decode = alphabet.decode_table();
  std::vector<uint8_t> symbols(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    Symbol s = decode[static_cast<uint8_t>(text[i])];
    // The error is built only for a byte outside the alphabet.
    if (s == Alphabet::kNoSymbol) return alphabet.SymbolOf(text[i]).status();
    symbols[i] = s;
  }
  return Sequence(alphabet.size(), std::move(symbols));
}

void Sequence::Append(uint8_t symbol) {
  SIGSUB_DCHECK(symbol < alphabet_size_);
  symbols_.push_back(symbol);
}

std::string Sequence::ToString(const Alphabet& alphabet) const {
  return SubstringToString(alphabet, 0, size());
}

std::string Sequence::SubstringToString(const Alphabet& alphabet,
                                        int64_t start, int64_t end) const {
  SIGSUB_CHECK(start >= 0 && start <= end && end <= size());
  SIGSUB_CHECK(alphabet.size() >= alphabet_size_);
  std::string out;
  out.reserve(static_cast<size_t>(end - start));
  for (int64_t i = start; i < end; ++i) {
    out.push_back(alphabet.CharOf(symbols_[i]));
  }
  return out;
}

std::vector<int64_t> Sequence::CountsInRange(int64_t start, int64_t end) const {
  SIGSUB_CHECK(start >= 0 && start <= end && end <= size());
  std::vector<int64_t> counts(alphabet_size_, 0);
  for (int64_t i = start; i < end; ++i) ++counts[symbols_[i]];
  return counts;
}

}  // namespace seq
}  // namespace sigsub
