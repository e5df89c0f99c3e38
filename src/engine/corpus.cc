#include "engine/corpus.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <utility>

#include "common/fnv1a.h"
#include "common/str_util.h"
#include "engine/fingerprint.h"
#include "io/csv.h"

namespace sigsub {
namespace engine {
namespace {

void StripTrailingCr(std::string* line) {
  while (!line->empty() && line->back() == '\r') line->pop_back();
}

/// Strips a leading UTF-8 byte-order mark. Editors on Windows routinely
/// prepend one; left in place it reaches alphabet inference and silently
/// adds three junk symbols (EF BB BF), shrinking every p_c and skewing
/// every X² computed over the corpus.
void StripUtf8Bom(std::string* line) {
  if (line->size() >= 3 && (*line)[0] == '\xEF' && (*line)[1] == '\xBB' &&
      (*line)[2] == '\xBF') {
    line->erase(0, 3);
  }
}

}  // namespace

Corpus::Corpus(seq::Alphabet alphabet, std::vector<seq::Sequence> sequences,
               std::vector<std::string> texts,
               std::vector<int64_t> source_indices)
    : alphabet_(std::move(alphabet)),
      sequences_(std::move(sequences)),
      texts_(std::move(texts)),
      source_indices_(std::move(source_indices)) {}

Result<Corpus> Corpus::FromStrings(std::vector<std::string> records,
                                   const std::string& alphabet_chars) {
  // Compact the non-empty records to the front; each keeps its index in
  // the caller's input.
  std::vector<int64_t> source_indices;
  size_t kept = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].empty()) continue;
    if (kept != i) records[kept] = std::move(records[i]);
    ++kept;
    source_indices.push_back(static_cast<int64_t>(i));
  }
  records.resize(kept);
  if (records.empty()) {
    return Status::InvalidArgument("corpus has no non-empty records");
  }
  std::string chars =
      alphabet_chars.empty() ? InferAlphabetChars(records) : alphabet_chars;
  SIGSUB_ASSIGN_OR_RETURN(seq::Alphabet alphabet,
                          seq::Alphabet::FromCharacters(chars));
  std::vector<seq::Sequence> sequences;
  sequences.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    auto sequence = seq::Sequence::FromString(alphabet, records[i]);
    if (!sequence.ok()) {
      // Cite the record's position in the caller's input, not the
      // post-skip index.
      return Status::InvalidArgument(StrCat("record ", source_indices[i],
                                            ": ",
                                            sequence.status().message()));
    }
    sequences.push_back(std::move(sequence).value());
  }
  return Corpus(std::move(alphabet), std::move(sequences), std::move(records),
                std::move(source_indices));
}

Result<Corpus> Corpus::FromLines(const std::string& path,
                                 const std::string& alphabet_chars) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError(StrCat("cannot open '", path, "'"));
  }
  std::vector<std::string> records;
  std::string line;
  while (std::getline(in, line)) {
    if (records.empty()) StripUtf8Bom(&line);
    StripTrailingCr(&line);
    // A copy sized to the line; `line` keeps its buffer for the next one.
    records.emplace_back(line);
  }
  // A path that opens but cannot be read (a directory, an I/O error)
  // sets badbit; without this check it would load as an empty corpus.
  if (in.bad()) {
    return Status::IOError(StrCat("cannot read '", path, "'"));
  }
  return FromStrings(std::move(records), alphabet_chars);
}

Result<Corpus> Corpus::FromCsvColumn(const std::string& path, int64_t column,
                                     bool has_header,
                                     const std::string& alphabet_chars) {
  if (column < 0) {
    return Status::InvalidArgument(
        StrCat("CSV column must be >= 0, got ", column));
  }
  SIGSUB_ASSIGN_OR_RETURN(auto rows, io::ReadCsvFile(path));
  std::vector<std::string> records;
  records.reserve(rows.size());
  for (size_t r = has_header ? 1 : 0; r < rows.size(); ++r) {
    // Number records like source_index() does: data rows from 0, the
    // header excluded — one identifier per record everywhere.
    size_t record_index = r - (has_header ? 1 : 0);
    if (rows[r].size() <= static_cast<size_t>(column)) {
      return Status::InvalidArgument(
          StrCat("CSV record ", record_index, " has ", rows[r].size(),
                 " cells; column ", column, " requested"));
    }
    records.push_back(rows[r][static_cast<size_t>(column)]);
  }
  return FromStrings(std::move(records), alphabet_chars);
}

Result<Corpus> Corpus::FromMappedFile(const std::string& path,
                                      const std::string& alphabet_chars) {
  SIGSUB_ASSIGN_OR_RETURN(io::MappedFile file, io::MappedFile::Open(path));
  file.AdviseSequential();
  std::span<const uint8_t> record = file.bytes();
  // Mirror the text loaders: a leading UTF-8 BOM and one trailing newline
  // are framing, not data.
  if (record.size() >= 3 && record[0] == 0xEF && record[1] == 0xBB &&
      record[2] == 0xBF) {
    record = record.subspan(3);
  }
  if (!record.empty() && record.back() == '\n') {
    record = record.first(record.size() - 1);
    if (!record.empty() && record.back() == '\r') {
      record = record.first(record.size() - 1);
    }
  }
  if (record.empty()) {
    return Status::InvalidArgument("corpus has no non-empty records");
  }

  std::string chars = alphabet_chars;
  if (chars.empty()) {
    io::BytePresence present{};
    io::MarkPresentBytes(record, &present);
    chars = io::AlphabetFromPresence(present);
  }
  SIGSUB_ASSIGN_OR_RETURN(seq::Alphabet alphabet,
                          seq::Alphabet::FromCharacters(chars));
  const std::array<seq::Symbol, 256>& decode = alphabet.decode_table();
  if (!alphabet_chars.empty()) {
    // Inferred alphabets cover every present byte by construction; a
    // pinned one must be checked.
    int64_t bad = io::FindInvalidByte(record, decode);
    if (bad >= 0) {
      return Status::InvalidArgument(
          StrCat("record 0: byte value ", static_cast<int>(record[bad]),
                 " at offset ", bad, " is outside the alphabet"));
    }
  }

  // Streaming fingerprint of the *decoded* content — the exact byte
  // stream FingerprintSequence hashes, without materializing it.
  Fnv1a hasher;
  hasher.UpdateI64(alphabet.size());
  hasher.UpdateI64(static_cast<int64_t>(record.size()));
  std::array<uint8_t, 1 << 16> buffer;
  for (size_t offset = 0; offset < record.size(); offset += buffer.size()) {
    size_t end = std::min(record.size(), offset + buffer.size());
    for (size_t i = offset; i < end; ++i) {
      buffer[i - offset] = decode[record[i]];
    }
    hasher.Update(buffer.data(), end - offset);
  }

  Corpus corpus(std::move(alphabet), {}, {}, {});
  corpus.mapped_ = std::make_shared<io::MappedFile>(std::move(file));
  corpus.mapped_record_ = record;
  corpus.mapped_fingerprint_ = hasher.Digest();
  return corpus;
}

int64_t Corpus::record_size(int64_t index) const {
  return is_mapped() ? static_cast<int64_t>(mapped_record_.size())
                     : sequence(index).size();
}

std::string_view Corpus::record_bytes(int64_t index) const {
  if (!is_mapped()) return text(index);
  return std::string_view(reinterpret_cast<const char*>(mapped_record_.data()),
                          mapped_record_.size());
}

uint64_t Corpus::fingerprint(int64_t index) const {
  return is_mapped() ? mapped_fingerprint_
                     : FingerprintSequence(sequence(index));
}

seq::PrefixCounts Corpus::BuildPrefixCounts(int64_t index) const {
  if (!is_mapped()) return seq::PrefixCounts(sequence(index));
  // The bytes were validated against the alphabet at load, so the build
  // cannot fail.
  return seq::PrefixCounts::FromBytes(mapped_record_, decode_table(),
                                      alphabet_.size())
      .value();
}

Result<core::SuffixScan> Corpus::BuildSuffixScan(int64_t index) const {
  const int k = alphabet_.size();
  if (is_mapped()) {
    return core::SuffixScan::BuildMapped(mapped_record_, decode_table(), k);
  }
  return core::SuffixScan::Build(sequence(index).symbols(), k);
}

std::string Corpus::InferAlphabetChars(
    const std::vector<std::string>& records) {
  io::BytePresence present{};
  for (const std::string& record : records) {
    io::MarkPresentBytes(
        {reinterpret_cast<const uint8_t*>(record.data()), record.size()},
        &present);
  }
  return io::AlphabetFromPresence(present);
}

}  // namespace engine
}  // namespace sigsub
