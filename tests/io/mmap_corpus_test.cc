#include "io/mmap_corpus.h"

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/chi_square.h"
#include "core/suffix_scan.h"
#include "engine/corpus.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "io/csv.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"
#include "testing/test_util.h"

namespace sigsub {
namespace io {
namespace {

// The byte -> symbol table of the alphabet spelled by `chars`.
std::array<uint8_t, 256> DecodeTable(std::string_view chars) {
  return seq::Alphabet::FromCharacters(chars)->decode_table();
}

class MmapCorpusTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/sigsub_mmap_" + name;
  }

  std::string WriteFile(const std::string& name, const std::string& bytes) {
    std::string path = TempPath(name);
    EXPECT_TRUE(WriteTextFile(path, bytes).ok());
    return path;
  }
};

TEST_F(MmapCorpusTest, MapsFileBytesReadOnly) {
  std::string path = WriteFile("basic.bin", "ACGTACGT");
  ASSERT_OK_AND_ASSIGN(MappedFile file, MappedFile::Open(path));
  EXPECT_EQ(file.size(), 8);
  EXPECT_FALSE(file.empty());
  EXPECT_EQ(file.path(), path);
  std::span<const uint8_t> bytes = file.bytes();
  ASSERT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes[0], 'A');
  EXPECT_EQ(bytes[7], 'T');
  file.AdviseSequential();

  // Move transfers the mapping.
  MappedFile moved = std::move(file);
  EXPECT_EQ(moved.size(), 8);
  EXPECT_EQ(moved.bytes()[3], 'T');
}

TEST_F(MmapCorpusTest, EmptyAndMissingFiles) {
  ASSERT_OK_AND_ASSIGN(MappedFile empty,
                       MappedFile::Open(WriteFile("empty.bin", "")));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.bytes().size(), 0u);

  EXPECT_FALSE(MappedFile::Open(TempPath("does_not_exist.bin")).ok());
  EXPECT_FALSE(MappedFile::Open(::testing::TempDir()).ok());  // A directory.
}

TEST_F(MmapCorpusTest, DecodeTableAndInference) {
  std::array<uint8_t, 256> decode = DecodeTable("ACGT");
  EXPECT_EQ(decode['A'], 0);
  EXPECT_EQ(decode['C'], 1);
  EXPECT_EQ(decode['G'], 2);
  EXPECT_EQ(decode['T'], 3);
  EXPECT_EQ(decode['X'], seq::Alphabet::kNoSymbol);
  EXPECT_EQ(decode[0], seq::Alphabet::kNoSymbol);

  // The inference rule every loader shares: distinct bytes in `char`
  // order, a unary alphabet padded, several records marked into one table.
  EXPECT_EQ(engine::Corpus::InferAlphabetChars({"banana"}), "abn");
  EXPECT_EQ(engine::Corpus::InferAlphabetChars({"aaaa"}), "a0");
  EXPECT_EQ(engine::Corpus::InferAlphabetChars({"0000"}), "01");
  EXPECT_EQ(engine::Corpus::InferAlphabetChars({"cab", "", "\x80", "zz"}),
            "\x80" "abcz");

  std::string text = "banana";
  std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(text.data()),
                                 text.size());
  EXPECT_EQ(FindInvalidByte(bytes, DecodeTable("abn")), -1);
  EXPECT_EQ(FindInvalidByte(bytes, DecodeTable("ab")), 2);  // First 'n'.
}

TEST_F(MmapCorpusTest, PrefixCountsFromBytesMatchesSequenceBuild) {
  std::string text = "mississippi";
  ASSERT_OK_AND_ASSIGN(seq::Alphabet alphabet,
                       seq::Alphabet::FromCharacters("imps"));
  ASSERT_OK_AND_ASSIGN(seq::Sequence sequence,
                       seq::Sequence::FromString(alphabet, text));
  seq::PrefixCounts reference(sequence);

  std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(text.data()),
                                 text.size());
  ASSERT_OK_AND_ASSIGN(
      seq::PrefixCounts streamed,
      seq::PrefixCounts::FromBytes(bytes, DecodeTable("imps"), 4));
  ASSERT_EQ(streamed.sequence_size(), reference.sequence_size());
  ASSERT_EQ(streamed.alphabet_size(), reference.alphabet_size());
  for (int64_t pos = 0; pos <= reference.sequence_size(); ++pos) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(streamed.PrefixCount(c, pos), reference.PrefixCount(c, pos));
    }
  }

  // Bytes outside the table are rejected with the offending offset.
  auto bad = seq::PrefixCounts::FromBytes(bytes, DecodeTable("imp"), 3);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("offset 2"), std::string::npos);
}

TEST_F(MmapCorpusTest, MappedCorpusMatchesTextLoader) {
  std::string text = "abracadabra";
  std::string path = WriteFile("record.txt", text + "\n");

  ASSERT_OK_AND_ASSIGN(engine::Corpus mapped,
                       engine::Corpus::FromMappedFile(path));
  ASSERT_OK_AND_ASSIGN(engine::Corpus decoded,
                       engine::Corpus::FromStrings({text}));

  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_FALSE(decoded.is_mapped());
  EXPECT_EQ(mapped.size(), 1);
  EXPECT_EQ(mapped.source_index(0), 0);
  EXPECT_EQ(mapped.alphabet().characters(),
            decoded.alphabet().characters());
  ASSERT_EQ(mapped.mapped_record().size(), text.size());

  // The record accessors answer the same for both loaders.
  for (const engine::Corpus* corpus : {&mapped, &decoded}) {
    EXPECT_EQ(corpus->record_size(0), static_cast<int64_t>(text.size()));
    EXPECT_EQ(corpus->record_bytes(0), text);
  }

  // The streaming fingerprint equals the decoded-path fingerprint, so
  // cache entries are shared across loaders.
  EXPECT_EQ(mapped.fingerprint(0),
            engine::FingerprintSequence(decoded.sequence(0)));
  EXPECT_EQ(decoded.fingerprint(0), mapped.fingerprint(0));

  // Chunk-streamed PrefixCounts equals the in-RAM build.
  seq::PrefixCounts streamed = mapped.BuildPrefixCounts(0);
  seq::PrefixCounts reference = decoded.BuildPrefixCounts(0);
  ASSERT_EQ(streamed.sequence_size(), reference.sequence_size());
  for (int64_t pos = 0; pos <= reference.sequence_size(); ++pos) {
    for (int c = 0; c < streamed.alphabet_size(); ++c) {
      EXPECT_EQ(streamed.PrefixCount(c, pos), reference.PrefixCount(c, pos));
    }
  }

  // The suffix index over the mapped bytes scans like the decoded one.
  ASSERT_OK_AND_ASSIGN(core::SuffixScan mapped_scan, mapped.BuildSuffixScan(0));
  ASSERT_OK_AND_ASSIGN(core::SuffixScan decoded_scan,
                       decoded.BuildSuffixScan(0));
  const int k = decoded.alphabet().size();
  ASSERT_OK_AND_ASSIGN(
      core::ChiSquareContext context,
      core::ChiSquareContext::Make(std::vector<double>(k, 1.0 / k)));
  core::SuffixScanOptions options;
  options.top_n = 0;
  ASSERT_OK_AND_ASSIGN(core::SuffixScanResult from_mapped,
                       mapped_scan.Scan(context, options));
  ASSERT_OK_AND_ASSIGN(core::SuffixScanResult from_decoded,
                       decoded_scan.Scan(context, options));
  EXPECT_GT(from_decoded.match_count, 0);
  EXPECT_EQ(from_mapped.match_count, from_decoded.match_count);
  ASSERT_EQ(from_mapped.classes.size(), from_decoded.classes.size());
  for (size_t i = 0; i < from_mapped.classes.size(); ++i) {
    EXPECT_EQ(from_mapped.classes[i].substring.start,
              from_decoded.classes[i].substring.start);
    EXPECT_EQ(from_mapped.classes[i].substring.end,
              from_decoded.classes[i].substring.end);
    EXPECT_EQ(from_mapped.classes[i].count, from_decoded.classes[i].count);
  }
}

TEST_F(MmapCorpusTest, StripsFramingBytes) {
  std::string text = "010011";
  for (const std::string& framed :
       {text, text + "\n", text + "\r\n", "\xEF\xBB\xBF" + text + "\n"}) {
    std::string path = WriteFile("framed.txt", framed);
    ASSERT_OK_AND_ASSIGN(engine::Corpus corpus,
                         engine::Corpus::FromMappedFile(path));
    ASSERT_EQ(corpus.mapped_record().size(), text.size()) << framed;
    EXPECT_EQ(corpus.alphabet().characters(), "01");
  }

  // Interior newlines are data, not framing: they join the inferred
  // alphabet rather than splitting records.
  std::string path = WriteFile("interior.txt", "ab\nab\n");
  ASSERT_OK_AND_ASSIGN(engine::Corpus corpus,
                       engine::Corpus::FromMappedFile(path));
  EXPECT_EQ(corpus.mapped_record().size(), 5u);
  EXPECT_EQ(corpus.alphabet().characters(), "\nab");
}

TEST_F(MmapCorpusTest, ExplicitAlphabetValidatesBytes) {
  std::string path = WriteFile("pinned.txt", "ACGTX\n");
  EXPECT_TRUE(engine::Corpus::FromMappedFile(path, "ACGTX").ok());
  auto bad = engine::Corpus::FromMappedFile(path, "ACGT");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("offset 4"), std::string::npos);

  EXPECT_FALSE(
      engine::Corpus::FromMappedFile(WriteFile("empty.txt", "\n")).ok());
}

}  // namespace
}  // namespace io
}  // namespace sigsub
