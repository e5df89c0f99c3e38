#include "engine/corpus.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/csv.h"

namespace sigsub {
namespace engine {
namespace {

TEST(CorpusTest, FromStringsInfersSharedAlphabet) {
  auto corpus = Corpus::FromStrings({"0101", "2210", "00"});
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->size(), 3);
  // Distinct characters across *all* records: 0, 1, 2.
  EXPECT_EQ(corpus->alphabet().size(), 3);
  EXPECT_EQ(corpus->alphabet().characters(), "012");
  EXPECT_EQ(corpus->sequence(0).size(), 4);
  EXPECT_EQ(corpus->text(1), "2210");
}

TEST(CorpusTest, SkipsEmptyRecordsButKeepsSourceIndices) {
  auto corpus = Corpus::FromStrings({"01", "", "10"});
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->size(), 2);
  // Reports must cite the caller's record numbers, not post-skip ones.
  EXPECT_EQ(corpus->source_index(0), 0);
  EXPECT_EQ(corpus->source_index(1), 2);
}

TEST(CorpusTest, ErrorsCiteSourceIndices) {
  auto corpus = Corpus::FromStrings({"01", "", "012"}, "01");
  ASSERT_FALSE(corpus.ok());
  // The bad record is element 2 of the input, even though it is the
  // second non-empty record.
  EXPECT_NE(corpus.status().message().find("record 2"), std::string::npos);
}

TEST(CorpusTest, AllEmptyIsError) {
  EXPECT_TRUE(Corpus::FromStrings({}).status().IsInvalidArgument());
  EXPECT_TRUE(Corpus::FromStrings({"", ""}).status().IsInvalidArgument());
}

TEST(CorpusTest, UnaryCorpusPadsAlphabet) {
  auto corpus = Corpus::FromStrings({"0000", "00"});
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->alphabet().size(), 2);  // X² needs k >= 2.
}

TEST(CorpusTest, ExplicitAlphabetRejectsForeignSymbols) {
  auto corpus = Corpus::FromStrings({"0101", "012"}, "01");
  ASSERT_FALSE(corpus.ok());
  EXPECT_TRUE(corpus.status().IsInvalidArgument());
  // The error names the offending record.
  EXPECT_NE(corpus.status().message().find("record 1"), std::string::npos);
}

TEST(CorpusTest, FromLinesReadsFileAndStripsCr) {
  std::string path = ::testing::TempDir() + "/corpus_lines.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\r\n1100\n\n").ok());
  auto corpus = Corpus::FromLines(path);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->size(), 2);
  EXPECT_EQ(corpus->text(0), "0101");
  EXPECT_EQ(corpus->text(1), "1100");
  std::remove(path.c_str());
}

TEST(CorpusTest, FromLinesMissingFileIsIOError) {
  EXPECT_TRUE(Corpus::FromLines("/no/such/corpus").status().IsIOError());
}

TEST(CorpusTest, ReadFailureAfterOpenIsIOError) {
  // A directory opens but fails to read: an IOError naming the path, not
  // an empty corpus.
  const std::string dir = ::testing::TempDir();
  auto lines = Corpus::FromLines(dir);
  ASSERT_TRUE(lines.status().IsIOError()) << lines.status().ToString();
  EXPECT_EQ(lines.status().message(), "cannot read '" + dir + "'");
  auto csv = Corpus::FromCsvColumn(dir, 0, /*has_header=*/false);
  ASSERT_TRUE(csv.status().IsIOError()) << csv.status().ToString();
  EXPECT_EQ(csv.status().message(), "cannot read '" + dir + "'");
}

TEST(CorpusTest, FromLinesStripsUtf8Bom) {
  // Editors on Windows routinely prepend a UTF-8 BOM. Left in place it
  // reaches alphabet inference, silently adding three junk symbols
  // (EF BB BF) that shrink every p_c and skew every X² on the corpus.
  std::string path = ::testing::TempDir() + "/corpus_bom.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "\xEF\xBB\xBF" "0101\n1100\n").ok());
  auto corpus = Corpus::FromLines(path);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->alphabet().characters(), "01");
  EXPECT_EQ(corpus->text(0), "0101");
  EXPECT_EQ(corpus->sequence(0).size(), 4);
  std::remove(path.c_str());
}

TEST(CorpusTest, FromLinesBomOnlyOnFirstLineIsStripped) {
  // Only a leading BOM is a byte-order mark; the same bytes later in the
  // file are (unusual but legitimate) data and must be preserved.
  std::string path = ::testing::TempDir() + "/corpus_bom_mid.txt";
  ASSERT_TRUE(io::WriteTextFile(
                  path, "\xEF\xBB\xBF" "01\n\xEF\xBB\xBF" "10\n")
                  .ok());
  auto corpus = Corpus::FromLines(path);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->text(0), "01");
  EXPECT_EQ(corpus->text(1), "\xEF\xBB\xBF" "10");
  EXPECT_EQ(corpus->alphabet().size(), 5);  // 0, 1, and the three BOM bytes.
  std::remove(path.c_str());
}

TEST(CorpusTest, FromCsvColumnSelectsAndSkipsHeader) {
  std::string path = ::testing::TempDir() + "/corpus.csv";
  ASSERT_TRUE(io::WriteTextFile(
                  path, "id,series\na,0101\nb,\"11,00\"\n")
                  .ok());
  auto corpus = Corpus::FromCsvColumn(path, 1, /*has_header=*/true);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->size(), 2);
  EXPECT_EQ(corpus->text(0), "0101");
  EXPECT_EQ(corpus->text(1), "11,00");  // Quoted cell round-trips.
  std::remove(path.c_str());
}

TEST(CorpusTest, FromCsvColumnValidates) {
  std::string path = ::testing::TempDir() + "/corpus_bad.csv";
  ASSERT_TRUE(io::WriteTextFile(path, "a,b\nc\n").ok());
  // Row 1 has no column 1.
  EXPECT_TRUE(Corpus::FromCsvColumn(path, 1, false)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Corpus::FromCsvColumn(path, -1, false)
                  .status()
                  .IsInvalidArgument());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Loader equivalence, pinned byte for byte: every value below was captured
// from the loaders as they stood before the text loaders were rebuilt
// around one byte-table pass. Alphabet order is signed-`char` order (bytes
// >= 0x80 sort first), a unary corpus is padded with '0' (or '1' after
// '0'), and a fingerprint moves whenever a decoded symbol does.

struct LoadedShape {
  std::string alphabet;
  std::vector<std::string> texts;  // Empty for a mapped corpus.
  std::vector<int64_t> sizes;
  std::vector<int64_t> source_indices;
  std::vector<uint64_t> fingerprints;
};

LoadedShape ShapeOf(const Corpus& corpus) {
  LoadedShape shape;
  shape.alphabet = corpus.alphabet().characters();
  for (int64_t i = 0; i < corpus.size(); ++i) {
    if (!corpus.is_mapped()) shape.texts.push_back(corpus.text(i));
    shape.sizes.push_back(corpus.record_size(i));
    shape.source_indices.push_back(corpus.source_index(i));
    shape.fingerprints.push_back(corpus.fingerprint(i));
  }
  return shape;
}

void ExpectShape(const Result<Corpus>& corpus, const LoadedShape& expected,
                 const std::string& loader) {
  ASSERT_TRUE(corpus.ok()) << loader << ": " << corpus.status().ToString();
  LoadedShape actual = ShapeOf(*corpus);
  EXPECT_EQ(actual.alphabet, expected.alphabet) << loader;
  if (!corpus->is_mapped()) {
    EXPECT_EQ(actual.texts, expected.texts) << loader;
  }
  EXPECT_EQ(actual.sizes, expected.sizes) << loader;
  EXPECT_EQ(actual.source_indices, expected.source_indices) << loader;
  EXPECT_EQ(actual.fingerprints, expected.fingerprints) << loader;
}

std::string WriteTemp(const std::string& name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + "/corpus_pin_" + name;
  EXPECT_TRUE(io::WriteTextFile(path, bytes).ok());
  return path;
}

TEST(CorpusLoaderEquivalenceTest, HighBytesBomCrlfBlankLinesNoFinalNewline) {
  // Records 0, 2 and 4 survive; 1 and 3 are blank (3 only after its '\r'
  // is stripped). The BOM frames the file; the high bytes are data.
  const std::vector<std::string> records = {"ab\x80", "", "\xFF" "ba", "",
                                            "a\xC3\xA9" "b"};
  LoadedShape expected;
  expected.alphabet = "\x80\xA9\xC3\xFF" "ab";
  expected.texts = {"ab\x80", "\xFF" "ba", "a\xC3\xA9" "b"};
  expected.sizes = {3, 3, 4};
  expected.source_indices = {0, 2, 4};
  expected.fingerprints = {0x619d1032e3d26db1ull, 0x5907f532defbbb30ull,
                           0x909f7699010b2abfull};

  ExpectShape(Corpus::FromStrings(records), expected, "FromStrings");

  std::string lines = WriteTemp("high.txt",
                                "\xEF\xBB\xBF" "ab\x80\r\r\r\n\n\xFF" "ba\r\n"
                                "\r\na\xC3\xA9" "b");
  ExpectShape(Corpus::FromLines(lines), expected, "FromLines");

  // CSV numbers data rows from 0 past the header; a blank line is no row
  // at all, a row with an empty cell is a skipped record.
  std::string csv = WriteTemp(
      "high.csv",
      "\xEF\xBB\xBF" "id,rec\r\n1,ab\x80\r\r\r\n\n2,\r\n3,\xFF" "ba\r\n"
      "4,a\xC3\xA9" "b");
  expected.source_indices = {0, 2, 3};
  ExpectShape(Corpus::FromCsvColumn(csv, 1, /*has_header=*/true), expected,
              "FromCsvColumn");
  std::remove(lines.c_str());
  std::remove(csv.c_str());
}

TEST(CorpusLoaderEquivalenceTest, UnaryCorporaArePadded) {
  LoadedShape letters;
  letters.alphabet = "a0";  // The pad is appended, not sorted in.
  letters.texts = {"aaa", "a"};
  letters.sizes = {3, 1};
  letters.source_indices = {0, 2};
  letters.fingerprints = {0x89ecb2291f75e22cull, 0x583e7f93170d0e72ull};
  ExpectShape(Corpus::FromStrings({"aaa", "", "a"}), letters, "FromStrings");
  std::string lines = WriteTemp("unary.txt", "aaa\r\n\na");
  ExpectShape(Corpus::FromLines(lines), letters, "FromLines");
  std::string csv = WriteTemp("unary.csv", "aaa\n\"\"\na\n");
  ExpectShape(Corpus::FromCsvColumn(csv, 0, /*has_header=*/false), letters,
              "FromCsvColumn");

  LoadedShape zeros;
  zeros.alphabet = "01";
  zeros.texts = {"00"};
  zeros.sizes = {2};
  zeros.source_indices = {0};
  zeros.fingerprints = {0xe69c17eca7df696dull};
  ExpectShape(Corpus::FromStrings({"00"}), zeros, "FromStrings");

  LoadedShape high;
  high.alphabet = "\xFE" "0";
  high.texts = {"\xFE\xFE"};
  high.sizes = {2};
  high.source_indices = {0};
  high.fingerprints = {0xe69c17eca7df696dull};
  ExpectShape(Corpus::FromStrings({"\xFE\xFE"}), high, "FromStrings");
  std::remove(lines.c_str());
  std::remove(csv.c_str());
}

TEST(CorpusLoaderEquivalenceTest, SingleRecordMatchesMappedLoader) {
  const std::string record = "ab\x80\xFF" "ba";
  LoadedShape expected;
  expected.alphabet = "\x80\xFF" "ab";
  expected.texts = {record};
  expected.sizes = {6};
  expected.source_indices = {0};
  expected.fingerprints = {0xa9de421c9f237faaull};

  std::string path =
      WriteTemp("single.txt", "\xEF\xBB\xBF" + record + "\r\n");
  ExpectShape(Corpus::FromStrings({record}), expected, "FromStrings");
  ExpectShape(Corpus::FromLines(path), expected, "FromLines");
  ExpectShape(Corpus::FromMappedFile(path), expected, "FromMappedFile");
  std::string csv = WriteTemp("single.csv", record + "\r\n");
  ExpectShape(Corpus::FromCsvColumn(csv, 0, /*has_header=*/false), expected,
              "FromCsvColumn");

  std::string unary = WriteTemp("single_unary.txt", "aaa\n");
  LoadedShape letters;
  letters.alphabet = "a0";
  letters.texts = {"aaa"};
  letters.sizes = {3};
  letters.source_indices = {0};
  letters.fingerprints = {0x89ecb2291f75e22cull};
  ExpectShape(Corpus::FromLines(unary), letters, "FromLines");
  ExpectShape(Corpus::FromMappedFile(unary), letters, "FromMappedFile");
  std::remove(path.c_str());
  std::remove(csv.c_str());
  std::remove(unary.c_str());
}

void ExpectInvalid(const Result<Corpus>& corpus, const std::string& message) {
  ASSERT_FALSE(corpus.ok());
  EXPECT_TRUE(corpus.status().IsInvalidArgument())
      << corpus.status().ToString();
  EXPECT_EQ(corpus.status().message(), message);
}

TEST(CorpusLoaderEquivalenceTest, PinnedAlphabetRejectionWording) {
  ExpectInvalid(Corpus::FromStrings({"01", "", "012"}, "01"),
                "record 2: character '2' not in alphabet \"01\"");
  ExpectInvalid(Corpus::FromStrings({"ab", "b\x80" "a"}, "ab"),
                "record 1: character '\x80' not in alphabet \"ab\"");

  std::string lines = WriteTemp("pinned.txt", "01\r\n\n10\n0\x80" "1");
  ExpectInvalid(Corpus::FromLines(lines, "01"),
                "record 3: character '\x80' not in alphabet \"01\"");

  std::string csv = WriteTemp("pinned.csv", "h\n01\n\n\"\"\n012\n");
  ExpectInvalid(Corpus::FromCsvColumn(csv, 0, /*has_header=*/true, "01"),
                "record 2: character '2' not in alphabet \"01\"");

  std::string mapped = WriteTemp("pinned_mapped.txt", "01x\n");
  ExpectInvalid(Corpus::FromMappedFile(mapped, "01"),
                "record 0: byte value 120 at offset 2 is outside the "
                "alphabet");

  ExpectInvalid(Corpus::FromStrings({"01"}, "010"),
                "duplicate character '0' in alphabet");
  ExpectInvalid(Corpus::FromStrings({"", ""}),
                "corpus has no non-empty records");
  std::remove(lines.c_str());
  std::remove(csv.c_str());
  std::remove(mapped.c_str());
}

}  // namespace
}  // namespace engine
}  // namespace sigsub
