#include "io/csv.h"

#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace sigsub {
namespace io {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/sigsub_csv_" + name;
  }
};

TEST_F(CsvTest, ParseCsvLineBasics) {
  EXPECT_EQ(ParseCsvLine("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvLine(""), (std::vector<std::string>{""}));
  EXPECT_EQ(ParseCsvLine("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(ParseCsvLine("a,b,"), (std::vector<std::string>{"a", "b", ""}));
}

TEST_F(CsvTest, ParseCsvLineQuoting) {
  EXPECT_EQ(ParseCsvLine("\"x,y\",z"),
            (std::vector<std::string>{"x,y", "z"}));
  EXPECT_EQ(ParseCsvLine("\"he said \"\"hi\"\"\",2"),
            (std::vector<std::string>{"he said \"hi\"", "2"}));
  // Carriage returns from CRLF files are stripped.
  EXPECT_EQ(ParseCsvLine("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST_F(CsvTest, WriteAndReadRoundTrip) {
  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteTextFile(path,
                            "date,close\n"
                            "2020-01-02,100.5\n"
                            "2020-01-03,101.25\n")
                  .ok());
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][1], "close");
  EXPECT_EQ((*rows)[2][0], "2020-01-03");
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadNumericColumn) {
  std::string path = TempPath("column.csv");
  ASSERT_TRUE(WriteTextFile(path,
                            "date,close\n"
                            "d1,100.5\n"
                            "d2,99.0\n"
                            "d3,101.0\n")
                  .ok());
  auto closes = ReadCsvNumericColumn(path, 1, /*has_header=*/true);
  ASSERT_TRUE(closes.ok());
  EXPECT_EQ(*closes, (std::vector<double>{100.5, 99.0, 101.0}));
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadNumericColumnErrors) {
  std::string path = TempPath("errors.csv");
  ASSERT_TRUE(WriteTextFile(path, "h\nnot_a_number\n").ok());
  EXPECT_TRUE(ReadCsvNumericColumn(path, 0, true)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ReadCsvNumericColumn(path, 5, true)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ReadCsvNumericColumn(path, -1, true)
                  .status()
                  .IsInvalidArgument());
  std::remove(path.c_str());
  EXPECT_TRUE(ReadCsvNumericColumn("/nonexistent/x.csv", 0, false)
                  .status()
                  .IsIOError());
}

TEST_F(CsvTest, EmptyLinesAreSkipped) {
  std::string path = TempPath("empty_lines.csv");
  ASSERT_TRUE(WriteTextFile(path, "1\n\n2\n\n").ok());
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadFailureAfterOpenIsIOError) {
  // A directory opens but fails to read; it is not an empty file.
  const std::string dir = ::testing::TempDir();
  auto rows = ReadCsvFile(dir);
  ASSERT_TRUE(rows.status().IsIOError()) << rows.status().ToString();
  EXPECT_EQ(rows.status().message(), "cannot read '" + dir + "'");
}

TEST_F(CsvTest, WriteFailsOnBadPath) {
  EXPECT_TRUE(WriteTextFile("/nonexistent_dir/file.txt", "x").IsIOError());
}

}  // namespace
}  // namespace io
}  // namespace sigsub
