#include "io/string_codec.h"

#include "gtest/gtest.h"

namespace sigsub {
namespace io {
namespace {

TEST(UpDownFromLevelsTest, EncodesMoves) {
  auto s = UpDownFromLevels({100.0, 101.0, 100.5, 100.5, 102.0});
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->size(), 4);
  EXPECT_EQ((*s)[0], 1);  // up
  EXPECT_EQ((*s)[1], 0);  // down
  EXPECT_EQ((*s)[2], 0);  // tie counts as down
  EXPECT_EQ((*s)[3], 1);  // up
}

TEST(UpDownFromLevelsTest, RejectsTooShort) {
  EXPECT_TRUE(UpDownFromLevels({1.0}).status().IsInvalidArgument());
  EXPECT_TRUE(UpDownFromLevels({}).status().IsInvalidArgument());
}

TEST(FormatPercentTest, Rounds) {
  EXPECT_EQ(FormatPercent(0.5427), "54.27%");
  EXPECT_EQ(FormatPercent(0.759832), "75.98%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

TEST(FormatSignedPercentTest, Signs) {
  EXPECT_EQ(FormatSignedPercent(0.681), "+68.10%");
  EXPECT_EQ(FormatSignedPercent(-0.4127), "-41.27%");
  EXPECT_EQ(FormatSignedPercent(0.0), "+0.00%");
}

}  // namespace
}  // namespace io
}  // namespace sigsub
