#include "seq/sequence.h"

#include "gtest/gtest.h"
#include "seq/alphabet.h"

namespace sigsub {
namespace seq {
namespace {

TEST(SequenceTest, FromStringRoundTrip) {
  Alphabet a = Alphabet::FromCharacters("ACGT").value();
  auto s = Sequence::FromString(a, "GATTACA");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 7);
  EXPECT_EQ(s->alphabet_size(), 4);
  EXPECT_EQ(s->ToString(a), "GATTACA");
}

TEST(SequenceTest, FromStringRejectsUnknownCharacters) {
  Alphabet a = Alphabet::Binary();
  auto s = Sequence::FromString(a, "0102");
  EXPECT_TRUE(s.status().IsNotFound());
  // The first byte outside the alphabet is named.
  EXPECT_EQ(s.status().message(), "character '2' not in alphabet \"01\"");
}

TEST(SequenceTest, FromSymbolsValidatesRange) {
  EXPECT_TRUE(Sequence::FromSymbols(2, {0, 1, 0}).ok());
  EXPECT_TRUE(Sequence::FromSymbols(2, {0, 2}).status().IsInvalidArgument());
  EXPECT_TRUE(Sequence::FromSymbols(1, {0}).status().IsInvalidArgument());
  EXPECT_TRUE(Sequence::FromSymbols(256, {}).status().IsInvalidArgument());
}

TEST(SequenceTest, EmptyAndAppend) {
  Sequence s(3);
  EXPECT_TRUE(s.empty());
  s.Append(2);
  s.Append(0);
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[1], 0);
}

TEST(SequenceTest, CountsInRange) {
  Alphabet a = Alphabet::Binary();
  Sequence s = Sequence::FromString(a, "0110110").value();
  auto all = s.CountsInRange(0, 7);
  EXPECT_EQ(all[0], 3);
  EXPECT_EQ(all[1], 4);
  auto mid = s.CountsInRange(2, 5);  // "101"
  EXPECT_EQ(mid[0], 1);
  EXPECT_EQ(mid[1], 2);
  auto empty = s.CountsInRange(3, 3);
  EXPECT_EQ(empty[0], 0);
  EXPECT_EQ(empty[1], 0);
}

TEST(SequenceTest, SubstringToString) {
  Alphabet a = Alphabet::FromCharacters("xyz").value();
  Sequence s = Sequence::FromString(a, "xyzzyx").value();
  EXPECT_EQ(s.SubstringToString(a, 1, 4), "yzz");
  EXPECT_EQ(s.SubstringToString(a, 0, 0), "");
  EXPECT_EQ(s.SubstringToString(a, 0, 6), "xyzzyx");
}

TEST(SequenceTest, SymbolsSpanView) {
  Sequence s = Sequence::FromSymbols(3, {1, 2, 0, 1}).value();
  auto view = s.symbols();
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[1], 2);
}

}  // namespace
}  // namespace seq
}  // namespace sigsub
