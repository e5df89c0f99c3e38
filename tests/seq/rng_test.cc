#include "seq/rng.h"

#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace sigsub {
namespace seq {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(r.NextUint64());
  EXPECT_GT(seen.size(), 30u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double u = r.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng r(13);
  std::vector<int64_t> hist(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = r.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++hist[v];
  }
  // Roughly uniform.
  for (int64_t count : hist) {
    EXPECT_NEAR(static_cast<double>(count) / n, 0.1, 0.01);
  }
}

TEST(RngTest, NextBernoulliFrequency) {
  Rng r(17);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += r.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace seq
}  // namespace sigsub
