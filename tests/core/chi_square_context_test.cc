#include "core/chi_square.h"

#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/prefix_counts.h"
#include "seq/rng.h"
#include "stats/count_statistics.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

TEST(ChiSquareContextTest, MakeValidates) {
  EXPECT_TRUE(ChiSquareContext::Make({0.5, 0.5}).ok());
  EXPECT_TRUE(ChiSquareContext::Make({0.5, 0.6}).status().IsInvalidArgument());
  EXPECT_TRUE(ChiSquareContext::Make({1.0}).status().IsInvalidArgument());
}

template <typename T>
std::vector<T> ToVector(std::span<const T> values) {
  return std::vector<T>(values.begin(), values.end());
}

TEST(ChiSquareContextTest, ProbabilityClassesGroupBitEqualProbabilities) {
  ChiSquareContext uniform(seq::MultinomialModel::Uniform(4));
  EXPECT_EQ(ToVector(uniform.class_probs()), std::vector<double>{0.25});
  EXPECT_EQ(ToVector(uniform.class_members()),
            (std::vector<uint8_t>{0, 1, 2, 3}));
  EXPECT_EQ(ToVector(uniform.class_offsets()), (std::vector<uint8_t>{0, 4}));

  // Classes in order of their first member; members in symbol order.
  ChiSquareContext interleaved(
      seq::MultinomialModel::Make({0.1, 0.4, 0.1, 0.3, 0.1}).value());
  EXPECT_EQ(ToVector(interleaved.class_probs()),
            (std::vector<double>{0.1, 0.4, 0.3}));
  EXPECT_EQ(ToVector(interleaved.class_members()),
            (std::vector<uint8_t>{0, 2, 4, 1, 3}));
  EXPECT_EQ(ToVector(interleaved.class_offsets()),
            (std::vector<uint8_t>{0, 3, 4, 5}));

  // All-distinct probabilities: one singleton class per character.
  ChiSquareContext geometric(seq::MultinomialModel::Geometric(5));
  EXPECT_EQ(ToVector(geometric.class_probs()), ToVector(geometric.probs()));
  EXPECT_EQ(ToVector(geometric.class_members()),
            (std::vector<uint8_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ToVector(geometric.class_offsets()),
            (std::vector<uint8_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ChiSquareContextTest, EvaluateMatchesReferenceImplementation) {
  ChiSquareContext ctx(seq::MultinomialModel::Make({0.2, 0.3, 0.5}).value());
  std::vector<int64_t> counts{7, 2, 11};
  std::vector<double> probs{0.2, 0.3, 0.5};
  EXPECT_X2_EQ(ctx.Evaluate(counts, 20),
               stats::PearsonChiSquare(counts, probs));
}

TEST(ChiSquareContextTest, EvaluateCoinExample) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  std::vector<int64_t> counts{19, 1};
  EXPECT_NEAR(ctx.Evaluate(counts, 20), 16.2, 1e-10);
}

TEST(ChiSquareContextTest, EmptyLengthIsZero) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  std::vector<int64_t> counts{0, 0};
  EXPECT_DOUBLE_EQ(ctx.Evaluate(counts, 0), 0.0);
}

TEST(ChiSquareContextTest, SingleCharacterValue) {
  // X² of one character c is 1/p_c − 1.
  ChiSquareContext ctx(seq::MultinomialModel::Make({0.25, 0.75}).value());
  std::vector<int64_t> c0{1, 0};
  std::vector<int64_t> c1{0, 1};
  EXPECT_NEAR(ctx.Evaluate(c0, 1), 3.0, 1e-12);
  EXPECT_NEAR(ctx.Evaluate(c1, 1), 1.0 / 3.0, 1e-12);
}

TEST(ChiSquareContextTest, EvaluateRangeMatchesEvaluate) {
  seq::Rng rng(42);
  seq::Sequence s = seq::GenerateNull(3, 200, rng);
  seq::PrefixCounts pc(s);
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(3));
  std::vector<int64_t> counts(3);
  for (int64_t start = 0; start < s.size(); start += 11) {
    for (int64_t end = start + 1; end <= s.size(); end += 7) {
      pc.FillCounts(start, end, counts);
      EXPECT_X2_EQ(ctx.EvaluateRange(pc, start, end),
                   ctx.Evaluate(counts, end - start));
    }
  }
}

TEST(ChiSquareContextIncrementalTest, TracksDirectEvaluation) {
  seq::Rng rng(77);
  for (int k : {2, 5}) {
    seq::MultinomialModel model = seq::MultinomialModel::Harmonic(k);
    seq::Sequence s = seq::GenerateMultinomial(model, 500, rng);
    ChiSquareContext ctx(model);
    ChiSquareContext::Incremental inc(ctx);
    std::vector<int64_t> counts(k, 0);
    for (int64_t i = 0; i < s.size(); ++i) {
      inc.Extend(s[i]);
      ++counts[s[i]];
      ASSERT_NEAR(inc.chi_square(), ctx.Evaluate(counts, i + 1),
                  1e-7 * (1.0 + inc.chi_square()))
          << "k=" << k << " i=" << i;
    }
  }
}

TEST(ChiSquareContextIncrementalTest, ResetClearsState) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  ChiSquareContext::Incremental inc(ctx);
  inc.Extend(0);
  inc.Extend(0);
  EXPECT_GT(inc.chi_square(), 0.0);
  inc.Reset();
  EXPECT_EQ(inc.length(), 0);
  EXPECT_DOUBLE_EQ(inc.chi_square(), 0.0);
  inc.Extend(1);
  EXPECT_NEAR(inc.chi_square(), 1.0, 1e-12);
}

TEST(ChiSquareContextTest, OrderIndependenceViaCounts) {
  // The statistic depends only on counts (paper remark after Eq. 5):
  // two different orderings with the same counts score identically.
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  ChiSquareContext::Incremental a(ctx);
  ChiSquareContext::Incremental b(ctx);
  for (uint8_t sym : {0, 0, 1, 0, 1, 1, 0}) a.Extend(sym);
  for (uint8_t sym : {1, 1, 1, 0, 0, 0, 0}) b.Extend(sym);
  EXPECT_DOUBLE_EQ(a.chi_square(), b.chi_square());
}

TEST(ChiSquareContextTest, LargeCountsStayFinite) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  std::vector<int64_t> counts{90000, 10000};
  double x2 = ctx.Evaluate(counts, 100000);
  EXPECT_TRUE(std::isfinite(x2));
  // X² = n(2p̂−1)² / (p(1−p)) ... = (90000−50000)²/50000 × 2 = 64000.
  EXPECT_NEAR(x2, 64000.0, 1e-6);
}

}  // namespace
}  // namespace core
}  // namespace sigsub
