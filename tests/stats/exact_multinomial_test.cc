#include "stats/exact_multinomial.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "stats/count_statistics.h"

namespace sigsub {
namespace stats {
namespace {

TEST(LogMultinomialProbabilityTest, BinomialSpecialCase) {
  // P({19,1}) for a fair coin = C(20,19)/2^20 = 20/2^20.
  std::vector<int64_t> counts{19, 1};
  std::vector<double> probs{0.5, 0.5};
  EXPECT_NEAR(std::exp(LogMultinomialProbability(counts, probs)),
              20.0 / 1048576.0, 1e-15);
}

TEST(LogMultinomialProbabilityTest, TrinomialValue) {
  // P({1,1,1}) with p = (1/3,1/3,1/3) over l=3: 3!/(1·1·1)·(1/27) = 6/27.
  std::vector<int64_t> counts{1, 1, 1};
  std::vector<double> probs{1.0 / 3, 1.0 / 3, 1.0 / 3};
  EXPECT_NEAR(std::exp(LogMultinomialProbability(counts, probs)), 6.0 / 27.0,
              1e-13);
}

TEST(LogMultinomialProbabilityTest, SumsToOneOverAllConfigurations) {
  // Σ over all compositions of l into k parts of P(β) == 1.
  std::vector<double> probs{0.2, 0.3, 0.5};
  const int64_t l = 6;
  double total = 0.0;
  for (int64_t a = 0; a <= l; ++a) {
    for (int64_t b = 0; a + b <= l; ++b) {
      std::vector<int64_t> counts{a, b, l - a - b};
      total += std::exp(LogMultinomialProbability(counts, probs));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ConfigurationCountTest, ClosedForm) {
  EXPECT_EQ(MultinomialConfigurationCount(10, 1), 1);
  EXPECT_EQ(MultinomialConfigurationCount(10, 2), 11);
  EXPECT_EQ(MultinomialConfigurationCount(4, 3), 15);  // C(6,2).
  EXPECT_EQ(MultinomialConfigurationCount(0, 4), 1);
}

TEST(ExactPValueTest, PaperCoinExampleTwoSided) {
  // 19 heads / 1 tail, fair coin. Configurations at least as extreme by X²
  // are {0,20,1,19} heads: p = (1+1+20+20)/2^20 ≈ 4.0e-5 — twice the
  // paper's one-sided 0.002% (the X² ordering is two-sided).
  std::vector<int64_t> observed{19, 1};
  std::vector<double> probs{0.5, 0.5};
  auto p = ExactMultinomialPValue(observed, probs);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 42.0 / 1048576.0, 1e-12);
}

TEST(ExactPValueTest, MostLikelyOutcomeHasLargePValue) {
  std::vector<int64_t> observed{10, 10};
  std::vector<double> probs{0.5, 0.5};
  auto p = ExactMultinomialPValue(observed, probs);
  ASSERT_TRUE(p.ok());
  // Every outcome is at least as extreme as the most balanced one.
  EXPECT_NEAR(p.value(), 1.0, 1e-12);
}

// One observed configuration with its null probabilities. The asymptotic
// side of each comparison is stats::ChiSquarePValue, the p-value the query
// reports print.
struct PValueCase {
  std::vector<int64_t> observed;
  std::vector<double> probs;
};

TEST(ExactPValueTest, AgreesWithChiSquareAsymptoticsAtModerateSize) {
  // With l = 60 the χ²(k−1) approximation should be within a few 10% of
  // the exact tail for a moderate deviation: binary, and the uniform k = 4
  // alphabet of the DNA-style workloads.
  const std::vector<PValueCase> cases = {
      {{38, 22}, {0.5, 0.5}},
      {{23, 16, 11, 10}, {0.25, 0.25, 0.25, 0.25}},
  };
  for (const PValueCase& c : cases) {
    auto exact = ExactMultinomialPValue(c.observed, c.probs);
    ASSERT_TRUE(exact.ok());
    double x2 = PearsonChiSquare(c.observed, c.probs);
    double asymptotic =
        stats::ChiSquarePValue(x2, static_cast<int>(c.probs.size()));
    EXPECT_GT(exact.value(), 0.0) << c.probs.size();
    EXPECT_LT(std::fabs(exact.value() - asymptotic) / asymptotic, 0.35)
        << c.probs.size();
  }
}

TEST(ExactPValueTest, ChiSquareApproximationConvergesFromBelow) {
  // Paper Section 1: the X² statistic converges to χ² from below, so the
  // asymptotic p-value should (for these balanced-ish l = 20 cases, binary
  // and uniform k = 4) be conservative relative to exact enumeration.
  const std::vector<double> binary{0.5, 0.5};
  const std::vector<double> uniform4{0.25, 0.25, 0.25, 0.25};
  const std::vector<PValueCase> cases = {
      {{14, 6}, binary},
      {{15, 5}, binary},
      {{16, 4}, binary},
      {{9, 5, 3, 3}, uniform4},
      {{10, 4, 3, 3}, uniform4},
      {{11, 3, 3, 3}, uniform4},
  };
  for (const PValueCase& c : cases) {
    auto exact = ExactMultinomialPValue(c.observed, c.probs);
    ASSERT_TRUE(exact.ok());
    double x2 = PearsonChiSquare(c.observed, c.probs);
    double asym = stats::ChiSquarePValue(x2, static_cast<int>(c.probs.size()));
    // Exact discrete tail is within a factor ~2 of the asymptotic value.
    EXPECT_LT(exact.value(), 2.0 * asym + 1e-9) << c.observed[0];
    EXPECT_GT(exact.value(), 0.2 * asym) << c.observed[0];
  }
}

TEST(ExactPValueTest, RejectsHugeEnumerations) {
  std::vector<int64_t> observed(6, 200);  // l=1200, k=6: astronomical.
  std::vector<double> probs(6, 1.0 / 6);
  auto p = ExactMultinomialPValue(observed, probs);
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ExactPValueTest, ValidatesInput) {
  auto p = ExactMultinomialPValue(std::vector<int64_t>{1, 2},
                                  std::vector<double>{0.7, 0.7});
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

}  // namespace
}  // namespace stats
}  // namespace sigsub
