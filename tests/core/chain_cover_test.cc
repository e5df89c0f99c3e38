#include "core/chain_cover.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

// Enumerates all count-vector extensions (compositions of `extra` over k
// characters) of `base`, returning the maximum resulting X². This is the
// exhaustive left-hand side of Theorem 1.
double MaxExtensionChiSquare(const ChiSquareContext& ctx,
                             std::vector<int64_t> base, int64_t base_len,
                             int64_t extra) {
  const int k = ctx.alphabet_size();
  std::vector<int64_t> add(k, 0);
  double best = -1.0;
  // Recursive composition enumeration.
  std::function<void(int, int64_t)> rec = [&](int index, int64_t remaining) {
    if (index == k - 1) {
      add[index] = remaining;
      std::vector<int64_t> counts(base);
      for (int c = 0; c < k; ++c) counts[c] += add[c];
      best = std::max(best, ctx.Evaluate(counts, base_len + extra));
      return;
    }
    for (int64_t y = 0; y <= remaining; ++y) {
      add[index] = y;
      rec(index + 1, remaining - y);
    }
  };
  rec(0, extra);
  return best;
}

TEST(CoverChiSquareTest, MatchesDirectEvaluationOfPaddedCounts) {
  // X²_λ(c, x) computed by the closed form must equal evaluating the
  // padded count vector directly (paper Eq. 19 vs Eq. 5).
  ChiSquareContext ctx(seq::MultinomialModel::Make({0.2, 0.3, 0.5}).value());
  std::vector<int64_t> counts{4, 1, 3};
  int64_t l = 8;
  double x2 = ctx.Evaluate(counts, l);
  for (int c = 0; c < 3; ++c) {
    for (int64_t x : {1, 2, 5, 17}) {
      std::vector<int64_t> padded(counts);
      padded[c] += x;
      double direct = ctx.Evaluate(padded, l + x);
      double closed = CoverChiSquare(x2, l, counts[c], ctx.probs()[c],
                                     static_cast<double>(x));
      EXPECT_NEAR(closed, direct, 1e-9 * (1.0 + std::fabs(direct)))
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(CoverChiSquareTest, ZeroExtensionIsIdentity) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  std::vector<int64_t> counts{6, 2};
  double x2 = ctx.Evaluate(counts, 8);
  EXPECT_NEAR(CoverChiSquare(x2, 8, counts[0], 0.5, 0.0), x2, 1e-12);
}

TEST(Lemma2Test, AppendingArgmaxCharacterIncreasesChiSquare) {
  // Lemma 2: appending the character maximizing Y_j/p_j strictly increases
  // X². Checked over random count vectors.
  seq::Rng rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    int k = 2 + static_cast<int>(rng.NextBounded(4));
    seq::MultinomialModel model =
        (iter % 2 == 0) ? seq::MultinomialModel::Uniform(k)
                        : seq::MultinomialModel::Harmonic(k);
    ChiSquareContext ctx(model);
    std::vector<int64_t> counts(k);
    int64_t l = 0;
    for (int c = 0; c < k; ++c) {
      counts[c] = static_cast<int64_t>(rng.NextBounded(20));
      l += counts[c];
    }
    if (l == 0) continue;
    // Pick j = argmax Y_j / p_j.
    int j = 0;
    double best_score = -1.0;
    for (int c = 0; c < k; ++c) {
      double score = static_cast<double>(counts[c]) / model.prob(c);
      if (score > best_score) {
        best_score = score;
        j = c;
      }
    }
    double before = ctx.Evaluate(counts, l);
    ++counts[j];
    double after = ctx.Evaluate(counts, l + 1);
    EXPECT_GT(after, before) << "iter=" << iter;
  }
}

TEST(Theorem1Test, CoverBoundDominatesAllExtensionsExhaustively) {
  // Theorem 1: for every extension length m <= l1, every possible extension
  // is bounded by max_c X²_λ(c, l1). Verified by exhaustive composition
  // enumeration for small k and l1.
  seq::Rng rng(13);
  for (int iter = 0; iter < 60; ++iter) {
    int k = 2 + static_cast<int>(rng.NextBounded(2));  // k in {2,3}.
    seq::MultinomialModel model =
        (iter % 2 == 0) ? seq::MultinomialModel::Uniform(k)
                        : seq::MultinomialModel::Geometric(k);
    ChiSquareContext ctx(model);
    std::vector<int64_t> counts(k);
    int64_t l = 0;
    for (int c = 0; c < k; ++c) {
      counts[c] = 1 + static_cast<int64_t>(rng.NextBounded(8));
      l += counts[c];
    }
    double x2 = ctx.Evaluate(counts, l);
    for (int64_t l1 : {1, 2, 3, 5}) {
      double bound = -1.0;
      for (int c = 0; c < k; ++c) {
        bound = std::max(bound, CoverChiSquare(x2, l, counts[c],
                                               model.prob(c),
                                               static_cast<double>(l1)));
      }
      for (int64_t m = 1; m <= l1; ++m) {
        double worst = MaxExtensionChiSquare(ctx, counts, l, m);
        EXPECT_LE(worst, bound + 1e-9)
            << "iter=" << iter << " l1=" << l1 << " m=" << m;
      }
    }
  }
}

TEST(SkipSolverTest, SkipIsSoundExhaustively) {
  // For random bases, every extension by 1..MaxSafeExtension must stay at
  // or below the budget (checked exhaustively over compositions).
  seq::Rng rng(17);
  for (int iter = 0; iter < 60; ++iter) {
    int k = 2 + static_cast<int>(rng.NextBounded(2));
    seq::MultinomialModel model =
        (iter % 2 == 0) ? seq::MultinomialModel::Uniform(k)
                        : seq::MultinomialModel::Harmonic(k);
    ChiSquareContext ctx(model);
    SkipSolver solver(ctx);
    std::vector<int64_t> counts(k);
    int64_t l = 0;
    for (int c = 0; c < k; ++c) {
      counts[c] = static_cast<int64_t>(rng.NextBounded(6));
      l += counts[c];
    }
    if (l == 0) {
      counts[0] = 1;
      l = 1;
    }
    double x2 = ctx.Evaluate(counts, l);
    double budget = x2 + static_cast<double>(rng.NextBounded(12));
    int64_t m = solver.MaxSafeExtension(counts, l, x2, budget);
    ASSERT_GE(m, 0);
    int64_t check_up_to = std::min<int64_t>(m, 7);  // Exhaustive cost cap.
    for (int64_t ext = 1; ext <= check_up_to; ++ext) {
      double worst = MaxExtensionChiSquare(ctx, counts, l, ext);
      EXPECT_LE(worst, budget + 1e-9)
          << "iter=" << iter << " ext=" << ext << " m=" << m;
    }
  }
}

TEST(SkipSolverTest, ZeroWhenOverBudget) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  std::vector<int64_t> counts{9, 1};
  double x2 = ctx.Evaluate(counts, 10);
  EXPECT_EQ(solver.MaxSafeExtension(counts, 10, x2, x2 - 1.0), 0);
}

TEST(SkipSolverTest, GrowsWithBudget) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  std::vector<int64_t> counts{5, 5};
  double x2 = ctx.Evaluate(counts, 10);  // 0: perfectly balanced.
  int64_t prev = -1;
  for (double budget : {1.0, 4.0, 16.0, 64.0}) {
    int64_t m = solver.MaxSafeExtension(counts, 10, x2, budget);
    EXPECT_GT(m, prev);
    prev = m;
  }
}

TEST(SkipSolverTest, SkipScalesLikeSqrtLForNullCounts) {
  // Lemma 5's intuition: for balanced counts and budget ~ ln l, the skip
  // is Θ(sqrt(l · ln l)); check the sqrt scaling across two decades.
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  auto skip_at = [&](int64_t l) {
    std::vector<int64_t> counts{l / 2, l / 2};
    double x2 = ctx.Evaluate(counts, l);
    return static_cast<double>(
        solver.MaxSafeExtension(counts, l, x2, std::log(l)));
  };
  double s100 = skip_at(100);
  double s10000 = skip_at(10000);
  // sqrt scaling with the log factor: ratio should be ~10·sqrt(ln10k/ln100).
  EXPECT_GT(s10000 / s100, 8.0);
  EXPECT_LT(s10000 / s100, 25.0);
}

TEST(PaperSingleCharacterSkipTest, NeverExceedsExactSolver) {
  // The paper's one-character rule with x≈0 must be no more aggressive
  // than the exact min-over-characters skip on uniform models (where the
  // argmax is x-independent).
  seq::Rng rng(19);
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<int64_t> counts{
        static_cast<int64_t>(rng.NextBounded(50)),
        static_cast<int64_t>(rng.NextBounded(50))};
    int64_t l = counts[0] + counts[1];
    if (l == 0) continue;
    double x2 = ctx.Evaluate(counts, l);
    double budget = x2 + 1.0 + static_cast<double>(rng.NextBounded(20));
    int64_t exact = solver.MaxSafeExtension(counts, l, x2, budget);
    int64_t paper = PaperSingleCharacterSkip(ctx, counts, l, x2, budget);
    EXPECT_LE(paper, exact + 1) << "iter=" << iter;
  }
}

// ---------------------------------------------------------------------------
// Probability classes against the all-characters solver.

/// q_c(x) in long double, evaluated exactly as core/chain_cover.cc does.
long double ReferenceCoverQuadraticAt(int64_t y_c, double p_c, int64_t l,
                                      double x2_l, double budget, int64_t x) {
  long double a = 1.0L - static_cast<long double>(p_c);
  long double b = 2.0L * static_cast<long double>(y_c) -
                  2.0L * static_cast<long double>(l) * p_c -
                  static_cast<long double>(p_c) * budget;
  long double c = (static_cast<long double>(x2_l) - budget) *
                  static_cast<long double>(l) * p_c;
  long double lx = static_cast<long double>(x);
  return (a * lx + b) * lx + c;
}

/// The cover quadratic's positive root, branching on the sign of b as
/// SkipSolver::CharacterRoot did before it selected operands instead.
double ReferenceCharacterRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                              double budget) {
  double a = 1.0 - p_c;
  double b = 2.0 * static_cast<double>(y_c) -
             2.0 * static_cast<double>(l) * p_c - p_c * budget;
  double c = (x2_l - budget) * static_cast<double>(l) * p_c;
  if (c > 0.0) return 0.0;
  double disc = b * b - 4.0 * a * c;
  double sq = std::sqrt(disc);
  if (b <= 0.0) return (-b + sq) / (2.0 * a);
  return (-2.0 * c) / (b + sq);
}

/// The skip solver before probability classes, kept as the reference: the
/// floor of the smallest of k per-character roots, decremented while any
/// of the k long-double checks fails.
int64_t AllCharactersMaxSafeExtension(std::span<const double> probs,
                                      std::span<const int64_t> counts,
                                      int64_t l, double x2_l, double budget) {
  if (x2_l > budget) return 0;
  double min_root = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < probs.size(); ++c) {
    double root = ReferenceCharacterRoot(counts[c], probs[c], l, x2_l, budget);
    if (root < min_root) min_root = root;
  }
  if (!(min_root > 0.0)) return 0;
  if (min_root > 9.0e18) min_root = 9.0e18;
  int64_t m = static_cast<int64_t>(std::floor(min_root));
  if (m <= 0) return 0;
  for (size_t c = 0; c < probs.size() && m > 0;) {
    if (ReferenceCoverQuadraticAt(counts[c], probs[c], l, x2_l, budget, m) >
        0.0L) {
      --m;
      c = 0;
      continue;
    }
    ++c;
  }
  return m;
}

/// Longest substring a record can hold (32-bit suffix arrays cap records
/// below 2^31 symbols).
constexpr int64_t kMaxLength = (int64_t{1} << 31) - 2;

/// One MaxSafeExtension input.
struct SkipTuple {
  std::vector<int64_t> counts;
  int64_t l = 0;
  double x2 = 0.0;
  double budget = 0.0;
};

/// Seeded MaxSafeExtension inputs aimed at the corners of the
/// probability-class argument. Tuple kinds, in rotation: null-like counts
/// at lengths log-uniform in [1, 2^31 − 2]; ties for a class maximum; a
/// budget putting the class maximum's b (the root's branch switch) within
/// 2 of 0, beside a class member one count lower; a budget putting a
/// root within 1e-9 of an integer; X²_l above the budget; substrings of
/// at most 64 symbols.
class SkipTupleGenerator {
 public:
  SkipTupleGenerator(const ChiSquareContext& ctx, uint64_t seed)
      : ctx_(ctx), rng_(seed), spread_(ctx.probs().size()) {
    for (size_t c = 0; c < spread_.size(); ++c) {
      double p = ctx.probs()[c];
      spread_[c] = std::sqrt(p * (1.0 - p));
    }
  }

  static constexpr int kKinds = 6;

  void Next(int kind, SkipTuple& t) {
    const size_t k = spread_.size();
    t.counts.resize(k);
    int64_t target = 1 + static_cast<int64_t>(rng_.NextBounded(64));
    if (kind != 5) {
      double log_max = std::log(static_cast<double>(kMaxLength));
      double length = std::exp(rng_.NextDouble() * log_max);
      target = std::min(kMaxLength, static_cast<int64_t>(length));
    }
    // Null-like counts, with the deviation scaled up to 100x so that
    // X²_l spans significant substrings too.
    double scale = std::pow(10.0, 2.0 * rng_.NextDouble() * rng_.NextDouble());
    double sd = std::sqrt(static_cast<double>(target)) * scale;
    uint64_t bits = 0;
    for (size_t c = 0; c < k; ++c, bits >>= 16) {
      if (c % 4 == 0) bits = rng_.NextUint64();
      // Uniform noise of unit variance, 16 random bits per character.
      double noise = (static_cast<double>(bits & 0xffff) / 65536.0 - 0.5) *
                     std::sqrt(12.0);
      double mean = static_cast<double>(target) * ctx_.probs()[c];
      t.counts[c] =
          std::max<int64_t>(0, std::llround(mean + noise * sd * spread_[c]));
    }
    FixLength(t);

    // Class g: a random class; `top` its first member with the largest
    // count.
    size_t g = rng_.NextBounded(ctx_.class_probs().size());
    size_t begin = ctx_.class_offsets()[g];
    size_t end = ctx_.class_offsets()[g + 1];
    size_t top = ctx_.class_members()[begin];
    for (size_t i = begin; i < end; ++i) {
      size_t c = ctx_.class_members()[i];
      if (t.counts[c] > t.counts[top]) top = c;
    }
    auto other_member = [&]() -> size_t {
      return ctx_.class_members()[begin + rng_.NextBounded(end - begin)];
    };
    if (kind == 1 && end - begin >= 2) {
      uint64_t ties = 1 + rng_.NextBounded(end - begin);
      for (uint64_t i = 0; i < ties; ++i) {
        t.counts[other_member()] = t.counts[top];
      }
      FixLength(t);
    }
    if (kind == 2 && end - begin >= 2 && t.counts[top] >= 1) {
      size_t c = other_member();
      if (c != top) t.counts[c] = t.counts[top] - 1;
      FixLength(t);
    }
    t.x2 = ctx_.Evaluate(t.counts, t.l);
    const double p = ctx_.class_probs()[g];
    const double y = static_cast<double>(t.counts[top]);
    const double dl = static_cast<double>(t.l);
    switch (kind) {
      case 2: {
        // b = 2Y − 2lp − pB = offset for the class maximum.
        double offset = 4.0 * rng_.NextDouble() - 2.0;
        if (rng_.NextBounded(4) == 0) offset = 0.0;
        t.budget = (2.0 * y - 2.0 * dl * p - offset) / p;
        break;
      }
      case 3: {
        // The budget whose cover quadratic for the class maximum has the
        // root r = m + delta, |delta| <= 1e-9.
        double m = std::floor(std::pow(10.0, 6.0 * rng_.NextDouble())) + 1.0;
        long double r = m + 1e-9L * (2.0L * rng_.NextDouble() - 1.0L);
        long double lp = p;
        long double ld = dl;
        long double numerator = (1.0L - lp) * r * r +
                                (2.0L * y - 2.0L * ld * lp) * r +
                                static_cast<long double>(t.x2) * ld * lp;
        t.budget = static_cast<double>(numerator / (lp * (r + ld)));
        break;
      }
      case 4:
        t.budget = rng_.NextBounded(2) == 0
                       ? std::nextafter(t.x2, -1.0)
                       : t.x2 - rng_.NextDouble() * (t.x2 + 1.0);
        break;
      default:
        // Budgets from just above X²_l to far above it.
        t.budget = t.x2 + std::pow(10.0, 8.0 * rng_.NextDouble() - 4.0);
        break;
    }
  }

 private:
  /// Sets l = Σ counts, trimming the largest counts to keep
  /// 1 <= l <= kMaxLength.
  void FixLength(SkipTuple& t) {
    t.l = 0;
    for (int64_t y : t.counts) t.l += y;
    while (t.l > kMaxLength) {
      auto top = std::max_element(t.counts.begin(), t.counts.end());
      int64_t cut = std::min(*top, t.l - kMaxLength);
      *top -= cut;
      t.l -= cut;
    }
    if (t.l == 0) {
      t.counts[rng_.NextBounded(t.counts.size())] = 1;
      t.l = 1;
    }
  }

  const ChiSquareContext& ctx_;
  seq::Rng rng_;
  std::vector<double> spread_;  // sqrt(p_c (1 − p_c)).
};

struct SolverModel {
  std::string name;
  seq::MultinomialModel model;
};

class ProbabilityClassSolverTest
    : public ::testing::TestWithParam<SolverModel> {};

TEST_P(ProbabilityClassSolverTest, MatchesAllCharactersSolver) {
  const ChiSquareContext ctx(GetParam().model);
  const SkipSolver solver(ctx);
  const size_t k = ctx.probs().size();
  const bool has_shared_class = ctx.class_probs().size() < k;
  SkipTupleGenerator generator(ctx, 0x5eed0000 + k);
  SkipTuple t;
  std::vector<int64_t> start_block(k);
  std::vector<int64_t> end_block(k);
  for (size_t c = 0; c < k; ++c) {
    start_block[c] = static_cast<int64_t>(7919 * c % 1000);
  }

  // Coverage of the corners the generator aims at.
  int64_t positive = 0;
  int64_t over_budget = 0;
  int64_t long_length = 0;
  int64_t tied = 0;
  int64_t straddle = 0;
  int64_t near_integer = 0;
  int64_t mismatches = 0;
  constexpr int64_t kTuples = 1000000;
  for (int64_t i = 0; i < kTuples; ++i) {
    generator.Next(static_cast<int>(i % SkipTupleGenerator::kKinds), t);
    for (size_t c = 0; c < k; ++c) end_block[c] = start_block[c] + t.counts[c];
    int64_t reference = AllCharactersMaxSafeExtension(ctx.probs(), t.counts,
                                                      t.l, t.x2, t.budget);
    int64_t from_span = solver.MaxSafeExtension(t.counts, t.l, t.x2, t.budget);
    int64_t from_blocks = solver.MaxSafeExtension(
        start_block.data(), end_block.data(), t.l, t.x2, t.budget);
    if (from_span != reference || from_blocks != reference) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "tuple " << i << ": l=" << t.l << " x2=" << t.x2
                      << " budget=" << t.budget << " reference=" << reference
                      << " span=" << from_span << " blocks=" << from_blocks;
      }
    }

    positive += reference > 0;
    over_budget += t.x2 > t.budget;
    long_length += t.l >= (int64_t{1} << 30);
    double min_root = std::numeric_limits<double>::infinity();
    for (size_t g = 0; g < ctx.class_probs().size(); ++g) {
      const double p = ctx.class_probs()[g];
      int64_t y_max = -1;
      int64_t at_max = 0;
      bool b_low = false;
      bool b_high = false;
      for (size_t m = ctx.class_offsets()[g]; m < ctx.class_offsets()[g + 1];
           ++m) {
        int64_t y = t.counts[ctx.class_members()[m]];
        if (y > y_max) {
          y_max = y;
          at_max = 0;
        }
        at_max += y == y_max;
        double b = 2.0 * static_cast<double>(y) -
                   2.0 * static_cast<double>(t.l) * p - p * t.budget;
        (b <= 0.0 ? b_low : b_high) = true;
      }
      tied += at_max >= 2;
      straddle += b_low && b_high && t.x2 <= t.budget;
      double root = solver.CharacterRoot(y_max, p, t.l, t.x2, t.budget);
      EXPECT_EQ(root, ReferenceCharacterRoot(y_max, p, t.l, t.x2, t.budget));
      min_root = std::min(min_root, root);
    }
    near_integer += min_root >= 1.0 && min_root < 9.0e18 &&
                    std::fabs(min_root - std::round(min_root)) <= 1e-9;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(positive, kTuples / 4);
  EXPECT_GT(over_budget, kTuples / 10);
  EXPECT_GT(long_length, kTuples / 1000);
  EXPECT_GT(near_integer, kTuples / 1000);
  if (has_shared_class) {
    EXPECT_GT(tied, kTuples / 1000);
    EXPECT_GT(straddle, kTuples / 1000);
  }
  std::printf("[%s] %lld tuples: %lld positive skips, %lld over budget, %lld "
              "with l >= 2^30, %lld tied class maxima, %lld classes straddling "
              "b = 0, %lld roots within 1e-9 of an integer\n",
              GetParam().name.c_str(), static_cast<long long>(kTuples),
              static_cast<long long>(positive),
              static_cast<long long>(over_budget),
              static_cast<long long>(long_length),
              static_cast<long long>(tied), static_cast<long long>(straddle),
              static_cast<long long>(near_integer));
}

INSTANTIATE_TEST_SUITE_P(
    Models, ProbabilityClassSolverTest,
    ::testing::Values(
        SolverModel{"uniform2", seq::MultinomialModel::Uniform(2)},
        SolverModel{"uniform4", seq::MultinomialModel::Uniform(4)},
        SolverModel{"uniform8", seq::MultinomialModel::Uniform(8)},
        SolverModel{"uniform20", seq::MultinomialModel::Uniform(20)},
        SolverModel{"uniform255", seq::MultinomialModel::Uniform(255)},
        SolverModel{"repeated",
                    seq::MultinomialModel::Make({0.4, 0.2, 0.2, 0.2}).value()},
        SolverModel{"interleaved",
                    seq::MultinomialModel::Make({0.1, 0.4, 0.1, 0.4}).value()},
        SolverModel{"geometric4", seq::MultinomialModel::Geometric(4)},
        SolverModel{"geometric20", seq::MultinomialModel::Geometric(20)}),
    [](const ::testing::TestParamInfo<SolverModel>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace core
}  // namespace sigsub
