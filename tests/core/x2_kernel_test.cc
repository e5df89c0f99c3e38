// Property tests for the fused X² range kernels (core/x2_kernel.h):
//
//   * the fused scalar path is BIT-identical to the legacy
//     FillCounts + Evaluate scratch round-trip (same operation order);
//   * the SIMD path (when available) agrees with scalar to <= 1e-12
//     relative and selects the same argmax over exhaustive scans of
//     adversarial near-tie sequences;
//   * both agree with a naive O(l) recount of the substring;
//   * the batched EvaluateEnds form matches its one-shot counterpart;
//   * the SkipSolver block overload reproduces the span overload.

#include "core/x2_kernel.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "core/chain_cover.h"
#include "seq/generators.h"
#include "seq/model.h"
#include "seq/rng.h"
#include "seq/sequence.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

constexpr int kAlphabets[] = {2, 3, 4, 8, 26};

/// A non-uniform model with deterministic pseudo-random probabilities.
seq::MultinomialModel MakeModel(int k, uint64_t seed) {
  seq::Rng rng(seed);
  std::vector<double> probs(static_cast<size_t>(k));
  double total = 0.0;
  for (double& p : probs) {
    p = 0.05 + rng.NextDouble();
    total += p;
  }
  for (double& p : probs) p /= total;
  auto model = seq::MultinomialModel::Make(std::move(probs));
  SIGSUB_CHECK(model.ok());
  return std::move(model).value();
}

/// Deterministic query ranges over [0, n], biased toward short substrings
/// the way a skip scan is.
std::vector<std::pair<int64_t, int64_t>> MakeRanges(int64_t n, size_t count,
                                                    uint64_t seed) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  seq::Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    auto a = static_cast<int64_t>(rng.NextDouble() * static_cast<double>(n));
    auto b = static_cast<int64_t>(rng.NextDouble() * static_cast<double>(n));
    if (a > b) std::swap(a, b);
    ranges.emplace_back(a, b + 1 > n ? n : b + 1);
  }
  return ranges;
}

/// O(l) recount straight off the symbols — independent of PrefixCounts.
double NaiveX2(const seq::Sequence& sequence, const ChiSquareContext& ctx,
               int64_t start, int64_t end) {
  std::vector<int64_t> counts(static_cast<size_t>(ctx.alphabet_size()), 0);
  for (int64_t i = start; i < end; ++i) {
    ++counts[sequence[i]];
  }
  return ctx.Evaluate(counts, end - start);
}

TEST(X2KernelTest, ScalarBitIdenticalToLegacyPair) {
  for (int k : kAlphabets) {
    seq::Rng rng(1000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 2048, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 7 * static_cast<uint64_t>(k)),
                         X2Dispatch::kScalar);
    X2Kernel kernel(ctx, X2Dispatch::kScalar);
    ASSERT_FALSE(kernel.simd_active());
    std::vector<int64_t> scratch(static_cast<size_t>(k));
    for (const auto& [start, end] : MakeRanges(s.size(), 4000, 99)) {
      counts.FillCounts(start, end, scratch);
      double legacy = ctx.Evaluate(scratch, end - start);
      double fused = kernel.EvaluateRange(counts, start, end);
      // Bit identity, not a tolerance: same loads, same operation order.
      ASSERT_EQ(legacy, fused) << "k=" << k << " [" << start << "," << end
                               << ")";
    }
  }
}

TEST(X2KernelTest, AllPathsMatchNaiveRecount) {
  for (int k : kAlphabets) {
    seq::Rng rng(2000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 512, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 11 * static_cast<uint64_t>(k)));
    X2Kernel scalar(ctx, X2Dispatch::kScalar);
    X2Kernel simd(ctx, X2Dispatch::kSimd);
    for (const auto& [start, end] : MakeRanges(s.size(), 800, 17)) {
      double naive = NaiveX2(s, ctx, start, end);
      EXPECT_X2_EQ(scalar.EvaluateRange(counts, start, end), naive);
      EXPECT_X2_EQ(simd.EvaluateRange(counts, start, end), naive);
    }
  }
}

TEST(X2KernelTest, SimdWithinRelativeToleranceOfScalar) {
  if (!SimdAvailable()) {
    GTEST_SKIP() << "SIMD kernel not available on this build/CPU";
  }
  for (int k : kAlphabets) {
    seq::Rng rng(3000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 2048, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 13 * static_cast<uint64_t>(k)));
    X2Kernel scalar(ctx, X2Dispatch::kScalar);
    X2Kernel simd(ctx, X2Dispatch::kSimd);
    ASSERT_TRUE(simd.simd_active()) << "k=" << k;
    for (const auto& [start, end] : MakeRanges(s.size(), 4000, 23)) {
      double a = scalar.EvaluateRange(counts, start, end);
      double b = simd.EvaluateRange(counts, start, end);
      EXPECT_NEAR(a, b, 1e-12 * (1.0 + std::fabs(a)))
          << "k=" << k << " [" << start << "," << end << ")";
    }
  }
}

/// Adversarial near-tie inputs: periodic strings make whole equivalence
/// classes of substrings score exactly equal, so any evaluation-order
/// instability in a kernel would flip the (first-wins) argmax.
seq::Sequence MakePeriodic(int k, int64_t n, int64_t period) {
  std::vector<uint8_t> symbols(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    symbols[static_cast<size_t>(i)] =
        static_cast<uint8_t>((i / period) % k);
  }
  auto s = seq::Sequence::FromSymbols(k, std::move(symbols));
  SIGSUB_CHECK(s.ok());
  return std::move(s).value();
}

TEST(X2KernelTest, SimdArgmaxIdentityOnNearTieSequences) {
  if (!SimdAvailable()) {
    GTEST_SKIP() << "SIMD kernel not available on this build/CPU";
  }
  for (int k : {2, 4, 8}) {
    for (int64_t period : {1, 2, 3}) {
      seq::Sequence s = MakePeriodic(k, 192, period);
      seq::PrefixCounts counts(s);
      ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
      X2Kernel scalar(ctx, X2Dispatch::kScalar);
      X2Kernel simd(ctx, X2Dispatch::kSimd);
      // Exhaustive scan in a fixed order, strict-greater argmax.
      int64_t best_start_a = 0, best_end_a = 0;
      int64_t best_start_b = 0, best_end_b = 0;
      double best_a = -1.0, best_b = -1.0;
      for (int64_t i = 0; i < s.size(); ++i) {
        for (int64_t end = i + 1; end <= s.size(); ++end) {
          double a = scalar.EvaluateRange(counts, i, end);
          double b = simd.EvaluateRange(counts, i, end);
          if (a > best_a) {
            best_a = a;
            best_start_a = i;
            best_end_a = end;
          }
          if (b > best_b) {
            best_b = b;
            best_start_b = i;
            best_end_b = end;
          }
        }
      }
      EXPECT_EQ(best_start_a, best_start_b)
          << "k=" << k << " period=" << period;
      EXPECT_EQ(best_end_a, best_end_b) << "k=" << k << " period=" << period;
      EXPECT_NEAR(best_a, best_b, 1e-12 * (1.0 + best_a));
    }
  }
}

TEST(X2KernelTest, EvaluateEndsMatchesEvaluateRange) {
  for (int k : {2, 4, 26}) {
    seq::Rng rng(4000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 300, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 5 * static_cast<uint64_t>(k)));
    X2Kernel kernel(ctx);
    std::vector<int64_t> ends;
    for (int64_t e = 10; e <= s.size(); e += 7) ends.push_back(e);
    std::vector<double> out(ends.size());
    kernel.EvaluateEnds(counts, /*start=*/10, ends, out);
    for (size_t i = 0; i < ends.size(); ++i) {
      EXPECT_EQ(out[i], kernel.EvaluateRange(counts, 10, ends[i]));
    }
    EXPECT_EQ(out[0], 0.0);  // ends[0] == start.
  }
}

TEST(X2KernelTest, SkipSolverBlockOverloadMatchesSpanOverload) {
  for (int k : {2, 4, 8}) {
    seq::Rng rng(5000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 600, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 3 * static_cast<uint64_t>(k)));
    SkipSolver solver(ctx);
    X2Kernel kernel(ctx, X2Dispatch::kScalar);
    std::vector<int64_t> scratch(static_cast<size_t>(k));
    for (const auto& [start, end] : MakeRanges(s.size(), 500, 31)) {
      if (end == start) continue;
      int64_t l = end - start;
      counts.FillCounts(start, end, scratch);
      double x2 = ctx.Evaluate(scratch, l);
      for (double budget : {x2 - 1.0, x2, x2 + 1.0, x2 + 25.0}) {
        EXPECT_EQ(solver.MaxSafeExtension(scratch, l, x2, budget),
                  solver.MaxSafeExtension(counts.BlockAt(start),
                                          counts.BlockAt(end), l, x2,
                                          budget))
            << "k=" << k << " [" << start << "," << end << ") budget "
            << budget;
      }
    }
  }
}

TEST(X2DispatchTest, ParseAndNameRoundTrip) {
  X2Dispatch dispatch = X2Dispatch::kAuto;
  EXPECT_TRUE(ParseX2Dispatch("scalar", &dispatch));
  EXPECT_EQ(dispatch, X2Dispatch::kScalar);
  EXPECT_TRUE(ParseX2Dispatch("simd", &dispatch));
  EXPECT_EQ(dispatch, X2Dispatch::kSimd);
  EXPECT_TRUE(ParseX2Dispatch("auto", &dispatch));
  EXPECT_EQ(dispatch, X2Dispatch::kAuto);
  EXPECT_FALSE(ParseX2Dispatch("avx512", &dispatch));
  EXPECT_STREQ(X2DispatchName(X2Dispatch::kScalar), "scalar");
  EXPECT_STREQ(X2DispatchName(X2Dispatch::kSimd), "simd");
  EXPECT_STREQ(X2DispatchName(X2Dispatch::kAuto), "auto");
}

TEST(X2DispatchTest, ContextResolvesDispatchAtBuildTime) {
  // Scalar contexts never report SIMD; SIMD contexts report it exactly
  // when the build/CPU support it (k >= 4 under auto).
  ChiSquareContext scalar(seq::MultinomialModel::Uniform(8),
                          X2Dispatch::kScalar);
  EXPECT_FALSE(scalar.x2_simd_active());
  ChiSquareContext simd(seq::MultinomialModel::Uniform(8),
                        X2Dispatch::kSimd);
  EXPECT_EQ(simd.x2_simd_active(), SimdAvailable());
  ChiSquareContext auto_small(seq::MultinomialModel::Uniform(2));
  EXPECT_FALSE(auto_small.x2_simd_active());  // k < 4 stays scalar.

  // The process default governs kAuto contexts; restore it afterwards.
  SetDefaultX2Dispatch(X2Dispatch::kScalar);
  ChiSquareContext pinned(seq::MultinomialModel::Uniform(8));
  EXPECT_FALSE(pinned.x2_simd_active());
  SetDefaultX2Dispatch(X2Dispatch::kAuto);
  ChiSquareContext unpinned(seq::MultinomialModel::Uniform(8));
  EXPECT_EQ(unpinned.x2_simd_active(), SimdAvailable());
}

}  // namespace
}  // namespace core
}  // namespace sigsub
