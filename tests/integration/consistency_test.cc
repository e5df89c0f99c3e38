// Randomized cross-variant consistency battery: for seeded random inputs
// spanning regime-switching strings and skewed models, every algorithm
// variant in the library must tell the same story about the same string.
// Also checks metamorphic invariances of the statistic (reversal, symbol
// relabeling) end-to-end through the scans.

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "sigsub.h"
#include "testing/test_util.h"

namespace sigsub {
namespace {

struct RandomCase {
  seq::Sequence sequence;
  seq::MultinomialModel model;
};

// Builds a deterministic "anything goes" instance: 1-4 regimes, k in 2..5,
// and a scoring model that may differ from the generator.
RandomCase MakeRandomCase(uint64_t seed) {
  seq::Rng rng(seed);
  int k = 2 + static_cast<int>(rng.NextBounded(4));
  int regime_count = 1 + static_cast<int>(rng.NextBounded(4));
  std::vector<seq::Regime> regimes;
  for (int i = 0; i < regime_count; ++i) {
    seq::Regime regime;
    regime.length = 20 + static_cast<int64_t>(rng.NextBounded(300));
    std::vector<double> probs(k);
    double total = 0.0;
    for (int c = 0; c < k; ++c) {
      probs[c] = 0.05 + rng.NextDouble();
      total += probs[c];
    }
    for (double& p : probs) p /= total;
    regime.probs = probs;
    regimes.push_back(std::move(regime));
  }
  auto sequence = seq::GenerateRegimes(k, regimes, rng);
  SIGSUB_CHECK(sequence.ok());
  // Scoring model: uniform half the time, random otherwise.
  if (rng.NextBernoulli(0.5)) {
    return RandomCase{std::move(sequence).value(),
                      seq::MultinomialModel::Uniform(k)};
  }
  std::vector<double> probs(k);
  double total = 0.0;
  for (int c = 0; c < k; ++c) {
    probs[c] = 0.05 + rng.NextDouble();
    total += probs[c];
  }
  for (double& p : probs) p /= total;
  return RandomCase{std::move(sequence).value(),
                    seq::MultinomialModel::Make(std::move(probs)).value()};
}

class ConsistencyFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConsistencyFuzz, AllVariantsAgree) {
  RandomCase c = MakeRandomCase(GetParam());
  const seq::Sequence& s = c.sequence;
  const seq::MultinomialModel& model = c.model;

  auto exact = core::NaiveFindMss(s, model);
  ASSERT_TRUE(exact.ok());
  const double optimum = exact->best.chi_square;

  auto fast = core::FindMss(s, model);
  ASSERT_TRUE(fast.ok());
  EXPECT_X2_EQ(fast->best.chi_square, optimum);

  // Parallel MSS: the engine sharding the record across three workers.
  const seq::Alphabet alphabet = seq::Alphabet::Canonical(s.alphabet_size());
  auto corpus = engine::Corpus::FromStrings({s.ToString(alphabet)},
                                            alphabet.characters());
  ASSERT_TRUE(corpus.ok());
  api::QuerySpec mss;
  mss.model = api::ModelSpec::Multinomial(
      std::vector<double>(model.probs().begin(), model.probs().end()));
  engine::Engine sharded({.num_threads = 3,
                          .cache_capacity = 0,
                          .shard_min_sequence = 1});
  auto parallel = sharded.ExecuteQueries(*corpus, {mss});
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_X2_EQ((*parallel)[0].best().chi_square, optimum);

  auto blocked = core::FindMssBlocked(s, model, 17);
  ASSERT_TRUE(blocked.ok());
  EXPECT_X2_EQ(blocked->best.chi_square, optimum);

  auto bounded = core::FindMssLengthBounded(s, model, 1, s.size());
  ASSERT_TRUE(bounded.ok());
  EXPECT_X2_EQ(bounded->best.chi_square, optimum);

  auto min_length = core::FindMssMinLength(s, model, 1);
  ASSERT_TRUE(min_length.ok());
  EXPECT_X2_EQ(min_length->best.chi_square, optimum);

  auto top = core::FindTopT(s, model, 3);
  ASSERT_TRUE(top.ok());
  ASSERT_FALSE(top->top.empty());
  EXPECT_X2_EQ(top->top[0].chi_square, optimum);

  // Heuristics are valid lower bounds.
  auto arlm = core::FindMssArlm(s, model);
  auto agmm = core::FindMssAgmm(s, model);
  ASSERT_TRUE(arlm.ok());
  ASSERT_TRUE(agmm.ok());
  EXPECT_LE(arlm->best.chi_square, optimum + 1e-7 * (1.0 + optimum));
  EXPECT_LE(agmm->best.chi_square, optimum + 1e-7 * (1.0 + optimum));

  // The threshold scan just below the optimum must find it.
  double alpha0 = optimum * (1.0 - 1e-9) - 1e-9;
  if (alpha0 > 0.0) {
    auto above = core::FindAboveThreshold(s, model, alpha0);
    ASSERT_TRUE(above.ok());
    EXPECT_GE(above->match_count, 1);
    EXPECT_X2_EQ(above->best.chi_square, optimum);
  }
}

TEST_P(ConsistencyFuzz, ReversalInvariance) {
  // X² depends only on counts, so reversing the string preserves the
  // substring-score multiset — in particular the maximum.
  RandomCase c = MakeRandomCase(GetParam() ^ 0xabcdef);
  std::vector<uint8_t> reversed(c.sequence.symbols().begin(),
                                c.sequence.symbols().end());
  std::reverse(reversed.begin(), reversed.end());
  seq::Sequence r =
      seq::Sequence::FromSymbols(c.sequence.alphabet_size(), reversed)
          .value();
  auto forward = core::FindMss(c.sequence, c.model);
  auto backward = core::FindMss(r, c.model);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_X2_EQ(forward->best.chi_square, backward->best.chi_square);
  // The winning windows mirror each other (up to ties).
  EXPECT_EQ(forward->best.length(), backward->best.length());
}

TEST_P(ConsistencyFuzz, RelabelingInvarianceUnderUniformModel) {
  // Under a uniform model, permuting symbol identities cannot change any
  // substring's X².
  RandomCase c = MakeRandomCase(GetParam() ^ 0x123456);
  const int k = c.sequence.alphabet_size();
  auto uniform = seq::MultinomialModel::Uniform(k);
  std::vector<uint8_t> relabeled(c.sequence.symbols().begin(),
                                 c.sequence.symbols().end());
  for (auto& symbol : relabeled) {
    symbol = static_cast<uint8_t>((symbol + 1) % k);
  }
  seq::Sequence rotated = seq::Sequence::FromSymbols(k, relabeled).value();
  auto original = core::FindMss(c.sequence, uniform);
  auto permuted = core::FindMss(rotated, uniform);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(permuted.ok());
  EXPECT_X2_EQ(original->best.chi_square, permuted->best.chi_square);
  EXPECT_EQ(original->best.start, permuted->best.start);
  EXPECT_EQ(original->best.end, permuted->best.end);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyFuzz,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace sigsub
