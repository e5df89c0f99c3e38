// Parallel MSS (core::MssShardScan + core::MergeShardResults) as it runs:
// engine::Engine sharding one record across its pool. A shard threshold
// of 1 shards every record the pool can split, so these tests cover the
// scan at every length.

#include "core/parallel.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "api/query.h"
#include "core/mss.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

/// The one-record corpus holding `s`, over the canonical alphabet of its
/// size.
engine::Corpus OneRecord(const seq::Sequence& s) {
  seq::Alphabet alphabet = seq::Alphabet::Canonical(s.alphabet_size());
  auto corpus = engine::Corpus::FromStrings({s.ToString(alphabet)},
                                            alphabet.characters());
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).value();
}

/// Uniform-model MSS over `s` on an engine of `threads` workers that
/// shards at any length.
Result<MssResult> ShardedMss(const seq::Sequence& s, int threads) {
  engine::Engine engine({.num_threads = threads,
                         .cache_capacity = 0,
                         .shard_min_sequence = 1});
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(OneRecord(s),
                                                {api::QuerySpec{}}));
  return MssResult{results[0].best(), results[0].stats()};
}

TEST(ParallelMssTest, ValidatesInput) {
  seq::Sequence s = seq::Sequence::FromSymbols(2, {0, 1, 1}).value();
  engine::Corpus corpus = OneRecord(s);
  engine::Engine engine({.num_threads = 4, .shard_min_sequence = 1});
  api::QuerySpec wrong_arity;
  wrong_arity.model = api::ModelSpec::Multinomial({0.2, 0.3, 0.5});
  auto status = engine.ExecuteQueries(corpus, {wrong_arity}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("field model.probs"), std::string::npos)
      << status.message();
  api::QuerySpec out_of_range;
  out_of_range.sequence_index = 1;
  status = engine.ExecuteQueries(corpus, {out_of_range}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("field seq"), std::string::npos)
      << status.message();
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<int64_t, int>> {};

TEST_P(ParallelEquivalence, MatchesSequentialValue) {
  auto [n, threads] = GetParam();
  seq::Rng rng(static_cast<uint64_t>(n * 3 + threads));
  for (int k : {2, 4}) {
    seq::Sequence s = seq::GenerateNull(k, n, rng);
    auto model = seq::MultinomialModel::Uniform(k);
    auto parallel = ShardedMss(s, threads);
    auto sequential = FindMss(s, model);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_TRUE(sequential.ok());
    EXPECT_X2_EQ(parallel->best.chi_square, sequential->best.chi_square)
        << "n=" << n << " k=" << k << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEquivalence,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 7, 100, 2000),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const ::testing::TestParamInfo<ParallelEquivalence::ParamType>&
           info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelMssTest, MoreThreadsThanStartPositions) {
  seq::Sequence s = seq::Sequence::FromSymbols(2, {1, 0, 1}).value();
  auto result = ShardedMss(s, 8);
  ASSERT_TRUE(result.ok());
  auto reference = FindMss(s, seq::MultinomialModel::Uniform(2));
  ASSERT_TRUE(reference.ok());
  EXPECT_X2_EQ(result->best.chi_square, reference->best.chi_square);
  EXPECT_EQ(result->stats.start_positions, 3);
}

TEST(ParallelMssTest, DefaultThreadCountWorks) {
  seq::Rng rng(9);
  seq::Sequence s = seq::GenerateNull(2, 5000, rng);
  auto parallel = ShardedMss(s, /*threads=*/0);
  auto sequential = FindMss(s, seq::MultinomialModel::Uniform(2));
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(sequential.ok());
  EXPECT_X2_EQ(parallel->best.chi_square, sequential->best.chi_square);
}

TEST(ParallelMssTest, StatsCoverAllStartPositions) {
  seq::Rng rng(10);
  seq::Sequence s = seq::GenerateNull(2, 1000, rng);
  auto result = ShardedMss(s, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.start_positions, 1000);
  EXPECT_EQ(result->stats.positions_examined +
                result->stats.positions_skipped,
            TrivialScanPositions(1000));
}

TEST(ParallelMssTest, OneShardIsTheSequentialScan) {
  // core/parallel.h: with one shard, MssShardScan is the sequential
  // FindMss scan, statistics included.
  seq::Rng rng(12);
  seq::Sequence s = seq::GenerateNull(4, 3000, rng);
  seq::PrefixCounts counts(s);
  ChiSquareContext context(seq::MultinomialModel::Uniform(4));
  AtomicMax shared_best;
  MssResult shard = MssShardScan(counts, context, 0, 1, &shared_best);
  MssResult sequential = FindMss(counts, context);
  EXPECT_EQ(shard.best.chi_square, sequential.best.chi_square);
  EXPECT_EQ(shard.best.start, sequential.best.start);
  EXPECT_EQ(shard.best.end, sequential.best.end);
  EXPECT_EQ(shard.stats.start_positions, sequential.stats.start_positions);
  EXPECT_EQ(shard.stats.positions_examined,
            sequential.stats.positions_examined);
  EXPECT_EQ(shard.stats.positions_skipped,
            sequential.stats.positions_skipped);
  EXPECT_EQ(shard.stats.skip_events, sequential.stats.skip_events);
}

TEST(ParallelMssTest, PlantedAnomalyFoundByEveryThreadCount) {
  seq::Rng rng(11);
  auto s = seq::GenerateRegimes(
      2, {{3000, {0.5, 0.5}}, {200, {0.9, 0.1}}, {3000, {0.5, 0.5}}}, rng);
  ASSERT_TRUE(s.ok());
  for (int threads : {1, 2, 5}) {
    auto result = ShardedMss(s.value(), threads);
    ASSERT_TRUE(result.ok());
    int64_t overlap = std::min<int64_t>(result->best.end, 3200) -
                      std::max<int64_t>(result->best.start, 3000);
    EXPECT_GT(overlap, 150) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
