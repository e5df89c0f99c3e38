// Pins the paper's instrumentation (Fig. 1: ending positions examined,
// start rows, skip events and skipped positions) for the five chain-cover
// scanners on fixed seeds. The skip solver and the row loop may get
// faster, but the skips must stay exactly as long, so these counts must
// not move. The examined and skip-event counts were captured from the
// all-characters solver that the probability-class solver replaced; the
// start-row and skipped-position counts, the disjoint top-t and the shard
// results from the five hand-written row loops that the shared
// ChainCoverScan template replaced.

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/atomic_max.h"
#include "core/length_bounded.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/parallel.h"
#include "core/threshold.h"
#include "core/top_disjoint.h"
#include "core/top_t.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

struct PinnedScan {
  const char* model;
  uint64_t seed;
  const char* scan;
  int64_t positions_examined;
  int64_t start_positions;
  int64_t skip_events;
  int64_t positions_skipped;
};

// Records are 2048 symbols drawn from the scoring model itself.
constexpr PinnedScan kPinnedScans[] = {
    {"uniform4", 1601, "FindMss", 82295, 2048, 82187, 2015881},
    {"uniform4", 1601, "FindTopT", 95235, 2048, 94599, 2002941},
    {"uniform4", 1601, "FindAboveThreshold", 138445, 2048, 126244, 1959731},
    {"uniform4", 1601, "FindMssMinLength", 73684, 1949, 73444, 1826591},
    {"uniform4", 1601, "FindMssLengthBounded", 34687, 2041, 34561, 442646},
    {"uniform4", 1602, "FindMss", 74425, 2048, 74336, 2023751},
    {"uniform4", 1602, "FindTopT", 89989, 2048, 89468, 2008187},
    {"uniform4", 1602, "FindAboveThreshold", 106887, 2048, 105385, 1991289},
    {"uniform4", 1602, "FindMssMinLength", 69821, 1949, 69673, 1830454},
    {"uniform4", 1602, "FindMssLengthBounded", 32098, 2041, 32001, 445235},
    {"geometric4", 1611, "FindMss", 68816, 2048, 68761, 2029360},
    {"geometric4", 1611, "FindTopT", 100844, 2048, 100210, 1997332},
    {"geometric4", 1611, "FindAboveThreshold", 104622, 2048, 104293, 1993554},
    {"geometric4", 1611, "FindMssMinLength", 91898, 1949, 91635, 1808377},
    {"geometric4", 1611, "FindMssLengthBounded", 41049, 2041, 40892, 436284},
    {"geometric4", 1612, "FindMss", 80658, 2048, 80405, 2017518},
    {"geometric4", 1612, "FindTopT", 94916, 2048, 94119, 2003260},
    {"geometric4", 1612, "FindAboveThreshold", 94728, 2048, 94415, 2003448},
    {"geometric4", 1612, "FindMssMinLength", 93545, 1949, 92893, 1806730},
    {"geometric4", 1612, "FindMssLengthBounded", 39139, 2041, 39046, 438194},
    {"repeated4", 1621, "FindMss", 51160, 2048, 51130, 2047016},
    {"repeated4", 1621, "FindTopT", 63316, 2048, 63019, 2034860},
    {"repeated4", 1621, "FindAboveThreshold", 78405, 2048, 77998, 2019771},
    {"repeated4", 1621, "FindMssMinLength", 73005, 1949, 72730, 1827270},
    {"repeated4", 1621, "FindMssLengthBounded", 25097, 2041, 25051, 452236},
    {"repeated4", 1622, "FindMss", 66643, 2048, 66580, 2031533},
    {"repeated4", 1622, "FindTopT", 76475, 2048, 75957, 2021701},
    {"repeated4", 1622, "FindAboveThreshold", 81295, 2048, 81059, 2016881},
    {"repeated4", 1622, "FindMssMinLength", 62727, 1949, 62593, 1837548},
    {"repeated4", 1622, "FindMssLengthBounded", 30745, 2041, 30660, 446588},
};

seq::MultinomialModel ModelNamed(const std::string& name) {
  if (name == "uniform4") return seq::MultinomialModel::Uniform(4);
  if (name == "geometric4") return seq::MultinomialModel::Geometric(4);
  return seq::MultinomialModel::Make({0.4, 0.2, 0.2, 0.2}).value();
}

seq::Sequence PinnedRecord(const std::string& model_name, uint64_t seed) {
  seq::Rng rng(seed);
  return seq::GenerateMultinomial(ModelNamed(model_name), 2048, rng);
}

Result<ScanStats> RunScan(const std::string& scan,
                          const std::string& model_name,
                          const seq::Sequence& s) {
  seq::MultinomialModel model = ModelNamed(model_name);
  if (scan == "FindMss") {
    SIGSUB_ASSIGN_OR_RETURN(MssResult r, FindMss(s, model));
    return r.stats;
  }
  if (scan == "FindTopT") {
    SIGSUB_ASSIGN_OR_RETURN(TopTResult r, FindTopT(s, model, 16));
    return r.stats;
  }
  if (scan == "FindAboveThreshold") {
    double alpha0 = 15.0;
    if (model_name == "uniform4") alpha0 = 12.0;
    if (model_name == "geometric4") alpha0 = 20.0;
    SIGSUB_ASSIGN_OR_RETURN(ThresholdResult r,
                            FindAboveThreshold(s, model, alpha0));
    return r.stats;
  }
  if (scan == "FindMssMinLength") {
    SIGSUB_ASSIGN_OR_RETURN(MssResult r, FindMssMinLength(s, model, 100));
    return r.stats;
  }
  SIGSUB_ASSIGN_OR_RETURN(MssResult r, FindMssLengthBounded(s, model, 8, 256));
  return r.stats;
}

TEST(SkipInstrumentationTest, ScanStatsMatchPinnedCounts) {
  for (const PinnedScan& pinned : kPinnedScans) {
    SCOPED_TRACE(std::string(pinned.model) + " seed " +
                 std::to_string(pinned.seed) + " " + pinned.scan);
    seq::Sequence s = PinnedRecord(pinned.model, pinned.seed);
    ASSERT_OK_AND_ASSIGN(ScanStats stats,
                         RunScan(pinned.scan, pinned.model, s));
    EXPECT_EQ(stats.positions_examined, pinned.positions_examined);
    EXPECT_EQ(stats.start_positions, pinned.start_positions);
    EXPECT_EQ(stats.skip_events, pinned.skip_events);
    EXPECT_EQ(stats.positions_skipped, pinned.positions_skipped);
  }
}

struct PinnedSubstring {
  int64_t start;
  int64_t end;
  uint64_t chi_square_bits;
};

// FindTopDisjoint runs FindMssInRange on the sub-ranges left between
// earlier picks, so this pins the restricted scan's row bounds.
TEST(SkipInstrumentationTest, TopDisjointMatchesPinnedSubstrings) {
  constexpr PinnedSubstring kPinned[] = {
    {1740, 1773, 0x403222e8ba2e8ba2ull},  // 18.136363636363633
    {1093, 1178, 0x402ebc3c3c3c3c40ull},  // 15.367647058823536
    {1339, 1383, 0x402e200000000000ull},  // 15.0625
    {1195, 1229, 0x402a14b4b4b4b4b4ull},  // 13.040441176470587
  };
  seq::Sequence s = PinnedRecord("geometric4", 1611);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Substring> top,
      FindTopDisjoint(s, ModelNamed("geometric4"),
                      {.t = 4, .min_length = 32}));
  ASSERT_EQ(top.size(), std::size(kPinned));
  for (size_t i = 0; i < top.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(top[i].start, kPinned[i].start);
    EXPECT_EQ(top[i].end, kPinned[i].end);
    EXPECT_EQ(std::bit_cast<uint64_t>(top[i].chi_square),
              kPinned[i].chi_square_bits);
  }
}

struct PinnedShard {
  PinnedSubstring best;
  int64_t positions_examined;
  int64_t start_positions;
  int64_t skip_events;
  int64_t positions_skipped;
};

// Three shards run one after another on one thread, sharing one
// AtomicMax: each later shard starts from the earlier shards' best, so
// its skips and its result are deterministic.
TEST(SkipInstrumentationTest, SequentialShardScansMatchPinnedResults) {
  constexpr PinnedShard kPinned[] = {
    {{343, 355, 0x4030aaaaaaaaaaabull}, 29690, 683, 29599, 669702},
    {{1323, 1333, 0x4031333333333333ull}, 27051, 683, 27045, 673024},
    {{671, 677, 0x4032000000000000ull}, 26322, 682, 26321, 672387},
  };
  seq::Sequence s = PinnedRecord("uniform4", 1601);
  seq::PrefixCounts counts(s);
  ChiSquareContext context(ModelNamed("uniform4"));
  AtomicMax shared_best;
  for (int shard = 0; shard < 3; ++shard) {
    SCOPED_TRACE(shard);
    MssResult r = MssShardScan(counts, context, shard, 3, &shared_best);
    const PinnedShard& pinned = kPinned[shard];
    EXPECT_EQ(r.best.start, pinned.best.start);
    EXPECT_EQ(r.best.end, pinned.best.end);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.best.chi_square),
              pinned.best.chi_square_bits);
    EXPECT_EQ(r.stats.positions_examined, pinned.positions_examined);
    EXPECT_EQ(r.stats.start_positions, pinned.start_positions);
    EXPECT_EQ(r.stats.skip_events, pinned.skip_events);
    EXPECT_EQ(r.stats.positions_skipped, pinned.positions_skipped);
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
