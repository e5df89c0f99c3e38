// Pins the paper's instrumentation (Fig. 1: ending positions examined, and
// skip events) for the five chain-cover scanners on fixed seeds. The skip
// solver may get faster, but its skips must stay exactly as long, so these
// counts must not move. The expected values were captured from the
// all-characters solver that the probability-class solver replaced.

#include <string>

#include "core/length_bounded.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/threshold.h"
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
  int64_t skip_events;
};

// Records are 2048 symbols drawn from the scoring model itself.
constexpr PinnedScan kPinnedScans[] = {
    {"uniform4", 1601, "FindMss", 82295, 82187},
    {"uniform4", 1601, "FindTopT", 95235, 94599},
    {"uniform4", 1601, "FindAboveThreshold", 138445, 126244},
    {"uniform4", 1601, "FindMssMinLength", 73684, 73444},
    {"uniform4", 1601, "FindMssLengthBounded", 34687, 34561},
    {"uniform4", 1602, "FindMss", 74425, 74336},
    {"uniform4", 1602, "FindTopT", 89989, 89468},
    {"uniform4", 1602, "FindAboveThreshold", 106887, 105385},
    {"uniform4", 1602, "FindMssMinLength", 69821, 69673},
    {"uniform4", 1602, "FindMssLengthBounded", 32098, 32001},
    {"geometric4", 1611, "FindMss", 68816, 68761},
    {"geometric4", 1611, "FindTopT", 100844, 100210},
    {"geometric4", 1611, "FindAboveThreshold", 104622, 104293},
    {"geometric4", 1611, "FindMssMinLength", 91898, 91635},
    {"geometric4", 1611, "FindMssLengthBounded", 41049, 40892},
    {"geometric4", 1612, "FindMss", 80658, 80405},
    {"geometric4", 1612, "FindTopT", 94916, 94119},
    {"geometric4", 1612, "FindAboveThreshold", 94728, 94415},
    {"geometric4", 1612, "FindMssMinLength", 93545, 92893},
    {"geometric4", 1612, "FindMssLengthBounded", 39139, 39046},
    {"repeated4", 1621, "FindMss", 51160, 51130},
    {"repeated4", 1621, "FindTopT", 63316, 63019},
    {"repeated4", 1621, "FindAboveThreshold", 78405, 77998},
    {"repeated4", 1621, "FindMssMinLength", 73005, 72730},
    {"repeated4", 1621, "FindMssLengthBounded", 25097, 25051},
    {"repeated4", 1622, "FindMss", 66643, 66580},
    {"repeated4", 1622, "FindTopT", 76475, 75957},
    {"repeated4", 1622, "FindAboveThreshold", 81295, 81059},
    {"repeated4", 1622, "FindMssMinLength", 62727, 62593},
    {"repeated4", 1622, "FindMssLengthBounded", 30745, 30660},
};

seq::MultinomialModel ModelNamed(const std::string& name) {
  if (name == "uniform4") return seq::MultinomialModel::Uniform(4);
  if (name == "geometric4") return seq::MultinomialModel::Geometric(4);
  return seq::MultinomialModel::Make({0.4, 0.2, 0.2, 0.2}).value();
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
    seq::Rng rng(pinned.seed);
    seq::Sequence s =
        seq::GenerateMultinomial(ModelNamed(pinned.model), 2048, rng);
    ASSERT_OK_AND_ASSIGN(ScanStats stats,
                         RunScan(pinned.scan, pinned.model, s));
    EXPECT_EQ(stats.positions_examined, pinned.positions_examined);
    EXPECT_EQ(stats.skip_events, pinned.skip_events);
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
