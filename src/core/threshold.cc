#include "core/threshold.h"

#include "common/check.h"
#include "common/str_util.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {
namespace {

/// Collects every substring with X² > alpha0 into a ThresholdResult: the
/// first max_matches in scan order, the exact count and the best match.
/// The budget stays fixed at alpha0 (paper Algorithm 3). On a match the
/// skip solver returns 0 and the scan advances by one, the paper's
/// max(..., 1).
class ThresholdCollector {
 public:
  ThresholdCollector(double alpha0, int64_t max_matches,
                     ThresholdResult* result)
      : alpha0_(alpha0), max_matches_(max_matches), result_(result) {}

  bool Offer(const Substring& candidate) {
    if (!(candidate.chi_square > alpha0_)) return false;
    if (result_->match_count == 0 ||
        candidate.chi_square > result_->best.chi_square) {
      result_->best = candidate;
    }
    ++result_->match_count;
    if (static_cast<int64_t>(result_->matches.size()) < max_matches_) {
      result_->matches.push_back(candidate);
    }
    return true;
  }
  double budget() const { return alpha0_; }

 private:
  double alpha0_;
  int64_t max_matches_;
  ThresholdResult* result_;
};

}  // namespace

ThresholdResult FindAboveThreshold(const seq::PrefixCounts& counts,
                                   const ChiSquareContext& context,
                                   double alpha0, ThresholdOptions options) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(options.max_matches >= 0);
  const int64_t n = counts.sequence_size();
  ThresholdResult result;
  ThresholdCollector collector(alpha0, options.max_matches, &result);
  ChainCoverScan(counts, context,
                 {.first_start = n - 1, .last_start = 0, .range_end = n},
                 &collector, &result.stats);
  return result;
}

Result<ThresholdResult> FindAboveThreshold(const seq::Sequence& sequence,
                                           const seq::MultinomialModel& model,
                                           double alpha0,
                                           ThresholdOptions options) {
  SIGSUB_RETURN_IF_ERROR(ValidateScanInput(sequence, model));
  if (options.max_matches < 0) {
    return Status::InvalidArgument(
        StrCat("max_matches must be >= 0, got ", options.max_matches));
  }
  if (alpha0 < 0.0) {
    return Status::InvalidArgument(
        StrCat("alpha0 must be >= 0 (X² is non-negative), got ", alpha0));
  }
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindAboveThreshold(counts, context, alpha0, options);
}

}  // namespace core
}  // namespace sigsub
