#include "core/mss.h"

#include "common/check.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {

MssResult FindMssInRange(const seq::PrefixCounts& counts,
                         const ChiSquareContext& context, int64_t range_start,
                         int64_t range_end, int64_t min_length) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(range_start >= 0 && range_end <= counts.sequence_size());
  SIGSUB_CHECK(min_length >= 1);

  // Paper Algorithm 1: outer loop over start positions (the paper goes
  // i = n..1; direction does not affect correctness or the analysis), inner
  // loop over ending positions with chain-cover skips against the best X²
  // so far.
  MssResult result;
  BestSoFarCollector collector(Substring{range_start, range_start, 0.0});
  ChainCoverScan(counts, context,
                 {.first_start = range_end - min_length,
                  .last_start = range_start,
                  .min_length = min_length,
                  .range_end = range_end},
                 &collector, &result.stats);
  result.best = collector.best();
  return result;
}

MssResult FindMss(const seq::PrefixCounts& counts,
                  const ChiSquareContext& context) {
  return FindMssInRange(counts, context, 0, counts.sequence_size(),
                        /*min_length=*/1);
}

Result<MssResult> FindMss(const seq::Sequence& sequence,
                          const seq::MultinomialModel& model) {
  SIGSUB_RETURN_IF_ERROR(ValidateScanInput(sequence, model));
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMss(counts, context);
}

}  // namespace core
}  // namespace sigsub
