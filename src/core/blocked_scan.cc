#include "core/blocked_scan.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/str_util.h"
#include "core/chain_cover.h"
#include "core/x2_kernel.h"

namespace sigsub {
namespace core {

MssResult FindMssBlocked(const seq::Sequence& sequence,
                         const seq::PrefixCounts& counts,
                         const ChiSquareContext& context,
                         int64_t block_size) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  SIGSUB_CHECK(sequence.size() == counts.sequence_size());
  SIGSUB_CHECK(block_size >= 1);
  const int64_t n = sequence.size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  SkipSolver solver(context);
  X2Kernel kernel(context);
  const int k = context.alphabet_size();
  bool found = false;

  for (int64_t i = n - 1; i >= 0; --i) {
    ++result.stats.start_positions;
    const int64_t* lo = counts.BlockAt(i);
    int64_t end = i + 1;
    while (end <= n) {
      // Examine the block's first ending position.
      const int64_t* hi = counts.BlockAt(end);
      int64_t l = end - i;
      double x2 = kernel.EvaluateBlocks(lo, hi, l);
      ++result.stats.positions_examined;
      if (x2 > result.best.chi_square || !found) {
        found = true;
        result.best = Substring{i, end, x2};
      }
      int64_t block_last = std::min(end + block_size - 1, n);
      int64_t m = block_last - end;  // Remaining ends inside the block.
      if (m > 0) {
        int64_t safe =
            solver.MaxSafeExtension(lo, hi, l, x2, result.best.chi_square);
        if (safe >= m) {
          // Whole block is dominated: skip it (block granularity only).
          ++result.stats.skip_events;
          result.stats.positions_skipped += m;
        } else {
          // Evaluate the rest of the block, streaming consecutive
          // endpoint blocks (each k entries after the previous) against
          // the pinned start block.
          for (int64_t e = end + 1; e <= block_last; ++e) {
            hi += k;
            double x2e = kernel.EvaluateBlocks(lo, hi, e - i);
            ++result.stats.positions_examined;
            if (x2e > result.best.chi_square) {
              result.best = Substring{i, e, x2e};
            }
          }
        }
      }
      end = block_last + 1;
    }
  }
  return result;
}

Result<MssResult> FindMssBlocked(const seq::Sequence& sequence,
                                 const seq::MultinomialModel& model,
                                 int64_t block_size) {
  SIGSUB_RETURN_IF_ERROR(ValidateScanInput(sequence, model));
  if (block_size < 1) {
    return Status::InvalidArgument(
        StrCat("block_size must be >= 1, got ", block_size));
  }
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMssBlocked(sequence, counts, context, block_size);
}

}  // namespace core
}  // namespace sigsub
