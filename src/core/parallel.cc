#include "core/parallel.h"

#include <algorithm>

#include "common/check.h"
#include "core/chain_cover.h"
#include "core/x2_kernel.h"

namespace sigsub {
namespace core {

MssResult MssShardScan(const seq::PrefixCounts& counts,
                       const ChiSquareContext& context, int shard,
                       int num_shards, AtomicMax* shared_best) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(shard >= 0 && shard < num_shards);
  const int64_t n = counts.sequence_size();
  MssResult local;
  local.best = Substring{0, 0, 0.0};
  SkipSolver solver(context);
  X2Kernel kernel(context);
  bool found = false;
  for (int64_t i = n - 1 - shard; i >= 0; i -= num_shards) {
    ++local.stats.start_positions;
    const int64_t* lo = counts.BlockAt(i);
    int64_t end = i + 1;
    while (end <= n) {
      const int64_t* hi = counts.BlockAt(end);
      int64_t l = end - i;
      double x2 = kernel.EvaluateBlocks(lo, hi, l);
      ++local.stats.positions_examined;
      if (x2 > local.best.chi_square || !found) {
        found = true;
        local.best = Substring{i, end, x2};
        shared_best->Update(x2);
      }
      int64_t skip =
          solver.MaxSafeExtension(lo, hi, l, x2, shared_best->load());
      if (skip > 0) {
        ++local.stats.skip_events;
        int64_t last_skipped = std::min(end + skip, n);
        if (last_skipped > end) {
          local.stats.positions_skipped += last_skipped - end;
        }
      }
      end += skip + 1;
    }
  }
  return local;
}

MssResult MergeShardResults(std::span<const MssResult> shards) {
  SIGSUB_CHECK(!shards.empty());
  MssResult result = shards[0];
  for (size_t s = 1; s < shards.size(); ++s) {
    if (shards[s].best.chi_square > result.best.chi_square) {
      result.best = shards[s].best;
    }
    result.stats.Merge(shards[s].stats);
  }
  return result;
}

}  // namespace core
}  // namespace sigsub
