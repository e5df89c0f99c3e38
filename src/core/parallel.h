#ifndef SIGSUB_CORE_PARALLEL_H_
#define SIGSUB_CORE_PARALLEL_H_

#include <cstdint>
#include <span>

#include "core/atomic_max.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/prefix_counts.h"

namespace sigsub {
namespace core {

/// Parallel MSS (Problem 1) is the composition of these two functions;
/// engine::Engine schedules the shards of one oversized record across its
/// ThreadPool and merges them.
///
/// One strided shard of the parallel scan: start positions
/// n-1-shard, n-1-shard-num_shards, ... with the chain-cover skip bound
/// read from (and published to) `shared_best`, so a discovery by any
/// shard immediately widens every shard's skips. Exact: a substring is
/// only ever skipped when its cover bound is at most the shared maximum
/// at that instant, which never exceeds the final maximum. Pure apart
/// from `shared_best`; shards of one scan may run concurrently in any
/// order. With num_shards == 1 this is the sequential FindMss scan.
MssResult MssShardScan(const seq::PrefixCounts& counts,
                       const ChiSquareContext& context, int shard,
                       int num_shards, AtomicMax* shared_best);

/// Folds per-shard results into the scan result: the highest-X² witness
/// (first shard wins ties) and summed ScanStats. The X² value equals the
/// sequential algorithm's; when several substrings tie at the maximum,
/// which one is reported may vary across runs (thread interleaving picks
/// the witness).
MssResult MergeShardResults(std::span<const MssResult> shards);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_PARALLEL_H_
