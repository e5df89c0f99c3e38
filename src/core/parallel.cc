#include "core/parallel.h"

#include "common/check.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {
namespace {

/// The shard's own best-so-far, published to the scan-wide maximum on
/// every improvement; skips run against that shared maximum.
class SharedBestCollector {
 public:
  explicit SharedBestCollector(AtomicMax* shared_best)
      : shared_best_(shared_best) {}

  bool Offer(const Substring& candidate) {
    if (!local_.Offer(candidate)) return false;
    shared_best_->Update(candidate.chi_square);
    return true;
  }
  double budget() const { return shared_best_->load(); }
  const Substring& best() const { return local_.best(); }

 private:
  BestSoFarCollector local_{Substring{0, 0, 0.0}};
  AtomicMax* shared_best_;
};

}  // namespace

MssResult MssShardScan(const seq::PrefixCounts& counts,
                       const ChiSquareContext& context, int shard,
                       int num_shards, AtomicMax* shared_best) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(shard >= 0 && shard < num_shards);
  const int64_t n = counts.sequence_size();
  MssResult local;
  SharedBestCollector collector(shared_best);
  ChainCoverScan(counts, context,
                 {.first_start = n - 1 - shard,
                  .last_start = 0,
                  .stride = num_shards,
                  .range_end = n},
                 &collector, &local.stats);
  local.best = collector.best();
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
