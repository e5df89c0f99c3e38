#ifndef SIGSUB_CORE_CHAIN_COVER_H_
#define SIGSUB_CORE_CHAIN_COVER_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/chi_square.h"
#include "core/scan_types.h"
#include "core/x2_kernel.h"
#include "seq/prefix_counts.h"

namespace sigsub {
namespace core {

/// The chain-cover machinery of the paper (Definition 1, Lemmas 1-2,
/// Theorem 1). For a substring S with count vector {Y_c}, length l and
/// statistic X²_l, the cover string λ(S, c, x) appends x copies of symbol c;
/// its statistic is
///
///   X²_λ(c, x) = l(X²_l + l)/(l + x) + (2xY_c + x²)/((l + x)p_c) − (l + x)
///
/// (paper Eq. 19). Theorem 1: the X² of ANY extension of S by at most x
/// characters is bounded by max_c X²_λ(c, x). Requiring that bound to stay
/// <= a budget B yields, per character, the quadratic constraint
///
///   (1 − p_c)·x² + (2Y_c − 2lp_c − p_c·B)·x + (X²_l − B)·l·p_c <= 0
///
/// (paper Eq. 21), whose largest feasible integer x, minimized over c, is
/// the number of ending positions the scan may skip without ever missing a
/// substring scoring above B.
///
/// Note on the paper's pseudocode: Algorithm 1 line 9 selects the cover
/// character as argmax_c (2Y_c + x)/p_c with x not yet known (the argmax can
/// depend on x when P is skewed). We implement the exact fixed point
/// instead: the binding character is the one with the smallest root, so we
/// take the min over all k roots. Characters with bit-equal p_c form a
/// probability class (ChiSquareContext::class_probs), and within a class the
/// root shrinks as Y_c grows, so only the class's largest count can bind:
/// the solver takes one root and one check per class, the min over the
/// classes equals the min over all k characters, and a uniform null costs
/// one root instead of k. See chain_cover.cc.

/// X² of the chain cover λ(S, c, x) given the base substring's statistic.
/// `x` may be fractional (used by tests to probe the bound's continuity).
double CoverChiSquare(double x2_l, int64_t l, int64_t y_c, double p_c,
                      double x);

/// Computes safe skip lengths. Stateless except for the model view; cheap
/// to copy.
class SkipSolver {
 public:
  explicit SkipSolver(const ChiSquareContext& context) : context_(&context) {}

  /// Largest integer m >= 0 such that every extension of the current
  /// substring (counts, l, X²_l) by 1..m characters has X² <= budget.
  /// Callers may then jump the scan's next examined ending position forward
  /// by m (examining position l + m + 1 next).
  ///
  /// Requires l >= 1. If X²_l > budget the result is 0 (paper Algorithm 3's
  /// `max(..., 1)` advance corresponds to skip 0 here).
  int64_t MaxSafeExtension(std::span<const int64_t> counts, int64_t l,
                           double x2_l, double budget) const;

  /// Fused form: reads Y_c = end_block[c] − start_block[c] straight from
  /// two position-major PrefixCounts blocks (seq::PrefixCounts::BlockAt),
  /// so scanners need no materialized count vector. Identical results to
  /// the span overload for identical counts. (The 2-D scan instead gathers
  /// its rectangle counts once via X2Kernel::EvaluateRect's counts_out and
  /// uses the span overload — a rect gather is 4 plane lookups per symbol,
  /// too expensive to repeat per consumer.)
  int64_t MaxSafeExtension(const int64_t* start_block,
                           const int64_t* end_block, int64_t l, double x2_l,
                           double budget) const;

  /// The root of the per-character quadratic for symbol c: the (real)
  /// largest x with the cover constraint satisfied for this character.
  /// Exposed for tests and the ablation bench.
  double CharacterRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                       double budget) const;

 private:
  const ChiSquareContext* context_;
};

/// The paper's literal skip rule (Algorithm 1 lines 9-13): pick the single
/// character t maximizing (2Y_t + x)/p_t with x approximated by the previous
/// skip (we use x = 0, i.e. argmax Y_t/p_t biased by the cover), solve only
/// that character's quadratic, and take the ceiling of the root. Kept for
/// the ablation bench. Not used by the production scans: under a skewed P
/// the argmax character need not be the binding one (its root need not be
/// the smallest), so the skip can overshoot and miss the optimum.
int64_t PaperSingleCharacterSkip(const ChiSquareContext& context,
                                 std::span<const int64_t> counts, int64_t l,
                                 double x2_l, double budget);

/// The rows of one chain-cover scan: start rows first_start,
/// first_start − stride, ... down to last_start (inclusive), and in row i
/// the ends i + min_length .. min(range_end, i + max_length).
struct ScanRows {
  int64_t first_start = 0;
  int64_t last_start = 0;
  int64_t stride = 1;
  int64_t min_length = 1;
  int64_t max_length = INT64_MAX;
  int64_t range_end = 0;
};

/// The chain-cover row loop of paper Algorithms 1-3, the one loop behind
/// FindMssInRange (hence FindMss, FindMssMinLength and FindTopDisjoint),
/// FindMssLengthBounded, FindTopT, FindAboveThreshold and MssShardScan.
/// Each row pins its start block; each examined end is one fused X²
/// evaluation, offered to the collector, after which the scan jumps over
/// every end that the chain-cover bound proves cannot beat
/// collector->budget(). The budget is read after the offer, so an
/// insertion tightens the skip at once.
///
/// The scans differ only in their collector, which must provide
///   bool Offer(const Substring& candidate);  // true if kept
///   double budget() const;  // the X² a later substring must beat
/// (TopTCollector is the model). It is a template parameter, not a
/// virtual interface, so both calls inline into the hot loop.
///
/// Adds the scan's counters to *stats. positions_skipped counts only ends
/// inside the row, so a skip past the row's last end is clamped there.
template <typename Collector>
void ChainCoverScan(const seq::PrefixCounts& counts,
                    const ChiSquareContext& context, const ScanRows& rows,
                    Collector* collector, ScanStats* stats) {
  SkipSolver solver(context);
  X2Kernel kernel(context);
  ScanStats local;  // Kept off *stats so the counters stay in registers.
  for (int64_t i = rows.first_start; i >= rows.last_start; i -= rows.stride) {
    ++local.start_positions;
    const int64_t* lo = counts.BlockAt(i);
    const int64_t row_end = i + std::min(rows.max_length, rows.range_end - i);
    int64_t end = i + rows.min_length;
    while (end <= row_end) {
      const int64_t* hi = counts.BlockAt(end);
      const int64_t l = end - i;
      const double x2 = kernel.EvaluateBlocks(lo, hi, l);
      ++local.positions_examined;
      collector->Offer(Substring{i, end, x2});
      const int64_t skip =
          solver.MaxSafeExtension(lo, hi, l, x2, collector->budget());
      if (skip > 0) {
        ++local.skip_events;
        local.positions_skipped += std::min(skip, row_end - end);
      }
      end += skip + 1;
    }
  }
  stats->Merge(local);
}

/// Collector for the best-so-far scans (MSS, minimum length, length
/// bounded; paper Algorithm 1): keeps the highest-X² substring, the first
/// offered winning ties, and skips against its X².
class BestSoFarCollector {
 public:
  /// best() returns `empty` until something is offered.
  explicit BestSoFarCollector(Substring empty) : best_(empty) {}

  bool Offer(const Substring& candidate) {
    if (found_ && !(candidate.chi_square > best_.chi_square)) return false;
    best_ = candidate;
    found_ = true;
    return true;
  }
  double budget() const { return best_.chi_square; }
  const Substring& best() const { return best_; }

 private:
  Substring best_;
  bool found_ = false;
};

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_CHAIN_COVER_H_
