#ifndef SIGSUB_CORE_CHAIN_COVER_H_
#define SIGSUB_CORE_CHAIN_COVER_H_

#include <cstdint>
#include <span>

#include "core/chi_square.h"

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
/// the ablation bench; unsound in degenerate corners (see DESIGN.md), so
/// not used by the production scans.
int64_t PaperSingleCharacterSkip(const ChiSquareContext& context,
                                 std::span<const int64_t> counts, int64_t l,
                                 double x2_l, double budget);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_CHAIN_COVER_H_
