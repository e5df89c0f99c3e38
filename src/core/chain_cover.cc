#include "core/chain_cover.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace sigsub {
namespace core {
namespace {

/// Evaluates the per-character cover quadratic
///   q(x) = (1 − p_c)x² + (2Y_c − 2lp_c − p_c·B)x + (X²_l − B)·l·p_c
/// in long double, used to verify integer skip candidates exactly enough
/// that floating-point error can only cost skip length, never correctness.
long double CoverQuadraticAt(int64_t y_c, double p_c, int64_t l, double x2_l,
                             double budget, int64_t x) {
  long double a = 1.0L - static_cast<long double>(p_c);
  long double b = 2.0L * static_cast<long double>(y_c) -
                  2.0L * static_cast<long double>(l) * p_c -
                  static_cast<long double>(p_c) * budget;
  long double c = (static_cast<long double>(x2_l) - budget) *
                  static_cast<long double>(l) * p_c;
  long double lx = static_cast<long double>(x);
  return (a * lx + b) * lx + c;
}

}  // namespace

double CoverChiSquare(double x2_l, int64_t l, int64_t y_c, double p_c,
                      double x) {
  SIGSUB_DCHECK(l >= 1);
  SIGSUB_DCHECK(x >= 0.0);
  double dl = static_cast<double>(l);
  double y = static_cast<double>(y_c);
  return dl * (x2_l + dl) / (dl + x) + (2.0 * x * y + x * x) / ((dl + x) * p_c) -
         (dl + x);
}

double SkipSolver::CharacterRoot(int64_t y_c, double p_c, int64_t l,
                                 double x2_l, double budget) const {
  double a = 1.0 - p_c;
  double b = 2.0 * static_cast<double>(y_c) -
             2.0 * static_cast<double>(l) * p_c - p_c * budget;
  double c = (x2_l - budget) * static_cast<double>(l) * p_c;
  if (c > 0.0) return 0.0;  // X²_l already above budget: no safe extension.
  double disc = b * b - 4.0 * a * c;
  double sq = std::sqrt(disc);
  // Positive root of an upward parabola with q(0) = c <= 0, from the
  // cancellation-free form: (−b + sq)/(2a) for b <= 0, −2c/(b + sq) for
  // b > 0. Selecting the operands rather than branching keeps the sign of
  // b, which varies from call to call in a scan, off the branch predictor.
  bool low = b <= 0.0;
  double numerator = low ? -b + sq : -2.0 * c;
  double denominator = low ? 2.0 * a : b + sq;
  return numerator / denominator;
}

namespace {

/// Shared core of the MaxSafeExtension overloads. `count_at(c)` yields
/// Y_c however the caller stores it (materialized span or two prefix
/// blocks); the skip logic is identical, so all overloads return identical
/// results for identical counts.
///
/// The skip is defined over all k characters: m = floor(min_c root_c),
/// then decremented while any character's long-double check q_c(m) > 0
/// fails. We compute the same m from one root and one check per
/// probability class (ChiSquareContext::class_probs), using the class's
/// largest count Y_max. Within a class p_c, l, X²_l and B are shared, and
/// only b = 2Y_c − 2lp_c − p_c·B varies, increasing with Y_c.
///
///  * Checks. Correctly rounded IEEE operations are monotone, so the
///    computed b, then (a·m + b)·m + c, are non-decreasing in Y_c: the
///    computed q_c(m) <= q_max(m). Checking the class maximum therefore
///    decides the check for the whole class, and the decrement loop stops
///    at the same m as the per-character loop.
///  * Roots. Within each branch of CharacterRoot the same monotonicity
///    makes the computed root non-increasing in b (for b <= 0, −b and b²
///    shrink as b grows; for b > 0, b + sqrt(b² − 4ac) grows). Neither
///    branch cancels (−b, b and sqrt are all >= 0 where they are added),
///    so each computed root is within a few ulps of the exact root of the
///    quadratic with the computed a, b and c, and a and c are shared by
///    the class. Where a class straddles the switch at b = 0, its counts
///    differ by at least 1, and near b = 0 the final subtraction of p_c·B
///    is exact (Sterbenz), so b moves by 2 or more and the exact root by a
///    relative 2/sqrt(b² − 4ac) or more: far above those ulps while
///    (B − X²_l)·l·p_c < 2^96, i.e. for any budget below 2^65 at
///    l < 2^31. So the class maximum's computed root is the smallest in
///    its class, and the min over classes equals the min over characters.
///    Beyond that range only bit-identity to the per-character rule is at
///    stake, not soundness: any m that passes every class's check is a
///    safe skip.
///
/// Under a uniform null (one class) this is 1 sqrt, 1 divide and 1 check
/// per call instead of k; an all-distinct model (k singleton classes) does
/// the per-character work.
template <typename CountAt>
int64_t MaxSafeExtensionImpl(const SkipSolver& solver,
                             const ChiSquareContext& context,
                             const CountAt& count_at, int64_t l, double x2_l,
                             double budget) {
  SIGSUB_DCHECK(l >= 1);
  if (x2_l > budget) return 0;

  std::span<const double> class_probs = context.class_probs();
  std::span<const uint8_t> members = context.class_members();
  std::span<const uint8_t> offsets = context.class_offsets();
  auto class_max = [&](size_t g) {
    size_t member = offsets[g];
    int64_t y_max = count_at(members[member]);
    for (++member; member < offsets[g + 1]; ++member) {
      y_max = std::max(y_max, count_at(members[member]));
    }
    return y_max;
  };
  double min_root = std::numeric_limits<double>::infinity();
  for (size_t g = 0; g < class_probs.size(); ++g) {
    double root =
        solver.CharacterRoot(class_max(g), class_probs[g], l, x2_l, budget);
    if (root < min_root) min_root = root;
  }
  if (!(min_root >= 1.0)) return 0;
  // The cast truncates, which is the floor here; the cap guards against
  // overflow.
  int64_t m = static_cast<int64_t>(std::min(min_root, 9.0e18));

  // Verify the integer candidate against every class's quadratic in
  // extended precision; floating-point error in the root can otherwise
  // overshoot by one position. Each decrement is at most a rounding step,
  // so this loop runs O(1) times in practice.
  for (size_t g = 0; g < class_probs.size() && m > 0;) {
    if (CoverQuadraticAt(class_max(g), class_probs[g], l, x2_l, budget, m) >
        0.0L) {
      --m;
      g = 0;  // Re-verify all classes at the smaller candidate.
      continue;
    }
    ++g;
  }
  return m;
}

}  // namespace

int64_t SkipSolver::MaxSafeExtension(std::span<const int64_t> counts,
                                     int64_t l, double x2_l,
                                     double budget) const {
  SIGSUB_DCHECK(counts.size() == context_->probs().size());
  return MaxSafeExtensionImpl(
      *this, *context_, [&](size_t c) { return counts[c]; }, l, x2_l,
      budget);
}

int64_t SkipSolver::MaxSafeExtension(const int64_t* start_block,
                                     const int64_t* end_block, int64_t l,
                                     double x2_l, double budget) const {
  return MaxSafeExtensionImpl(
      *this, *context_,
      [&](size_t c) { return end_block[c] - start_block[c]; }, l, x2_l,
      budget);
}

int64_t PaperSingleCharacterSkip(const ChiSquareContext& context,
                                 std::span<const int64_t> counts, int64_t l,
                                 double x2_l, double budget) {
  std::span<const double> probs = context.probs();
  SIGSUB_DCHECK(counts.size() == probs.size());
  // Paper line 9: t = argmax (2Y_m + x)/p_m. With x unknown at selection
  // time we follow the common reading x ~ 0, i.e. argmax Y_m/p_m (the
  // Lemma 2 character).
  size_t t = 0;
  double best_score = -1.0;
  for (size_t c = 0; c < probs.size(); ++c) {
    double score = static_cast<double>(counts[c]) / probs[c];
    if (score > best_score) {
      best_score = score;
      t = c;
    }
  }
  SkipSolver solver(context);
  double root = solver.CharacterRoot(counts[t], probs[t], l, x2_l, budget);
  // Paper line 13-14: x = ceil(root), increment l by x => x − 1 unchecked
  // positions are skipped.
  int64_t x = static_cast<int64_t>(std::ceil(root));
  return x > 0 ? x - 1 : 0;
}

}  // namespace core
}  // namespace sigsub
