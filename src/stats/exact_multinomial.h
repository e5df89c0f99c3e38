#ifndef SIGSUB_STATS_EXACT_MULTINOMIAL_H_
#define SIGSUB_STATS_EXACT_MULTINOMIAL_H_

#include <cstdint>
#include <span>

#include "common/result.h"

namespace sigsub {
namespace stats {

/// Exact multinomial machinery for small strings. The paper (Eqs. 1-2)
/// defines the exact p-value as the total probability of all outcome
/// configurations at least as extreme as the observed one, where "extreme"
/// is ordered by the X² statistic. Enumerating all C(l+k-1, k-1)
/// configurations is exponential in general (which is precisely why the
/// paper adopts the asymptotic χ² approximation). No query path calls this
/// module: it is kept as the exact reference for that approximation, so
/// tests can check the direction and accuracy of the live p-value
/// (stats::ChiSquarePValue) in the small-(l, k) regime.

/// ln P(C = β) for a configuration β = {Y_1..Y_k}: l! Π p_i^{Y_i} / Y_i!
/// (paper Eq. 1).
double LogMultinomialProbability(std::span<const int64_t> counts,
                                 std::span<const double> probs);

/// Exact p-value: Σ over configurations β with X²(β) >= X²(observed) of
/// P(β). Enumerates all compositions of l into k parts; feasible roughly for
/// C(l+k-1, k-1) <= ~10^7. Returns InvalidArgument beyond that budget.
Result<double> ExactMultinomialPValue(std::span<const int64_t> observed,
                                      std::span<const double> probs);

/// Number of configurations that would be enumerated: C(l+k-1, k-1),
/// saturating at int64 max.
int64_t MultinomialConfigurationCount(int64_t l, int k);

}  // namespace stats
}  // namespace sigsub

#endif  // SIGSUB_STATS_EXACT_MULTINOMIAL_H_
