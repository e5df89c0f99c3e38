#ifndef SIGSUB_STATS_COUNT_STATISTICS_H_
#define SIGSUB_STATS_COUNT_STATISTICS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sigsub {
namespace stats {

/// Goodness-of-fit statistics over an observed count vector {Y_1..Y_k}
/// against multinomial probabilities {p_1..p_k}. These are the two
/// statistics the paper discusses in Section 1: Pearson's X² (Eq. 4/5,
/// the measure the paper adopts) and the likelihood-ratio G² (Eq. 3).

/// Pearson X² = Σ (Y_i − l·p_i)² / (l·p_i) = Σ Y_i²/(l·p_i) − l,
/// where l = Σ Y_i. Returns 0 for the empty count vector (l = 0).
/// Requires counts.size() == probs.size() and p_i > 0 (unchecked hot
/// path; ValidateCountsAndProbs checks a pair).
double PearsonChiSquare(std::span<const int64_t> counts,
                        std::span<const double> probs);

/// Likelihood-ratio statistic G² = −2 ln LR = 2 Σ Y_i ln(Y_i / (l·p_i)),
/// with the convention 0·ln(0) = 0. Converges to the same χ²(k−1) limit as
/// X² (from above, while X² converges from below — paper Section 1).
double LikelihoodRatioG2(std::span<const int64_t> counts,
                         std::span<const double> probs);

/// Asymptotic p-value of an observed statistic value `x2` over an alphabet
/// of size k: 1 − F_{χ²(k−1)}(x2).
double ChiSquarePValue(double x2, int alphabet_size);

/// The X² value whose asymptotic p-value equals `alpha` for alphabet size k;
/// the natural way to pick the threshold α₀ for Problem 3.
double ChiSquareThresholdForPValue(double alpha, int alphabet_size);

/// Validates a count/probability pair: equal non-zero lengths, counts
/// >= 0, each p_i in (0, 1] and Σ p_i = 1 (to 1e-9).
Status ValidateCountsAndProbs(std::span<const int64_t> counts,
                              std::span<const double> probs);

}  // namespace stats
}  // namespace sigsub

#endif  // SIGSUB_STATS_COUNT_STATISTICS_H_
