#ifndef SIGSUB_CORE_ARLM_H_
#define SIGSUB_CORE_ARLM_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// ARLM baseline — reconstruction of the local-maxima heuristic of Dutta &
/// Bhattacharya (PAKDD 2010), the paper's reference [9]. The paper only
/// summarizes [9] (Section 2), so this follows that summary.
///
/// Candidate boundaries are the extrema of the per-character deviation
/// walks W_c(j) = count_c(S[0..j)) − j·p_c. W_c changes direction at j
/// exactly when S[j−1] and S[j] disagree on being c, so the union of
/// extrema over all characters is the set of run boundaries of the string
/// (plus both ends). ARLM evaluates X² over every pair of candidate
/// boundaries: O(k·m²) for m run boundaries — Θ(n²) on random strings but
/// with a constant several times smaller than the trivial scan, and it
/// finds the true MSS on well-behaved inputs (the paper observed it match
/// the optimum at n = 20000 and fall marginally short at n = 80000;
/// being a conjecture, it carries no guarantee).
///
/// Always returns a real substring's X², hence never exceeds the true MSS.
Result<MssResult> FindMssArlm(const seq::Sequence& sequence,
                              const seq::MultinomialModel& model);

/// Kernel variant.
MssResult FindMssArlm(const seq::Sequence& sequence,
                      const seq::PrefixCounts& counts,
                      const ChiSquareContext& context);

/// The candidate boundary positions ARLM scans (run boundaries plus 0 and
/// n), exposed for tests.
std::vector<int64_t> ArlmCandidateBoundaries(const seq::Sequence& sequence);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_ARLM_H_
