#include "core/arlm.h"

#include <span>
#include <vector>

#include "common/check.h"
#include "core/x2_kernel.h"

namespace sigsub {
namespace core {

std::vector<int64_t> ArlmCandidateBoundaries(const seq::Sequence& sequence) {
  const int64_t n = sequence.size();
  std::vector<int64_t> boundaries;
  boundaries.reserve(static_cast<size_t>(n) / 2 + 2);
  boundaries.push_back(0);
  for (int64_t j = 1; j < n; ++j) {
    if (sequence[j - 1] != sequence[j]) boundaries.push_back(j);
  }
  boundaries.push_back(n);
  return boundaries;
}

MssResult FindMssArlm(const seq::Sequence& sequence,
                      const seq::PrefixCounts& counts,
                      const ChiSquareContext& context) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  SIGSUB_CHECK(sequence.size() == counts.sequence_size());
  std::vector<int64_t> boundaries = ArlmCandidateBoundaries(sequence);
  const size_t m = boundaries.size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  X2Kernel kernel(context);
  // Caller-owned X² buffer (see the scratch convention in x2_kernel.h):
  // sized once for the longest endpoint batch, reused for every start.
  std::vector<double> x2s(m > 1 ? m - 1 : 0);
  bool found = false;
  for (size_t bi = 0; bi + 1 < m; ++bi) {
    ++result.stats.start_positions;
    int64_t start = boundaries[bi];
    // Batched fused evaluation: pin the start block, stream every later
    // boundary as an endpoint — the EvaluateEnds shape.
    std::span<const int64_t> ends(boundaries.data() + bi + 1, m - bi - 1);
    kernel.EvaluateEnds(counts, start, ends, x2s);
    result.stats.positions_examined += static_cast<int64_t>(ends.size());
    for (size_t j = 0; j < ends.size(); ++j) {
      if (x2s[j] > result.best.chi_square || !found) {
        found = true;
        result.best = Substring{start, ends[j], x2s[j]};
      }
    }
  }
  return result;
}

Result<MssResult> FindMssArlm(const seq::Sequence& sequence,
                              const seq::MultinomialModel& model) {
  SIGSUB_RETURN_IF_ERROR(ValidateScanInput(sequence, model));
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMssArlm(sequence, counts, context);
}

}  // namespace core
}  // namespace sigsub
