#include "core/min_length.h"

#include "common/check.h"
#include "common/str_util.h"
#include "core/mss.h"

namespace sigsub {
namespace core {

MssResult FindMssMinLength(const seq::PrefixCounts& counts,
                           const ChiSquareContext& context,
                           int64_t min_length) {
  return FindMssInRange(counts, context, 0, counts.sequence_size(),
                        min_length);
}

Result<MssResult> FindMssMinLength(const seq::Sequence& sequence,
                                   const seq::MultinomialModel& model,
                                   int64_t min_length) {
  SIGSUB_RETURN_IF_ERROR(ValidateScanInput(sequence, model));
  if (min_length < 1 || min_length > sequence.size()) {
    return Status::InvalidArgument(
        StrCat("min_length must be in [1, ", sequence.size(), "], got ",
               min_length));
  }
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMssMinLength(counts, context, min_length);
}

}  // namespace core
}  // namespace sigsub
