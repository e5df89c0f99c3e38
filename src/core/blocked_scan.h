#ifndef SIGSUB_CORE_BLOCKED_SCAN_H_
#define SIGSUB_CORE_BLOCKED_SCAN_H_

#include <cstdint>

#include "common/result.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// Blocked exact scan — stand-in for the "blocking technique" of Agarwal's
/// thesis (paper reference [2]), which the paper describes as a
/// constant-factor (no asymptotic) improvement over the trivial scan. The
/// paper gives no detail of that technique, so this applies its own
/// chain-cover bound to whole blocks instead.
///
/// For each start position the ending positions are processed in blocks of
/// `block_size`. Before descending into a block, a chain-cover bound over
/// the whole block is compared against the running maximum: if the block
/// cannot contain a better substring it is skipped in O(k); otherwise every
/// position in it is evaluated incrementally in O(1) each. Exact (always
/// returns the true MSS), Θ(n²) worst case.
Result<MssResult> FindMssBlocked(const seq::Sequence& sequence,
                                 const seq::MultinomialModel& model,
                                 int64_t block_size = 64);

/// Kernel variant.
MssResult FindMssBlocked(const seq::Sequence& sequence,
                         const seq::PrefixCounts& counts,
                         const ChiSquareContext& context,
                         int64_t block_size = 64);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_BLOCKED_SCAN_H_
