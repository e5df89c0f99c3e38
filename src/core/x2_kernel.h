#ifndef SIGSUB_CORE_X2_KERNEL_H_
#define SIGSUB_CORE_X2_KERNEL_H_

#include <cstdint>
#include <span>

#include "common/check.h"
#include "core/chi_square.h"
#include "core/x2_dispatch.h"
#include "seq/prefix_counts.h"

namespace sigsub {
namespace core {

/// Fused X² evaluation over seq::PrefixCounts — the per-candidate kernel
/// of every scanner (paper Algorithm 1 / Eq. 5 cost model: read two
/// prefix blocks, reduce Σ Y_c²/p_c).
///
/// The legacy shape, counts.FillCounts(i, end, scratch) followed by
/// context.Evaluate(scratch, l), pays two k-wide loads, a k-wide store
/// into heap scratch, then a k-wide reload and reduce. This kernel fuses
/// the subtraction and reduction into one pass over the two position-major
/// blocks: no scratch vector exists anywhere in the scan.
///
/// The implementation is selected at ChiSquareContext build time (see
/// X2Dispatch in x2_dispatch.h): fixed-k scalar specializations for
/// k ∈ {2, 4, 8} (binary stock/sports encodings, DNA, bytes-in-octal),
/// an AVX2 path behind compile-time feature detection plus a runtime CPU
/// check, and a generic scalar fallback. The scalar paths are bit-identical
/// to the legacy pair; the SIMD path reorders the summation and agrees to
/// <= 1e-12 relative (gated in bench/x2_kernel.cc).
///
/// Scratch-buffer convention: scanner kernels must not allocate per-call
/// heap scratch on their hot paths. Count vectors are never materialized —
/// evaluation goes through this kernel and skip solving through the
/// SkipSolver block overload, both reading prefix blocks directly.
/// Where a scan genuinely needs an output-sized buffer (e.g. the batched
/// EvaluateEnds below), the buffer is owned by the caller and reused
/// across the scan, sized once up front — never reallocated per position.
class X2Kernel {
 public:
  /// Uses the dispatch the context resolved at build time. Cheap: copies a
  /// function pointer and the inv-probs view, no allocation.
  explicit X2Kernel(const ChiSquareContext& context)
      : inv_probs_(context.inv_probs().data()),
        k_(context.alphabet_size()),
        simd_active_(context.x2_simd_active()),
        fn_(context.x2_range_fn()) {}

  /// Re-resolves for an explicit dispatch (tests, benches, audits).
  X2Kernel(const ChiSquareContext& context, X2Dispatch dispatch)
      : inv_probs_(context.inv_probs().data()),
        k_(context.alphabet_size()),
        fn_(internal::ResolveX2RangeFn(context.alphabet_size(), dispatch,
                                       &simd_active_)) {}

  /// X² from two raw position-major blocks (counts.BlockAt). The inner-
  /// loop entry point: scanners hoist the start block pointer and stream
  /// endpoint blocks through this.
  double EvaluateBlocks(const int64_t* start_block, const int64_t* end_block,
                        int64_t l) const {
    if (l == 0) return 0.0;
    return fn_(start_block, end_block, inv_probs_, k_,
               static_cast<double>(l));
  }

  /// X² of a raw window-count block (counts[c] = occurrences of symbol c
  /// in a window of length l) — the streaming-detector entry point, where
  /// windows are maintained as live counters rather than prefix
  /// differences. Implemented as EvaluateBlocks against a shared all-zero
  /// start block, so it runs the same resolved dispatch (fixed-k / AVX2 /
  /// scalar) as the offline scanners and is bit-identical to the legacy
  /// ChiSquareContext::Evaluate(counts, l) on the scalar paths. Symbol
  /// alphabets are byte-coded, so k <= 256 by construction (DCHECKed).
  double EvaluateCounts(const int64_t* counts, int64_t l) const {
    SIGSUB_DCHECK(k_ <= kMaxAlphabet);
    return EvaluateBlocks(ZeroBlock(), counts, l);
  }

  /// X² of S[start, end).
  double EvaluateRange(const seq::PrefixCounts& counts, int64_t start,
                       int64_t end) const {
    SIGSUB_DCHECK(counts.alphabet_size() == k_);
    return EvaluateBlocks(counts.BlockAt(start), counts.BlockAt(end),
                          end - start);
  }

  /// Batched form: pins the start block once and streams the endpoint
  /// blocks — the inner-loop shape of the chain-cover MSS scan and the
  /// top-t/threshold scans. out[i] = X²(S[start, ends[i])). `out` is a
  /// caller-owned buffer (see the scratch convention above) with
  /// out.size() >= ends.size().
  void EvaluateEnds(const seq::PrefixCounts& counts, int64_t start,
                    std::span<const int64_t> ends,
                    std::span<double> out) const {
    SIGSUB_DCHECK(counts.alphabet_size() == k_);
    SIGSUB_DCHECK(out.size() >= ends.size());
    const int64_t* lo = counts.BlockAt(start);
    for (size_t i = 0; i < ends.size(); ++i) {
      int64_t l = ends[i] - start;
      out[i] = l == 0 ? 0.0
                      : fn_(lo, counts.BlockAt(ends[i]), inv_probs_, k_,
                            static_cast<double>(l));
    }
  }

  /// True when the resolved implementation is the SIMD path.
  bool simd_active() const { return simd_active_; }

  int alphabet_size() const { return k_; }

 private:
  static constexpr int kMaxAlphabet = 256;  // Byte-coded symbols.

  /// Shared k-wide (<= 256) block of zeros backing EvaluateCounts.
  static const int64_t* ZeroBlock();

  const double* inv_probs_;
  int k_;
  // Initialized before fn_ (declaration order): ResolveX2RangeFn writes it
  // while fn_'s initializer runs in the explicit-dispatch constructor.
  bool simd_active_ = false;
  X2RangeFn fn_;
};

namespace internal {

/// AVX2 entry points, defined in x2_kernel_avx2.cc — only when the build
/// enables SIGSUB_X2_AVX2 (CMake probes the compiler for -mavx2). Callers
/// must first check SimdAvailable(): the TU is compiled for AVX2, so the
/// functions may only execute on a CPU that reports the feature.
double X2RangeAvx2(const int64_t* lo, const int64_t* hi,
                   const double* inv_probs, int k, double l);
double X2RangeAvx2K4(const int64_t* lo, const int64_t* hi,
                     const double* inv_probs, int k, double l);
double X2RangeAvx2K8(const int64_t* lo, const int64_t* hi,
                     const double* inv_probs, int k, double l);

}  // namespace internal

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_X2_KERNEL_H_
