#ifndef SIGSUB_PERFBENCH_REPLAY_H_
#define SIGSUB_PERFBENCH_REPLAY_H_

#include <map>
#include <string>

#include "api/query.h"
#include "common/result.h"
#include "core/suffix_scan.h"
#include "perfbench.h"

namespace perfbench {

/// Direct calls into core::SuffixScan that re-do what Engine::ExecuteQueries
/// does for one `substrings` query: the same options, and the same
/// alpha_p -> X² floor conversion (χ²(k−1) multinomial, χ²(k(k−1))
/// Markov). Used by the correctness checks and by the traced replay.
sigsub::Result<sigsub::core::SuffixScanResult> DirectSubstringsScan(
    const sigsub::core::SuffixScan& scan, const sigsub::api::QuerySpec& spec);

/// True when the engine's substrings payload equals the direct scan's
/// result: same ranked substrings (X² bit-identical), counts, p-values
/// and match count.
bool SameSubstrings(const sigsub::api::QueryResult& result,
                    const sigsub::core::SuffixScanResult& direct);

/// The per-layer metrics of the traced run, by name. Every workload
/// reports every one of them (0 where the layer does no work on that
/// workload); `values` sets the measured ones.
void GateLayerMetrics(const std::map<std::string, double>& values,
                      Report* report);

}  // namespace perfbench

#endif  // SIGSUB_PERFBENCH_REPLAY_H_
