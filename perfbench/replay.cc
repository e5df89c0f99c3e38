#include "replay.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <variant>
#include <vector>

#include "api/serde.h"
#include "core/chi_square.h"
#include "core/markov_scan.h"
#include "seq/model.h"
#include "stats/chi_squared.h"

namespace perfbench {

using namespace sigsub;

Result<core::SuffixScanResult> DirectSubstringsScan(
    const core::SuffixScan& scan, const api::QuerySpec& spec) {
  const auto& q = std::get<api::SubstringsQuery>(spec.request);
  const int k = scan.alphabet_size();
  const bool markov = spec.model.kind == api::ModelKind::kMarkov;
  core::SuffixScanOptions options;
  options.top_n = q.top;
  options.min_length = q.min_length;
  options.max_length = q.max_length;
  options.min_count = q.min_count;
  options.maximal_only = q.maximal;
  if (q.alpha_p >= 0.0) {
    options.min_x2 = stats::ChiSquaredDistribution(markov ? k * (k - 1) : k - 1)
                         .CriticalValue(q.alpha_p);
  } else if (q.alpha0 >= 0.0) {
    options.min_x2 = q.alpha0;
  }
  if (markov) {
    std::vector<double> initial = spec.model.initial;
    if (initial.empty()) initial.assign(static_cast<size_t>(k), 1.0 / k);
    SIGSUB_ASSIGN_OR_RETURN(
        seq::MarkovModel model,
        seq::MarkovModel::Make(k, spec.model.transitions, std::move(initial)));
    SIGSUB_ASSIGN_OR_RETURN(core::MarkovChiSquare context,
                            core::MarkovChiSquare::Make(model));
    return scan.ScanMarkov(context, options);
  }
  std::vector<double> probs = spec.model.probs;
  if (spec.model.kind == api::ModelKind::kUniform) {
    probs.assign(static_cast<size_t>(k), 1.0 / k);
  }
  SIGSUB_ASSIGN_OR_RETURN(core::ChiSquareContext context,
                          core::ChiSquareContext::Make(std::move(probs)));
  return scan.Scan(context, options);
}

bool SameSubstrings(const api::QueryResult& result,
                    const core::SuffixScanResult& direct) {
  const auto* payload = std::get_if<api::SubstringsPayload>(&result.payload);
  if (payload == nullptr || payload->match_count != direct.match_count ||
      payload->ranked.size() != direct.classes.size()) {
    return false;
  }
  for (size_t i = 0; i < direct.classes.size(); ++i) {
    const core::SubstringClass& want = direct.classes[i];
    const core::Substring& got = payload->ranked[i];
    if (got.start != want.substring.start || got.end != want.substring.end ||
        std::bit_cast<uint64_t>(got.chi_square) !=
            std::bit_cast<uint64_t>(want.substring.chi_square) ||
        payload->counts[i] != want.count ||
        std::bit_cast<uint64_t>(payload->p_values[i]) !=
            std::bit_cast<uint64_t>(want.p_value)) {
      return false;
    }
  }
  return true;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer contract, in report order. perfbench/README.md maps each
// one to the end-to-end metric it should move.
constexpr LayerMetric kLayerMetrics[] = {
    {"io.load_ms", "ms"},
    {"seq.prefix_counts_us", "us"},
    {"seq.prefix_counts_builds_per_query", "builds/query"},
    {"core.interval_ms.mss", "ms"},
    {"core.interval_ms.topt", "ms"},
    {"core.interval_ms.threshold", "ms"},
    {"core.interval_ms.minlen", "ms"},
    {"core.interval_ms.lenbound", "ms"},
    {"core.positions_examined_share", "fraction"},
    {"core.suffix_build_ms", "ms"},
    {"core.suffix_build_msym_s", "Msym/s"},
    {"core.suffix_sweep_ms", "ms"},
    {"core.suffix_classes_enumerated", "count"},
    {"core.suffix_candidates_scored", "count"},
    {"core.suffix_peak_index_bytes_per_sym", "B/sym"},
    {"core.suffix_index_bytes_per_sym", "B/sym"},
    {"api.parse_us", "us"},
    {"api.canonical_key_us", "us"},
    {"engine.execute_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"engine.cache_hit_share", "fraction"},
    {"engine.stream_append_us", "us"},
    {"persist.journal_append_us", "us"},
    {"server.parse_us", "us"},
    {"server.format_us", "us"},
    {"server.self_ms", "ms"},
    {"server.queries_per_batch", "queries/batch"},
    {"server.shed_share", "fraction"},
    {"client.late_ms_p99", "ms"},
    {"trace.wire_qps", "1/s"},
    {"trace.overhead_share", "fraction"},
};

}  // namespace

void GateLayerMetrics(const std::map<std::string, double>& values,
                      Report* report) {
  size_t known = 0;
  for (const LayerMetric& metric : kLayerMetrics) {
    auto it = values.find(metric.name);
    known += it != values.end() ? 1 : 0;
    report->Gate(metric.name, it != values.end() ? it->second : 0.0,
                 metric.unit);
  }
  if (known != values.size()) {
    // A workload set a name outside the contract: a benchmark bug.
    std::fprintf(stderr, "perfbench: unknown per-layer metric name\n");
    std::abort();
  }
}

}  // namespace perfbench
