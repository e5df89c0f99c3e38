// The two all-substrings workloads: one caller sending distinct
// `substrings` queries through engine::Engine::ExecuteQueries, one at a
// time.
//
//   substrings_random       one 1 MiB k=4 record, Corpus::FromMappedFile.
//                           The suffix-index build is ~3/4 of each query.
//   substrings_adversarial  four 26-72k-symbol adversarial records
//                           (periodic, period-5, Fibonacci, long runs) plus
//                           ~4 MB of filler, Corpus::FromLines. The LCP
//                           sweep is Θ(n²) on these shapes and is nearly
//                           all of each query.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/serde.h"
#include "core/chi_square.h"
#include "core/suffix_scan.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "inputs.h"
#include "perfbench.h"
#include "replay.h"
#include "seq/sequence.h"
#include "server/protocol.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace sigsub;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Queries the traced run replays (a fixed set, so its counts repeat
/// exactly for a seed).
constexpr int kTracedQueries = 8;
/// Prefix length of the brute-force check on each adversarial shape.
constexpr int64_t kNaivePrefix = 2000;

struct Workload {
  bool mapped = false;
  std::string path;                      // The corpus file.
  std::vector<std::string> shape_names;  // Adversarial records.
  std::vector<std::string> shape_texts;
  std::string (*query)(int64_t q, int num_shapes) = nullptr;
  int num_records = 1;  // Records the queries address.
};

Result<engine::Corpus> Load(const Workload& w) {
  return w.mapped ? engine::Corpus::FromMappedFile(w.path)
                  : engine::Corpus::FromLines(w.path);
}

std::string RandomQuery(int64_t q, int) { return RandomWorkloadQuery(q); }

Result<core::SuffixScan> BuildIndex(const engine::Corpus& corpus,
                                    int64_t record) {
  const int k = corpus.alphabet().size();
  return corpus.is_mapped()
             ? core::SuffixScan::BuildMapped(corpus.mapped_record(),
                                             corpus.decode_table(), k)
             : core::SuffixScan::Build(corpus.sequence(record).symbols(), k);
}

int64_t RecordSize(const engine::Corpus& corpus, int64_t record) {
  return corpus.is_mapped()
             ? static_cast<int64_t>(corpus.mapped_record().size())
             : corpus.sequence(record).size();
}

/// Brute-force gate on each adversarial shape: the suffix scan of a
/// kNaivePrefix-symbol prefix must equal core::NaiveAllSubstringsScan.
void CheckAgainstNaive(const Workload& w, Report* report) {
  auto context =
      core::ChiSquareContext::Make(std::vector<double>(kAlphabet, 0.25));
  if (!context.ok()) {
    report->Fail("naive check context");
    return;
  }
  std::vector<char> same(w.shape_texts.size(), 0);
  ParallelFor(w.shape_texts.size(), kCheckThreads, [&](size_t s) {
    const std::string& text = w.shape_texts[s];
    std::vector<uint8_t> symbols;
    for (size_t i = 0; i < text.size() && i < kNaivePrefix; ++i) {
      symbols.push_back(static_cast<uint8_t>(text[i] - '0'));
    }
    auto sequence = seq::Sequence::FromSymbols(kAlphabet, symbols);
    auto scan = core::SuffixScan::Build(symbols, kAlphabet);
    if (!sequence.ok() || !scan.ok()) return;
    core::SuffixScanOptions options;
    options.top_n = 25;
    options.min_count = 2;
    auto fast = scan->Scan(*context, options);
    auto naive = core::NaiveAllSubstringsScan(*sequence, *context, options);
    bool equal = fast.ok() && naive.ok() &&
                 fast->match_count == naive->match_count &&
                 fast->classes.size() == naive->classes.size();
    for (size_t i = 0; equal && i < fast->classes.size(); ++i) {
      const core::SubstringClass& a = fast->classes[i];
      const core::SubstringClass& b = naive->classes[i];
      equal = a.substring.start == b.substring.start &&
              a.substring.end == b.substring.end &&
              a.substring.chi_square == b.substring.chi_square &&
              a.count == b.count;
    }
    same[s] = equal;
  });
  for (size_t s = 0; s < same.size(); ++s) {
    if (!same[s]) report->Fail("suffix scan != naive scan on " + w.shape_names[s]);
  }
}

void AddNotes(const Workload& w, const engine::Corpus& corpus,
              Report* report) {
  int64_t symbols = 0;
  for (int64_t r = 0; r < corpus.size(); ++r) symbols += RecordSize(corpus, r);
  report->notes.push_back(
      "inputs records=" + std::to_string(corpus.size()) +
      " symbols=" + std::to_string(symbols) + " loader=" +
      (w.mapped ? "FromMappedFile" : "FromLines"));
  for (int r = 0; r < w.num_records && !w.shape_names.empty(); ++r) {
    report->notes.push_back("record " + std::to_string(r) + " shape=" +
                            w.shape_names[static_cast<size_t>(r)] +
                            " symbols=" +
                            std::to_string(RecordSize(corpus, r)));
  }
  report->notes.push_back(
      "load threads=1 connections=0 engine_threads=1 (one in-process "
      "caller, one query at a time)");
}

Report RunMeasured(const Workload& w, const Args& args,
                   std::vector<double> setup_s, engine::Corpus& corpus,
                   engine::Engine& engine) {
  Report report;
  AddNotes(w, corpus, &report);

  struct Done {
    api::QuerySpec spec;
    api::QueryResult result;
  };
  std::vector<Done> done;
  std::vector<double> latency_ms;
  // Query 0 warms the process up untimed (its result is checked like
  // every other); the measured phase runs queries 1, 2, ... until
  // --seconds have passed.
  auto execute = [&](int64_t q, bool timed) {
    const std::string text = w.query(q, w.num_records);
    ++report.attempted;
    auto spec = api::ParseQuery(text);
    if (!spec.ok()) {
      report.Fail("spec refused: " + text);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    auto results = engine.ExecuteQueries(corpus, {*spec});
    if (timed) latency_ms.push_back(MsBetween(t0, Clock::now()));
    if (!results.ok() || results->size() != 1) {
      report.Fail("query failed: " + text);
      return;
    }
    done.push_back({*spec, std::move(results->front())});
  };
  execute(0, false);
  const Clock::time_point start = Clock::now();
  for (int64_t q = 1; SecondsSince(start) < args.seconds; ++q) {
    execute(q, true);
  }
  const double elapsed = SecondsSince(start);
  const double peak_rss_mb = PeakRssMb();

  // Checks, outside the measured phase: every reply against a direct
  // SuffixScan of the same record (one index per record, shared by the
  // check threads), then the brute-force gate on the adversarial shapes.
  const Clock::time_point check_start = Clock::now();
  std::map<int64_t, core::SuffixScan> indexes;
  for (const Done& d : done) {
    if (indexes.count(d.spec.sequence_index) > 0) continue;
    auto built = BuildIndex(corpus, d.spec.sequence_index);
    if (!built.ok()) {
      report.Fail("direct index build");
      return report;
    }
    indexes.emplace(d.spec.sequence_index, std::move(built).value());
  }
  std::vector<char> same(done.size(), 0);
  ParallelFor(done.size(), kCheckThreads, [&](size_t i) {
    auto direct =
        DirectSubstringsScan(indexes.at(done[i].spec.sequence_index),
                             done[i].spec);
    same[i] = direct.ok() && SameSubstrings(done[i].result, *direct);
  });
  for (size_t i = 0; i < done.size(); ++i) {
    if (!same[i]) {
      report.Fail("engine != direct SuffixScan for " +
                  api::FormatQuery(done[i].spec));
    }
  }
  indexes.clear();
  const double direct_check_s = SecondsSince(check_start);
  CheckAgainstNaive(w, &report);
  const double naive_check_s = SecondsSince(check_start) - direct_check_s;

  const double n = static_cast<double>(latency_ms.size());
  report.Gate("setup_s", Median(setup_s), "s");
  report.Gate("qps", n / elapsed, "1/s");
  report.Gate("peak_rss_mb", peak_rss_mb, "MiB");
  report.Info("query_p50_ms", Median(latency_ms), "ms");
  report.Info("failed_share",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<int64_t>(1, report.attempted)),
              "fraction");
  report.notes.push_back("samples setup=" + std::to_string(setup_s.size()) +
                         " query=" + std::to_string(latency_ms.size()) +
                         " (too few for a p99; median only)");
  std::string per_query = "query_ms";
  for (double ms : latency_ms) {
    per_query += ' ';
    per_query += std::to_string(std::lround(ms));
  }
  report.notes.push_back(per_query);
  report.notes.push_back("check_s direct=" + std::to_string(direct_check_s) +
                         " naive=" + std::to_string(naive_check_s));
  return report;
}

Report RunTraced(const Workload& w, const Args& args, Tracer& tracer,
                 engine::Corpus& corpus, engine::Engine& engine) {
  Report report;
  AddNotes(w, corpus, &report);
  std::map<std::string, double> layer;

  int64_t symbols_built = 0;
  double peak_index_per_sym = 0.0;
  double index_per_sym = 0.0;
  int64_t classes = 0;
  int64_t candidates = 0;
  int64_t cache_hits = 0;
  for (int64_t q = 0; q < kTracedQueries; ++q) {
    const std::string text = w.query(q, w.num_records);
    ++report.attempted;
    const int64_t request = tracer.Begin("request", -1, q);
    std::optional<api::QuerySpec> spec;
    const int64_t wire_parse = tracer.Time("server.parse", request, q, [&] {
      auto parsed = server::protocol::ParseRequest("QUERY " + text);
      if (parsed.ok()) spec = parsed->query;
    });
    tracer.Time("api.parse", wire_parse, q, [&] {
      auto parsed = api::ParseQuery(text);
      if (!parsed.ok()) spec.reset();
    });
    if (!spec) {
      report.Fail("spec refused: " + text);
      tracer.End(request);
      continue;
    }
    std::string key;
    tracer.Time("api.canonical_key", request, q,
                [&] { key = api::CanonicalQueryKey(*spec); });
    std::vector<api::QueryResult> results;
    const int64_t exec = tracer.Time("engine.execute", request, q, [&] {
      auto executed = engine.ExecuteQueries(corpus, {*spec});
      if (executed.ok()) results = std::move(executed).value();
    });
    std::string line;
    if (results.size() == 1) {
      cache_hits += results.front().cache_hit ? 1 : 0;
      tracer.Time("server.format", request, q, [&] {
        line = server::protocol::FormatQueryResult(results.front(), 64);
      });
    }
    tracer.End(request);

    // The direct replay of the engine's work, attributed to its span.
    std::optional<core::SuffixScan> index;
    tracer.Time("core.suffix_build", exec, q, [&] {
      auto built = BuildIndex(corpus, spec->sequence_index);
      if (built.ok()) index.emplace(std::move(*built));
    });
    std::optional<core::SuffixScanResult> direct;
    if (index) {
      tracer.Time("core.suffix_sweep", exec, q, [&] {
        auto scanned = DirectSubstringsScan(*index, *spec);
        if (scanned.ok()) direct.emplace(std::move(scanned).value());
      });
      const double n = static_cast<double>(index->size());
      symbols_built += index->size();
      peak_index_per_sym = std::max(
          peak_index_per_sym, static_cast<double>(index->peak_index_bytes()) / n);
      index_per_sym = std::max(
          index_per_sym, static_cast<double>(index->index_bytes()) / n);
    }
    if (!direct || results.size() != 1 ||
        !SameSubstrings(results.front(), *direct)) {
      report.Fail("engine != direct SuffixScan for " + text);
      continue;
    }
    classes += direct->stats.classes_enumerated;
    candidates += direct->stats.candidates_scored;
  }

  const double queries = kTracedQueries;
  const Tracer::Totals load = tracer.Sum("io.load");
  const Tracer::Totals build = tracer.Sum("core.suffix_build");
  const Tracer::Totals sweep = tracer.Sum("core.suffix_sweep");
  const Tracer::Totals exec = tracer.Sum("engine.execute");
  layer["io.load_ms"] = load.total_ms / static_cast<double>(load.count);
  layer["core.suffix_build_ms"] = build.total_ms / queries;
  layer["core.suffix_build_msym_s"] =
      static_cast<double>(symbols_built) / (build.total_ms * 1e3);
  layer["core.suffix_sweep_ms"] = sweep.total_ms / queries;
  layer["core.suffix_classes_enumerated"] =
      static_cast<double>(classes) / queries;
  layer["core.suffix_candidates_scored"] =
      static_cast<double>(candidates) / queries;
  layer["core.suffix_peak_index_bytes_per_sym"] = peak_index_per_sym;
  layer["core.suffix_index_bytes_per_sym"] = index_per_sym;
  layer["api.parse_us"] = tracer.Sum("api.parse").total_ms * 1e3 / queries;
  layer["api.canonical_key_us"] =
      tracer.Sum("api.canonical_key").total_ms * 1e3 / queries;
  layer["engine.execute_ms"] = exec.total_ms / queries;
  layer["engine.self_ms"] = exec.self_ms / queries;
  layer["engine.cache_hit_share"] = static_cast<double>(cache_hits) / queries;
  layer["server.parse_us"] =
      tracer.Sum("server.parse").self_ms * 1e3 / queries;
  layer["server.format_us"] =
      tracer.Sum("server.format").total_ms * 1e3 / queries;
  GateLayerMetrics(layer, &report);
  report.notes.push_back("traced queries=" + std::to_string(kTracedQueries) +
                         " spans=" + std::to_string(tracer.size()));
  if (!args.trace_out.empty()) {
    const std::string error = tracer.WriteJsonLines(args.trace_out);
    if (!error.empty()) report.notes.push_back(error);
  }
  return report;
}

Report Run(Workload w, const Args& args) {
  Tracer tracer;
  std::vector<double> setup_s;
  std::optional<engine::Corpus> corpus;
  std::unique_ptr<engine::Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    corpus.reset();
    const Clock::time_point t0 = Clock::now();
    const int64_t span = tracer.Begin("io.load");
    auto loaded = Load(w);
    tracer.End(span);
    if (!loaded.ok()) {
      Report report;
      report.Fail("corpus load: " + loaded.status().message());
      return report;
    }
    corpus.emplace(std::move(loaded).value());
    engine = std::make_unique<engine::Engine>(engine::EngineOptions{});
    setup_s.push_back(SecondsSince(t0));
  }
  return args.trace ? RunTraced(w, args, tracer, *corpus, *engine)
                    : RunMeasured(w, args, std::move(setup_s), *corpus, *engine);
}

}  // namespace

Report RunSubstringsRandom(const Args& args) {
  Workload w;
  w.mapped = true;
  w.path = args.workdir + "/record.txt";
  w.query = RandomQuery;
  const std::string error =
      WriteFile(w.path, MakeRandomRecordFile(args.seed, args.scale));
  if (!error.empty()) {
    Report report;
    report.Fail(error);
    return report;
  }
  return Run(std::move(w), args);
}

Report RunSubstringsAdversarial(const Args& args) {
  Workload w;
  w.path = args.workdir + "/corpus.txt";
  w.query = AdversarialWorkloadQuery;
  {
    AdversarialInputs inputs = MakeAdversarialInputs(args.seed, args.scale);
    std::string file;
    for (const std::string& line : inputs.lines) {
      file += line;
      file += '\n';
    }
    w.shape_names = inputs.shapes;
    w.shape_texts.assign(inputs.lines.begin(),
                         inputs.lines.begin() +
                             static_cast<std::ptrdiff_t>(inputs.shapes.size()));
    w.num_records = static_cast<int>(inputs.shapes.size());
    const std::string error = WriteFile(w.path, file);
    if (!error.empty()) {
      Report report;
      report.Fail(error);
      return report;
    }
  }
  return Run(std::move(w), args);
}

}  // namespace perfbench
