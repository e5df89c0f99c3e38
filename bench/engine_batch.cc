// engine::Engine batch execution vs naive per-query library calls.
//
// Workload: a corpus of M sequences, J queries per sequence (one of each
// problem kernel). Three executions of the same query list:
//
//   naive        — each query issued as an independent FindMss-style
//                  call, which rebuilds PrefixCounts for its sequence
//                  (what a caller without the engine would write);
//   engine cold  — one ExecuteQueries on a fresh engine: PrefixCounts and
//                  ChiSquareContext built once per distinct sequence/model
//                  and shared across the queries (empty cache, all
//                  misses);
//   engine warm  — the same batch again on the same engine: every query
//                  is an LRU cache hit, no kernel runs at all.
//
// The bench asserts the engine's X² values are bit-identical to the naive
// calls before reporting timings, and reports single-thread numbers so
// the cold-row speedup isolates context reuse (a multi-thread row shows
// the additional across-queries scaling).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/harness.h"
#include "io/table_writer.h"
#include "sigsub.h"

using namespace sigsub;

namespace {

/// One of each mining kind per record.
std::vector<api::QuerySpec> MakeQueries(const engine::Corpus& corpus) {
  std::vector<api::QuerySpec> queries;
  for (int64_t i = 0; i < corpus.size(); ++i) {
    for (api::QueryRequest request :
         {api::QueryRequest{api::MssQuery{}},
          api::QueryRequest{api::TopTQuery{5}},
          api::QueryRequest{api::TopDisjointQuery{5, 50, 0.0}},
          // Count-only, like the batch CLI.
          api::QueryRequest{api::ThresholdQuery{20.0, -1.0, 0}},
          api::QueryRequest{api::MinLengthQuery{50}}}) {
      api::QuerySpec spec;
      spec.sequence_index = i;
      spec.request = std::move(request);
      queries.push_back(std::move(spec));
    }
  }
  return queries;
}

/// The no-engine baseline: every query calls the core kernel's validating
/// entry point, which rebuilds the sequence's PrefixCounts. Returns each
/// query's best X² for the equivalence check.
std::vector<double> RunNaive(const engine::Corpus& corpus,
                             const seq::MultinomialModel& model,
                             const std::vector<api::QuerySpec>& queries) {
  std::vector<double> best;
  best.reserve(queries.size());
  for (const api::QuerySpec& spec : queries) {
    const seq::Sequence& s = corpus.sequence(spec.sequence_index);
    switch (spec.kind()) {
      case api::QueryKind::kMss:
        best.push_back(core::FindMss(s, model)->best.chi_square);
        break;
      case api::QueryKind::kTopT: {
        const auto& q = std::get<api::TopTQuery>(spec.request);
        best.push_back(core::FindTopT(s, model, q.t)->top.front().chi_square);
        break;
      }
      case api::QueryKind::kTopDisjoint: {
        const auto& q = std::get<api::TopDisjointQuery>(spec.request);
        core::TopDisjointOptions options;
        options.t = q.t;
        options.min_length = q.min_length;
        best.push_back(
            core::FindTopDisjoint(s, model, options)->front().chi_square);
        break;
      }
      case api::QueryKind::kThreshold: {
        const auto& q = std::get<api::ThresholdQuery>(spec.request);
        core::ThresholdOptions options;
        options.max_matches = q.max_matches;
        auto result = core::FindAboveThreshold(s, model, q.alpha0, options);
        // `best` is only valid when something matched (scan_types.h);
        // represent the no-match case as 0.0 explicitly, which is also
        // what the engine's payload carries.
        best.push_back(result->match_count > 0 ? result->best.chi_square
                                               : 0.0);
        break;
      }
      case api::QueryKind::kMinLength: {
        const auto& q = std::get<api::MinLengthQuery>(spec.request);
        best.push_back(
            core::FindMssMinLength(s, model, q.min_length)->best.chi_square);
        break;
      }
      default:
        std::abort();  // MakeQueries builds the five mining kinds only.
    }
  }
  return best;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "engine batch — context reuse + result cache vs naive calls",
      "corpus of planted-anomaly strings, k = 4; one job of each kind "
      "per record; timings land in BENCH_engine.json");
  bench::JsonBench json("engine");

  const int64_t records = bench::FastMode() ? 8 : 32;
  const int64_t n = bench::FastMode() ? 4000 : 20000;
  const int k = 4;

  // Null background with one planted low-entropy patch per record.
  seq::Rng rng(20120731);
  std::vector<std::string> texts;
  seq::Alphabet alphabet = seq::Alphabet::Canonical(k);
  for (int64_t i = 0; i < records; ++i) {
    seq::Sequence s = seq::GenerateNull(k, n, rng);
    std::string text = s.ToString(alphabet);
    int64_t at = (i * 997) % (n - n / 10);
    text.replace(static_cast<size_t>(at), static_cast<size_t>(n / 20),
                 std::string(static_cast<size_t>(n / 20), 'a'));
    texts.push_back(text);
  }
  auto corpus = engine::Corpus::FromStrings(texts, alphabet.characters());
  if (!corpus.ok()) {
    std::printf("corpus error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  std::vector<api::QuerySpec> queries = MakeQueries(*corpus);
  auto model = seq::MultinomialModel::Uniform(k);
  std::printf("corpus: %lld records of n = %lld, %zu queries\n\n",
              static_cast<long long>(records), static_cast<long long>(n),
              queries.size());

  std::vector<double> naive_best;
  double naive_ms = bench::TimeMs(
      [&] { naive_best = RunNaive(*corpus, model, queries); });

  // Each engine-cold row is the best of 3 runs, each on a fresh engine
  // (empty cache), with the 1-thread and N-thread runs alternating: the
  // scaling gate below divides one row by the other, and one single-shot
  // pair let a burst of host noise on either side fail it.
  std::optional<engine::Engine> serial;
  std::optional<engine::Engine> parallel;
  std::vector<api::QueryResult> cold_results;
  std::vector<api::QueryResult> parallel_results;
  double cold_ms = 1e300, parallel_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    serial.emplace(engine::EngineOptions{.num_threads = 1,
                                         .cache_capacity = 4096});
    cold_ms = std::min(cold_ms, bench::TimeMs([&] {
      cold_results =
          std::move(serial->ExecuteQueries(*corpus, queries)).value();
    }));
    parallel.emplace(engine::EngineOptions{.num_threads = 0,
                                           .cache_capacity = 4096});
    parallel_ms = std::min(parallel_ms, bench::TimeMs([&] {
      parallel_results =
          std::move(parallel->ExecuteQueries(*corpus, queries)).value();
    }));
  }
  std::vector<api::QueryResult> warm_results;
  double warm_ms = bench::TimeMs([&] {
    warm_results =
        std::move(serial->ExecuteQueries(*corpus, queries)).value();
  });
  // On a single-core host ThreadPool(0) resolves to one worker, so the
  // "parallel" row is a second sequential run — that is exactly what a
  // committed BENCH_engine.json once reported as a mysterious 1.02x.
  // Say so explicitly, and only gate multi-thread scaling when there is
  // more than one worker to scale across.
  const bool multi_core = parallel->num_threads() >= 2;
  if (!multi_core) {
    std::printf(
        "single-core host: the %d-thread engine row measures scheduling "
        "overhead only; multi-thread speedup gate skipped\n",
        parallel->num_threads());
  }

  // Equivalence gate: engine output must be bit-identical to the naive
  // calls (same kernels, same summation order), cold and warm alike.
  int64_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (cold_results[i].best().chi_square != naive_best[i]) ++mismatches;
    if (warm_results[i].best().chi_square != naive_best[i]) ++mismatches;
    if (parallel_results[i].best().chi_square != naive_best[i]) {
      ++mismatches;
    }
  }
  std::printf("X² bit-identical to naive calls: %s\n\n",
              mismatches == 0 ? "yes" : "NO — BUG");
  json.AddGate("batch_bit_identical_to_naive", mismatches == 0);
  if (mismatches != 0) {
    json.Write();
    return 1;
  }

  engine::CacheStats stats = serial->cache_stats();
  std::printf("serial engine cache: %lld hits / %lld lookups\n",
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.lookups()));

  io::TableWriter table({"mode", "time", "jobs/s", "speedup"});
  auto add = [&](const std::string& mode, double ms, size_t job_count,
                 double baseline_ms) {
    table.AddRow({mode, bench::FormatMs(ms),
                  StrFormat("%.0f", 1000.0 * job_count / ms),
                  StrFormat("%.2fx", baseline_ms / ms)});
  };
  add("naive per-job calls", naive_ms, queries.size(), naive_ms);
  add("engine cold (context reuse, 1 thread)", cold_ms, queries.size(),
      naive_ms);
  add(StrCat("engine cold (", parallel->num_threads(), " thread",
             parallel->num_threads() == 1 ? ", single-core host" : "s", ")"),
      parallel_ms, queries.size(), naive_ms);
  add("engine warm (cache hits)", warm_ms, queries.size(), naive_ms);
  std::printf("\n%s", table.Render().c_str());
  json.AddResult("naive_per_job", naive_ms);
  json.AddResult("engine_cold_1_thread", cold_ms, naive_ms / cold_ms);
  json.AddResult("engine_cold_parallel", parallel_ms, naive_ms / parallel_ms);
  json.AddScalar("engine_parallel_workers", "count",
                 static_cast<double>(parallel->num_threads()));
  json.AddResult("engine_warm_cache", warm_ms, naive_ms / warm_ms);
  if (multi_core) {
    // A real multi-thread batch must beat the 1-thread cold run by a
    // comfortable margin (the 40-job batch offers plenty of across-job
    // parallelism; 1.3x is conservative for >= 2 workers on shared CI
    // runners).
    double scaling = cold_ms / parallel_ms;
    std::printf("multi-thread scaling over 1 thread: %.2fx (floor 1.3x: "
                "%s)\n",
                scaling, scaling >= 1.3 ? "pass" : "FAIL");
    json.AddResult("engine_parallel_vs_1_thread", parallel_ms, scaling);
    json.AddGate("parallel_speedup_over_1_thread", scaling >= 1.3);
  }

  // ------------------------------------------------------------------
  // api-layer dispatch overhead. Two measurements:
  //
  //   1. The same 40 queries as direct core calls (each rebuilding its
  //      PrefixCounts) and as one api::QuerySpec batch through the
  //      engine — the only execution path the CLI, the wire and library
  //      callers share — reported as an informational ratio (a direct
  //      ratio gate would need cross-run timing stability the shared
  //      runners do not offer), with a bit-identity gate.
  //   2. The gate: a dispatch-dominated probe — many one-record MSS
  //      queries over tiny distinct records, so per-query time is
  //      essentially the query layer itself (validation, canonical-bytes
  //      fingerprinting, grouping, payload shaping) plus a negligible
  //      kernel. That per-query dispatch cost must stay under 2% of the
  //      QuerySpec batch's per-query time. The two sides differ by orders
  //      of magnitude, so the gate trips on a structural regression (an
  //      accidentally O(n) or allocation-heavy dispatch path), not on
  //      scheduler noise.
  engine::Engine query_engine({.num_threads = 1, .cache_capacity = 0});
  double direct_ms = 1e300, query_ms = 1e300;
  std::vector<double> direct_best;
  std::vector<api::QueryResult> query_results;
  for (int rep = 0; rep < 5; ++rep) {
    direct_ms = std::min(direct_ms, bench::TimeMs([&] {
      direct_best = RunNaive(*corpus, model, queries);
    }));
    query_ms = std::min(query_ms, bench::TimeMs([&] {
      query_results =
          std::move(query_engine.ExecuteQueries(*corpus, queries)).value();
    }));
  }
  int64_t api_mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (query_results[i].best().chi_square != direct_best[i]) {
      ++api_mismatches;
    }
  }
  std::printf(
      "\napi dispatch: direct core calls %s, engine QuerySpec batch %s "
      "(%.3fx, informational; bit-identical: %s)\n",
      bench::FormatMs(direct_ms).c_str(), bench::FormatMs(query_ms).c_str(),
      direct_ms / query_ms, api_mismatches == 0 ? "yes" : "NO — BUG");
  json.AddResult("api_direct_core_path", direct_ms);
  json.AddResult("api_engine_path", query_ms, direct_ms / query_ms);
  json.AddGate("engine_bit_identical_to_direct_core", api_mismatches == 0);

  const int64_t probe_records = 512;
  std::vector<std::string> probe_texts;
  probe_texts.reserve(static_cast<size_t>(probe_records));
  for (int64_t i = 0; i < probe_records; ++i) {
    seq::Sequence tiny = seq::GenerateNull(k, 16, rng);
    probe_texts.push_back(tiny.ToString(alphabet));
  }
  auto probe_corpus =
      engine::Corpus::FromStrings(probe_texts, alphabet.characters());
  if (!probe_corpus.ok()) {
    std::printf("corpus error: %s\n",
                probe_corpus.status().ToString().c_str());
    return 1;
  }
  std::vector<api::QuerySpec> probe_specs(
      static_cast<size_t>(probe_corpus->size()));
  for (int64_t i = 0; i < probe_corpus->size(); ++i) {
    probe_specs[static_cast<size_t>(i)].sequence_index = i;
  }
  engine::Engine probe_engine({.num_threads = 1, .cache_capacity = 0});
  double probe_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    probe_ms = std::min(probe_ms, bench::TimeMs([&] {
      (void)probe_engine.ExecuteQueries(*probe_corpus, probe_specs).value();
    }));
  }
  const double dispatch_per_query_ms =
      probe_ms / static_cast<double>(probe_records);
  const double batch_per_query_ms =
      query_ms / static_cast<double>(queries.size());
  const bool overhead_ok =
      dispatch_per_query_ms <= 0.02 * batch_per_query_ms;
  std::printf(
      "api dispatch cost: %.1fus/query (probe of %lld tiny records) vs "
      "%.2fms/query real batch — %.2f%% (<2%% gate: %s)\n",
      1000.0 * dispatch_per_query_ms,
      static_cast<long long>(probe_records), batch_per_query_ms,
      100.0 * dispatch_per_query_ms / batch_per_query_ms,
      overhead_ok ? "pass" : "FAIL");
  json.AddResult("api_dispatch_probe", probe_ms);
  json.AddGate("api_dispatch_overhead_under_2pct", overhead_ok);

  // ------------------------------------------------------------------
  // Point-query regime: many cheap parameterized queries per sequence
  // (minlen floors close to n — "score the most anomalous near-full
  // window"). Here each naive call's O(k·n) PrefixCounts rebuild is the
  // dominant cost, which is exactly what context reuse removes: the
  // engine pays the build once per record however many queries land on
  // it.
  std::vector<api::QuerySpec> point_queries;
  for (int64_t i = 0; i < corpus->size(); ++i) {
    for (int64_t back : {2, 4, 6, 8, 12, 16, 24, 32}) {
      api::QuerySpec spec;
      spec.sequence_index = i;
      spec.request = api::MinLengthQuery{n - back};
      point_queries.push_back(spec);
    }
  }
  std::vector<double> point_naive_best;
  double point_naive_ms = bench::TimeMs(
      [&] { point_naive_best = RunNaive(*corpus, model, point_queries); });
  engine::Engine point_engine({.num_threads = 1, .cache_capacity = 4096});
  std::vector<api::QueryResult> point_results;
  double point_cold_ms = bench::TimeMs([&] {
    point_results = std::move(point_engine.ExecuteQueries(*corpus,
                                                          point_queries))
                        .value();
  });
  int64_t point_mismatches = 0;
  for (size_t i = 0; i < point_queries.size(); ++i) {
    if (point_results[i].best().chi_square != point_naive_best[i]) {
      ++point_mismatches;
    }
  }
  std::printf(
      "\npoint queries (%zu minlen queries, floors near n): bit-identical: "
      "%s\n\n",
      point_queries.size(), point_mismatches == 0 ? "yes" : "NO — BUG");
  json.AddGate("point_query_bit_identical", point_mismatches == 0);
  if (point_mismatches != 0) {
    json.Write();
    return 1;
  }

  io::TableWriter point_table({"mode", "time", "jobs/s", "speedup"});
  auto point_add = [&](const std::string& mode, double ms) {
    point_table.AddRow({mode, bench::FormatMs(ms),
                        StrFormat("%.0f",
                                  1000.0 * point_queries.size() / ms),
                        StrFormat("%.2fx", point_naive_ms / ms)});
  };
  point_add("naive per-job calls", point_naive_ms);
  point_add("engine cold (context reuse, 1 thread)", point_cold_ms);
  std::printf("%s", point_table.Render().c_str());
  json.AddResult("point_naive_per_job", point_naive_ms);
  json.AddResult("point_engine_cold_1_thread", point_cold_ms,
                 point_naive_ms / point_cold_ms);

  // ------------------------------------------------------------------
  // In-record sharding regime: ONE multi-megabyte record, one MSS job —
  // the case where a per-job engine pins a single worker however many
  // threads it has. Above the --shard-min threshold the engine splits
  // the record into strided core::MssShardScan shards across its pool.
  // Gate: the sharded X² is bit-identical to the sequential kernel's.
  const int64_t big_n = bench::FastMode() ? 300000 : 4000000;
  seq::Sequence big = seq::GenerateNull(k, big_n, rng);
  std::string big_text = big.ToString(alphabet);
  big_text.replace(static_cast<size_t>(big_n / 2),
                   static_cast<size_t>(big_n / 100),
                   std::string(static_cast<size_t>(big_n / 100), 'a'));
  auto big_corpus = engine::Corpus::FromStrings({big_text},
                                                alphabet.characters());
  if (!big_corpus.ok()) {
    std::printf("corpus error: %s\n",
                big_corpus.status().ToString().c_str());
    return 1;
  }
  auto direct = core::FindMss(big_corpus->sequence(0), model);
  engine::Engine pinned({.num_threads = 0,
                         .cache_capacity = 0,
                         .shard_min_sequence = 0});
  engine::Engine shard_engine({.num_threads = 0,
                               .cache_capacity = 0,
                               .shard_min_sequence = 1});
  const std::vector<api::QuerySpec> big_mss(1);  // MSS on record 0.
  std::vector<api::QueryResult> pinned_results, shard_results;
  double pinned_ms = bench::TimeMs([&] {
    pinned_results =
        std::move(pinned.ExecuteQueries(*big_corpus, big_mss)).value();
  });
  double shard_ms = bench::TimeMs([&] {
    shard_results =
        std::move(shard_engine.ExecuteQueries(*big_corpus, big_mss)).value();
  });
  bool shard_identical =
      pinned_results[0].best().chi_square == direct->best.chi_square &&
      shard_results[0].best().chi_square == direct->best.chi_square;
  std::printf(
      "\none %lld-symbol record, 1 MSS job (%d workers): sharded X² "
      "bit-identical: %s\n",
      static_cast<long long>(big_n), shard_engine.num_threads(),
      shard_identical ? "yes" : "NO — BUG");
  json.AddGate("sharded_bit_identical", shard_identical);

  io::TableWriter shard_table({"mode", "time", "speedup"});
  shard_table.AddRow({"engine, record pins one worker",
                      bench::FormatMs(pinned_ms), "1.00x"});
  shard_table.AddRow(
      {StrCat("engine, in-record sharding (", shard_engine.num_threads(),
              " shards)"),
       bench::FormatMs(shard_ms),
       StrFormat("%.2fx", pinned_ms / shard_ms)});
  std::printf("%s", shard_table.Render().c_str());
  json.AddResult("one_record_pinned_worker", pinned_ms);
  json.AddResult("one_record_sharded", shard_ms, pinned_ms / shard_ms);

  if (!json.Write()) return 1;
  return json.AllGatesPass() ? 0 : 1;
}
