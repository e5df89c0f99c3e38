// wire_mixed: mixed QUERY and STREAM.APPEND traffic through sigsubd
// (server::Server in-process on loopback) — the only workload that goes
// through the protocol, the admission queue and executor batching.
//
// Set-up: Corpus::FromLines of ~5 MB of k=4 records, Server construction
// with a fresh state_dir (journal on, FsyncPolicy::kNone), Server::Start
// and one PING round trip. Then two phases over one seeded request stream:
//
//   closed loop  one connection keeps kWindow requests in flight (the
//                default per-client quota, so nothing is shed) -> qps.
//   open loop    kOpenLoopRate requests/s, fixed (see its comment): one
//                sender thread spreads requests over two connections, one
//                reader thread collects the replies; each request is timed
//                from when it was due -> query/append latency percentiles.
//
// Every reply is checked afterwards against an in-process replay:
// QUERY replies against protocol::FormatQueryResult of a fresh engine's
// result (ignoring only the cache= flag, which depends on how requests
// were sliced), STREAM.APPEND replies against a StreamManager replay.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/serde.h"
#include "core/chi_square.h"
#include "core/length_bounded.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/suffix_scan.h"
#include "core/threshold.h"
#include "core/top_t.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/stream_manager.h"
#include "inputs.h"
#include "perfbench.h"
#include "persist/state_store.h"
#include "replay.h"
#include "seq/prefix_counts.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats/chi_squared.h"
#include "trace.h"
#include "wire.h"

namespace perfbench {
namespace {

using namespace sigsub;
namespace protocol = server::protocol;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Load-generator connections, each owning one stream (s0, s1).
constexpr int kConnections = 2;
/// Closed-loop window: the server's default per-client in-flight quota.
constexpr size_t kWindow = 32;
/// Open-loop offered rate, fixed in the workload. The closed loop reaches
/// 2-3.5k req/s on a 4-core x86-64 VM, but it batches: the engine runs a
/// slice on its worker plus the helping executor thread. An open loop
/// this sparse mostly sends one request per slice, served by one thread
/// at ~0.75 ms per query, so 400/s keeps that thread about 30% busy. At
/// 1000/s (a third of the closed-loop rate) queueing behind that one
/// thread doubled the median latency in slow stretches of the host.
constexpr double kOpenLoopRate = 400.0;
/// Closed-loop throughput is the median over windows of this many replies
/// (~0.2 s each at 2.5k req/s).
constexpr size_t kRateWindow = 512;
/// Share of --seconds spent in the closed loop; the rest is open loop.
constexpr double kClosedShare = 0.6;
/// Requests in the generated stream (more than any phase sends).
constexpr size_t kStreamLength = 1 << 17;
/// Requests the traced run sends and replays (a fixed set, so its counts
/// repeat exactly for a seed).
constexpr size_t kTracedRequests = 8192;
/// Seconds of open loop in the traced run (for client.late_ms_p99).
constexpr double kTracedOpenSeconds = 3.0;
/// Rows per reply: the server's default max_result_rows.
constexpr size_t kMaxRows = 64;

std::string CreateLine(int conn) {
  return "STREAM.CREATE s" + std::to_string(conn) +
         " probs=0.25;0.25;0.25;0.25";
}

/// The request line as connection `conn` sends it: appends go to the
/// stream that connection owns.
std::string Render(const WireInputs::Request& request, int conn) {
  return request.append ? "STREAM.APPEND s" + std::to_string(conn) + " " +
                              request.text
                        : request.text;
}

/// Requests the load generator shed (EBUSY/EQUOTA/EDRAIN) per STATS.
int64_t Shed(const std::string& stats) {
  return StatsField(stats, "shed_busy") + StatsField(stats, "shed_quota") +
         StatsField(stats, "shed_drain");
}

/// One sigsubd set-up: the server and the connection that PINGed it
/// (declared after the server, so it closes first and the server's drain
/// does not wait on it).
struct Daemon {
  std::unique_ptr<server::Server> server;
  std::optional<Conn> conn;
};

/// Loads the corpus, constructs and starts a server over a fresh state
/// directory and completes one PING: the set-up that setup_s times.
std::optional<Daemon> SetUp(const std::string& corpus_path,
                            const std::string& state_dir, Tracer& tracer,
                            double* seconds, std::string* error) {
  const Clock::time_point t0 = Clock::now();
  const int64_t load_span = tracer.Begin("io.load");
  auto corpus = engine::Corpus::FromLines(corpus_path);
  tracer.End(load_span);
  if (!corpus.ok()) {
    *error = "corpus load: " + corpus.status().message();
    return std::nullopt;
  }
  const int64_t start_span = tracer.Begin("server.setup");
  server::ServerOptions options;
  options.engine_threads = 1;
  options.state_dir = state_dir;
  options.fsync_policy = persist::FsyncPolicy::kNone;
  options.snapshot_interval_ms = 0;
  Daemon daemon;
  daemon.server = std::make_unique<server::Server>(std::move(corpus).value(),
                                                   options);
  Status started = daemon.server->Start();
  if (!started.ok()) {
    *error = "server start: " + started.message();
    return std::nullopt;
  }
  daemon.conn = Conn::Open(daemon.server->port());
  std::optional<std::string> pong;
  if (daemon.conn) pong = RoundTrip(*daemon.conn, "PING");
  tracer.End(start_span);
  *seconds = SecondsSince(t0);
  if (!pong || pong->rfind("OK", 0) != 0) {
    *error = "no PING reply";
    return std::nullopt;
  }
  return daemon;
}

bool CreateStream(Conn& conn, int index) {
  auto reply = RoundTrip(conn, CreateLine(index));
  return reply && reply->rfind("OK created", 0) == 0;
}

/// One request as sent: which stream request, on which connection, and
/// the reply it got.
struct Sent {
  size_t request = 0;
  int conn = 0;
  Reply reply;
};

/// Checks every reply against the in-process replay (see the file
/// comment); failures go to `report`.
void CheckReplies(const WireInputs& inputs, const std::string& corpus_path,
                  const std::vector<Sent>& sent, Report* report) {
  auto corpus = engine::Corpus::FromLines(corpus_path);
  if (!corpus.ok()) {
    report->Fail("check corpus load");
    return;
  }
  // Expected QUERY replies, one engine execution per distinct line.
  std::map<std::string, uint64_t> expected;
  std::vector<std::string> lines;
  std::vector<api::QuerySpec> specs;
  for (const Sent& s : sent) {
    const WireInputs::Request& request = inputs.requests[s.request];
    if (request.append || expected.count(request.text) > 0) continue;
    expected[request.text] = 0;
    auto parsed = protocol::ParseRequest(request.text);
    if (!parsed.ok()) {
      report->Fail("request refused in replay: " + request.text);
      continue;
    }
    lines.push_back(request.text);
    specs.push_back(parsed->query);
  }
  engine::EngineOptions options;
  options.num_threads = 2;
  options.cache_capacity = 0;
  engine::Engine engine(options);
  constexpr size_t kBatch = 256;
  for (size_t at = 0; at < specs.size(); at += kBatch) {
    const size_t end = std::min(specs.size(), at + kBatch);
    std::vector<api::QuerySpec> batch(specs.begin() + at, specs.begin() + end);
    auto results = engine.ExecuteQueries(*corpus, batch);
    if (!results.ok()) {
      report->Fail("replay batch: " + results.status().message());
      continue;
    }
    for (size_t j = 0; j < results->size(); ++j) {
      expected[lines[at + j]] =
          Digest("OK " + protocol::FormatQueryResult((*results)[j], kMaxRows))
              .digest;
    }
  }

  // Expected STREAM.APPEND replies: each connection's stream replayed in
  // its send order.
  engine::StreamManager streams;
  for (int c = 0; c < kConnections; ++c) {
    auto create = protocol::ParseRequest(CreateLine(c));
    if (!create.ok() ||
        !streams.CreateStream(create->stream, create->probs, create->detector)
             .ok()) {
      report->Fail("replay stream create");
      return;
    }
  }
  std::vector<const Sent*> in_order;
  for (const Sent& s : sent) in_order.push_back(&s);
  std::stable_sort(in_order.begin(), in_order.end(),
                   [](const Sent* a, const Sent* b) { return a->conn < b->conn; });

  for (const Sent* s : in_order) {
    const WireInputs::Request& request = inputs.requests[s->request];
    uint64_t want = 0;
    if (request.append) {
      auto parsed = protocol::ParseRequest(Render(request, s->conn));
      auto alarms = parsed.ok() ? streams.Append(parsed->stream, parsed->symbols)
                                : Result<int64_t>(parsed.status());
      if (alarms.ok()) want = Digest("OK alarms=" + std::to_string(*alarms)).digest;
    } else {
      want = expected[request.text];
    }
    if (s->reply.digest == 0) {
      report->Fail("no reply to request " + std::to_string(s->request));
    } else if (want == 0 || s->reply.digest != want) {
      report->Fail("reply mismatch for request " + std::to_string(s->request));
    }
  }
}

void AddNotes(const WireInputs& inputs, Report* report) {
  report->notes.push_back("inputs records=" +
                          std::to_string(inputs.num_records) +
                          " symbols=" + std::to_string(inputs.num_symbols) +
                          " loader=FromLines");
  report->notes.push_back(
      "load threads=2 connections=2 engine_threads=1 closed_window=" +
      std::to_string(kWindow) +
      " open_rate=" + std::to_string(static_cast<int>(kOpenLoopRate)) +
      "/s");
}

Report RunMeasured(const WireInputs& inputs, const Args& args,
                   const std::string& corpus_path, std::vector<double> setup_s,
                   Daemon daemon) {
  Report report;
  AddNotes(inputs, &report);
  Conn& a = *daemon.conn;
  std::optional<Conn> b = Conn::Open(daemon.server->port());
  if (!b || !CreateStream(a, 0) || !CreateStream(*b, 1)) {
    report.Fail("stream set-up");
    return report;
  }
  const std::vector<WireInputs::Request>& requests = inputs.requests;

  const PhaseResult closed = ClosedLoop(
      a, requests.size(), [&](size_t i) { return Render(requests[i], 0); },
      kWindow, args.seconds * kClosedShare);
  const size_t offset = closed.replies.size();
  const size_t open_count = std::min(
      requests.size() - offset,
      static_cast<size_t>(kOpenLoopRate * args.seconds * (1 - kClosedShare)));
  const PhaseResult open = OpenLoop(
      a, *b, open_count,
      [&](size_t i, int c) { return Render(requests[offset + i], c); },
      kOpenLoopRate);
  const double peak_rss_mb = PeakRssMb();
  const std::string stats = RoundTrip(a, "STATS").value_or("");
  b.reset();
  daemon.conn.reset();
  daemon.server.reset();  // Drains and joins the server.

  std::vector<Sent> sent;
  int64_t closed_done = 0;
  for (size_t i = 0; i < closed.replies.size(); ++i) {
    sent.push_back({i, 0, closed.replies[i]});
    closed_done += closed.replies[i].digest == 0 ? 0 : 1;
  }
  std::vector<double> query_ms, append_ms;
  for (size_t i = 0; i < open.replies.size(); ++i) {
    sent.push_back({offset + i, static_cast<int>(i % 2), open.replies[i]});
    if (open.replies[i].digest == 0) continue;
    (requests[offset + i].append ? append_ms : query_ms)
        .push_back(open.latency_ms[i]);
  }
  report.attempted = static_cast<int64_t>(sent.size());
  if (closed.connection_failed || open.connection_failed) {
    report.Fail("connection failed during the load phases");
  }
  CheckReplies(inputs, corpus_path, sent, &report);
  for (const PhaseResult* phase : {&closed, &open}) {
    for (const std::string& error : phase->errors) {
      report.notes.push_back("error reply: " + error);
    }
  }

  const int64_t shed = Shed(stats);
  report.Gate("setup_s", Median(setup_s), "s");
  // Short (self-test) phases have no whole window: use the phase mean.
  const std::vector<double> rates = closed.WindowRates(kRateWindow);
  report.Gate("qps",
              rates.empty() ? static_cast<double>(closed_done) /
                                  closed.elapsed_s
                            : Median(rates),
              "1/s");
  report.Gate("peak_rss_mb", peak_rss_mb, "MiB");
  report.Info("query_p50_ms", Median(query_ms), "ms");
  report.Info("query_p99_ms", Percentile(query_ms, 0.99), "ms");
  report.Info("append_p50_ms", Median(append_ms), "ms");
  report.Info("append_p99_ms", Percentile(append_ms, 0.99), "ms");
  report.Info("failed_share",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<int64_t>(1, report.attempted)),
              "fraction");
  report.Info("client.late_ms_p99", Percentile(open.late_ms, 0.99), "ms");
  report.Info("server.shed_share",
              static_cast<double>(shed) /
                  static_cast<double>(std::max<int64_t>(1, report.attempted)),
              "fraction");
  report.notes.push_back(
      "samples setup=" + std::to_string(setup_s.size()) +
      " closed=" + std::to_string(closed_done) +
      " closed_mean_qps=" +
      std::to_string(static_cast<double>(closed_done) / closed.elapsed_s) +
      " open_query=" + std::to_string(query_ms.size()) +
      " open_append=" + std::to_string(append_ms.size()) +
      " open_s=" + std::to_string(open.elapsed_s));
  std::string spread = "open_query_ms";
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    spread += " p" + std::to_string(static_cast<int>(q * 100)) + "=" +
              std::to_string(Percentile(query_ms, q));
  }
  spread += " late_ms_p50=" + std::to_string(Median(open.late_ms));
  report.notes.push_back(spread);
  return report;
}

/// The engine work of one replayed query re-done by direct calls: the
/// kind's interval kernel on the record's PrefixCounts, or the suffix
/// index build and sweep.
struct DirectStats {
  int64_t prefix_builds = 0;
  int64_t positions_examined = 0;
  int64_t trivial_positions = 0;
  int64_t suffix_symbols = 0;
  int64_t suffix_classes = 0;
  int64_t suffix_candidates = 0;
  int64_t suffix_queries = 0;
  double peak_index_per_sym = 0.0;
  double index_per_sym = 0.0;
};

void ReplayKernel(const api::QuerySpec& spec, const seq::Sequence& sequence,
                  const seq::PrefixCounts* counts,
                  const core::ChiSquareContext& context, int64_t parent,
                  int64_t request, Tracer& tracer, DirectStats* stats,
                  Report* report) {
  const int64_t n = sequence.size();
  core::ScanStats scan;
  bool interval = true;
  std::visit(
      [&](const auto& q) {
        using Q = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<Q, api::MssQuery>) {
          tracer.Time("core.interval.mss", parent, request,
                      [&] { scan = core::FindMss(*counts, context).stats; });
        } else if constexpr (std::is_same_v<Q, api::TopTQuery>) {
          tracer.Time("core.interval.topt", parent, request, [&] {
            scan = core::FindTopT(*counts, context, q.t).stats;
          });
        } else if constexpr (std::is_same_v<Q, api::ThresholdQuery>) {
          const double alpha0 =
              q.alpha_p >= 0.0
                  ? stats::ChiSquaredDistribution(kAlphabet - 1)
                        .CriticalValue(q.alpha_p)
                  : q.alpha0;
          core::ThresholdOptions options;
          options.max_matches = q.max_matches;
          tracer.Time("core.interval.threshold", parent, request, [&] {
            scan = core::FindAboveThreshold(*counts, context, alpha0, options)
                       .stats;
          });
        } else if constexpr (std::is_same_v<Q, api::MinLengthQuery>) {
          tracer.Time("core.interval.minlen", parent, request, [&] {
            scan = core::FindMssMinLength(*counts, context, q.min_length).stats;
          });
        } else if constexpr (std::is_same_v<Q, api::LengthBoundedQuery>) {
          const int64_t max_length = q.max_length == 0 ? n : q.max_length;
          if (n >= q.min_length && max_length >= q.min_length) {
            tracer.Time("core.interval.lenbound", parent, request, [&] {
              scan = core::FindMssLengthBounded(*counts, context, q.min_length,
                                                max_length)
                         .stats;
            });
          }
        } else if constexpr (std::is_same_v<Q, api::SubstringsQuery>) {
          interval = false;
          std::optional<core::SuffixScan> index;
          tracer.Time("core.suffix_build", parent, request, [&] {
            auto built = core::SuffixScan::Build(sequence.symbols(), kAlphabet);
            if (built.ok()) index.emplace(std::move(built).value());
          });
          if (!index) {
            report->Fail("direct suffix build");
            return;
          }
          std::optional<core::SuffixScanResult> direct;
          tracer.Time("core.suffix_sweep", parent, request, [&] {
            auto scanned = DirectSubstringsScan(*index, spec);
            if (scanned.ok()) direct.emplace(std::move(scanned).value());
          });
          if (!direct) {
            report->Fail("direct suffix sweep");
            return;
          }
          const double size = static_cast<double>(index->size());
          ++stats->suffix_queries;
          stats->suffix_symbols += index->size();
          stats->suffix_classes += direct->stats.classes_enumerated;
          stats->suffix_candidates += direct->stats.candidates_scored;
          stats->peak_index_per_sym =
              std::max(stats->peak_index_per_sym,
                       static_cast<double>(index->peak_index_bytes()) / size);
          stats->index_per_sym = std::max(
              stats->index_per_sym, static_cast<double>(index->index_bytes()) / size);
        } else {
          interval = false;  // Kinds this workload never sends.
        }
      },
      spec.request);
  if (interval) {
    stats->positions_examined += scan.positions_examined;
    stats->trivial_positions += core::TrivialScanPositions(n);
  }
}

Report RunTraced(const WireInputs& inputs, const Args& args,
                 const std::string& corpus_path, Tracer& tracer,
                 Daemon untraced) {
  Report report;
  AddNotes(inputs, &report);
  const std::vector<WireInputs::Request>& requests = inputs.requests;
  const size_t m = std::min(
      requests.size(),
      static_cast<size_t>(std::max(256.0, kTracedRequests * args.scale)));
  auto render0 = [&](size_t i) { return Render(requests[i], 0); };

  // Untraced and traced passes of the same m requests, each on a fresh
  // server: the difference is the tracing overhead.
  if (!CreateStream(*untraced.conn, 0)) {
    report.Fail("stream set-up");
    return report;
  }
  const PhaseResult plain =
      ClosedLoop(*untraced.conn, m, render0, kWindow, 1e9);
  untraced.conn.reset();
  untraced.server.reset();

  double ignored = 0.0;
  std::string error;
  std::optional<Daemon> daemon =
      SetUp(corpus_path, args.workdir + "/state-traced", tracer, &ignored,
            &error);
  std::optional<Conn> b;
  if (daemon) b = Conn::Open(daemon->server->port());
  if (!daemon || !b || !CreateStream(*daemon->conn, 0) ||
      !CreateStream(*b, 1)) {
    report.Fail("traced set-up: " + error);
    return report;
  }
  const PhaseResult traced =
      ClosedLoop(*daemon->conn, m, render0, kWindow, 1e9, &tracer);
  const std::string stats = RoundTrip(*daemon->conn, "STATS").value_or("");
  const size_t open_count = std::min(
      requests.size() - m,
      static_cast<size_t>(kOpenLoopRate *
                          std::min(kTracedOpenSeconds, args.seconds)));
  const PhaseResult open = OpenLoop(
      *daemon->conn, *b, open_count,
      [&](size_t i, int c) { return Render(requests[m + i], c); },
      kOpenLoopRate);
  b.reset();
  daemon.reset();
  report.attempted = static_cast<int64_t>(m);
  if (plain.connection_failed || traced.connection_failed ||
      open.connection_failed || traced.replies.size() != m) {
    report.Fail("connection failed during the traced passes");
    return report;
  }
  // The traced pass is checked against the replay below; the untraced
  // and open-loop passes must at least be answered without an error.
  for (const PhaseResult* phase : {&plain, &open}) {
    for (const Reply& reply : phase->replies) {
      if (!reply.ok) report.Fail("untraced or open-loop request not OK");
    }
  }

  // In-process replay of the same m requests in slices of the window
  // size, through the public function of each layer, in the order the
  // server runs them; the direct seq/core calls re-do each engine
  // span's work as its children.
  auto corpus_or = engine::Corpus::FromLines(corpus_path);
  auto context = core::ChiSquareContext::Make(
      std::vector<double>(kAlphabet, 1.0 / kAlphabet));
  engine::StreamManager streams;
  persist::RecoveryStats recovery;
  auto store = persist::StateStore::Open(
      args.workdir + "/state-replay",
      persist::StateStoreOptions{persist::FsyncPolicy::kNone, 0}, &streams,
      nullptr, &recovery);
  auto create = protocol::ParseRequest(CreateLine(0));
  if (!corpus_or.ok() || !context.ok() || !store.ok() || !create.ok() ||
      !store->RecordCreate(create->stream, create->probs, create->detector)
           .ok() ||
      !streams.CreateStream(create->stream, create->probs, create->detector)
           .ok()) {
    report.Fail("replay set-up");
    return report;
  }
  const engine::Corpus& corpus = *corpus_or;
  engine::Engine engine(engine::EngineOptions{});
  DirectStats direct;
  int64_t queries = 0;
  int64_t cache_hits = 0;
  for (size_t at = 0; at < m; at += kWindow) {
    const size_t end = std::min(m, at + kWindow);
    const int64_t slice = tracer.Begin("replay.slice");
    std::vector<protocol::Request> parsed(end - at);
    std::vector<api::QuerySpec> specs;
    std::vector<size_t> query_at;
    for (size_t i = at; i < end; ++i) {
      const std::string line = render0(i);
      const auto request = static_cast<int64_t>(i);
      bool ok = false;
      const int64_t wire_parse =
          tracer.Time("server.parse", slice, request, [&] {
            auto p = protocol::ParseRequest(line);
            ok = p.ok();
            if (ok) parsed[i - at] = std::move(p).value();
          });
      if (!ok) {
        report.Fail("request refused in replay: " + line);
        continue;
      }
      if (parsed[i - at].kind != protocol::CommandKind::kQuery) continue;
      // The ParseQuery inside ParseRequest, replayed on the spec text.
      tracer.Time("api.parse", wire_parse, request, [&] {
        ok = api::ParseQuery(std::string_view(line).substr(6)).ok();
      });
      std::string key;
      tracer.Time("api.canonical_key", slice, request, [&] {
        key = api::CanonicalQueryKey(parsed[i - at].query);
      });
      if (!ok || key.empty()) report.Fail("spec replay: " + line);
      specs.push_back(parsed[i - at].query);
      query_at.push_back(i);
    }
    std::vector<api::QueryResult> results;
    const int64_t exec = tracer.Time("engine.execute", slice, -1, [&] {
      auto executed = engine.ExecuteQueries(corpus, specs);
      if (executed.ok()) results = std::move(executed).value();
    });
    if (results.size() != specs.size()) {
      report.Fail("replay batch failed");
      tracer.End(slice);
      continue;
    }
    for (size_t j = 0; j < results.size(); ++j) {
      std::string line;
      tracer.Time("server.format", slice, static_cast<int64_t>(query_at[j]),
                  [&] {
                    line = protocol::FormatQueryResult(results[j], kMaxRows);
                  });
      if (Digest("OK " + line).digest !=
          traced.replies[query_at[j]].digest) {
        report.Fail("reply mismatch for request " +
                    std::to_string(query_at[j]));
      }
    }
    for (size_t i = at; i < end; ++i) {
      const protocol::Request& request = parsed[i - at];
      if (request.kind != protocol::CommandKind::kStreamAppend) continue;
      const auto id = static_cast<int64_t>(i);
      bool journaled = false;
      tracer.Time("persist.journal_append", slice, id, [&] {
        journaled = store->RecordAppend(request.stream, request.symbols).ok();
      });
      std::optional<int64_t> alarms;
      tracer.Time("engine.stream_append", slice, id, [&] {
        auto appended = streams.Append(request.stream, request.symbols);
        if (appended.ok()) alarms = *appended;
      });
      if (!journaled || !alarms ||
          traced.replies[i].digest !=
              Digest("OK alarms=" + std::to_string(*alarms)).digest) {
        report.Fail("append mismatch for request " + std::to_string(i));
      }
    }
    tracer.End(slice);

    // The engine's kernel work for this slice, re-done directly: one
    // PrefixCounts per distinct record among the slice's interval-kernel
    // misses (the engine's per-batch build), then each miss's kernel.
    std::map<int64_t, std::optional<seq::PrefixCounts>> counts;
    for (size_t j = 0; j < results.size(); ++j) {
      ++queries;
      if (results[j].cache_hit) {
        ++cache_hits;
        continue;
      }
      const api::QuerySpec& spec = specs[j];
      const int64_t record = spec.sequence_index;
      const seq::Sequence& sequence = corpus.sequence(record);
      std::optional<seq::PrefixCounts>* built = nullptr;
      if (spec.kind() != api::QueryKind::kSubstrings) {
        built = &counts[record];
        if (!built->has_value()) {
          tracer.Time("seq.prefix_counts", exec, -1,
                      [&] { built->emplace(sequence); });
          ++direct.prefix_builds;
        }
      }
      ReplayKernel(spec, sequence, built ? &built->value() : nullptr,
                   *context, exec, static_cast<int64_t>(query_at[j]), tracer,
                   &direct, &report);
    }
  }

  // Per-layer metrics from the spans and counts.
  std::map<std::string, double> layer;
  const double q = static_cast<double>(std::max<int64_t>(1, queries));
  auto mean_us = [&](const char* name) {
    const Tracer::Totals t = tracer.Sum(name);
    return t.count > 0 ? t.total_ms * 1e3 / static_cast<double>(t.count) : 0.0;
  };
  auto mean_ms = [&](const char* name) { return mean_us(name) / 1e3; };
  layer["io.load_ms"] = mean_ms("io.load");
  layer["seq.prefix_counts_us"] = mean_us("seq.prefix_counts");
  layer["seq.prefix_counts_builds_per_query"] =
      static_cast<double>(direct.prefix_builds) / q;
  for (const char* kind : {"mss", "topt", "threshold", "minlen", "lenbound"}) {
    layer[std::string("core.interval_ms.") + kind] =
        mean_ms((std::string("core.interval.") + kind).c_str());
  }
  layer["core.positions_examined_share"] =
      static_cast<double>(direct.positions_examined) /
      static_cast<double>(std::max<int64_t>(1, direct.trivial_positions));
  const Tracer::Totals build = tracer.Sum("core.suffix_build");
  const double suffix_q =
      static_cast<double>(std::max<int64_t>(1, direct.suffix_queries));
  layer["core.suffix_build_ms"] = build.total_ms / suffix_q;
  layer["core.suffix_build_msym_s"] =
      build.total_ms > 0.0
          ? static_cast<double>(direct.suffix_symbols) / (build.total_ms * 1e3)
          : 0.0;
  layer["core.suffix_sweep_ms"] =
      tracer.Sum("core.suffix_sweep").total_ms / suffix_q;
  layer["core.suffix_classes_enumerated"] =
      static_cast<double>(direct.suffix_classes) / suffix_q;
  layer["core.suffix_candidates_scored"] =
      static_cast<double>(direct.suffix_candidates) / suffix_q;
  layer["core.suffix_peak_index_bytes_per_sym"] = direct.peak_index_per_sym;
  layer["core.suffix_index_bytes_per_sym"] = direct.index_per_sym;
  layer["api.parse_us"] = mean_us("api.parse");
  layer["api.canonical_key_us"] = mean_us("api.canonical_key");
  const Tracer::Totals exec = tracer.Sum("engine.execute");
  layer["engine.execute_ms"] = exec.total_ms / q;
  layer["engine.self_ms"] = exec.self_ms / q;
  layer["engine.cache_hit_share"] = static_cast<double>(cache_hits) / q;
  layer["engine.stream_append_us"] = mean_us("engine.stream_append");
  layer["persist.journal_append_us"] = mean_us("persist.journal_append");
  const Tracer::Totals wire_parse = tracer.Sum("server.parse");
  layer["server.parse_us"] =
      wire_parse.self_ms * 1e3 / static_cast<double>(wire_parse.count);
  layer["server.format_us"] = mean_us("server.format");
  const double replay_ms = wire_parse.total_ms + exec.total_ms +
                           tracer.Sum("server.format").total_ms +
                           tracer.Sum("persist.journal_append").total_ms +
                           tracer.Sum("engine.stream_append").total_ms;
  layer["server.self_ms"] =
      (traced.elapsed_s * 1e3 - replay_ms) / static_cast<double>(m);
  const int64_t batches = StatsField(stats, "batches");
  layer["server.queries_per_batch"] =
      static_cast<double>(StatsField(stats, "queries")) /
      static_cast<double>(std::max<int64_t>(1, batches));
  const int64_t shed = Shed(stats);
  layer["server.shed_share"] =
      static_cast<double>(shed) / static_cast<double>(m);
  layer["client.late_ms_p99"] = Percentile(open.late_ms, 0.99);
  const double traced_qps = static_cast<double>(m) / traced.elapsed_s;
  const double plain_qps = static_cast<double>(m) / plain.elapsed_s;
  layer["trace.wire_qps"] = traced_qps;
  layer["trace.overhead_share"] = 1.0 - traced_qps / plain_qps;
  GateLayerMetrics(layer, &report);
  report.notes.push_back("traced requests=" + std::to_string(m) +
                         " queries=" + std::to_string(queries) +
                         " untraced_qps=" + std::to_string(plain_qps) +
                         " spans=" + std::to_string(tracer.size()));
  if (!args.trace_out.empty()) {
    const std::string error_text = tracer.WriteJsonLines(args.trace_out);
    if (!error_text.empty()) report.notes.push_back(error_text);
  }
  return report;
}

}  // namespace

Report RunWireMixed(const Args& args) {
  WireInputs inputs = MakeWireInputs(args.seed, args.scale, kStreamLength);
  const std::string corpus_path = args.workdir + "/corpus.txt";
  {
    std::string file;
    for (const std::string& record : inputs.records) {
      file += record;
      file += '\n';
    }
    const std::string error = WriteFile(corpus_path, file);
    if (!error.empty()) {
      Report report;
      report.Fail(error);
      return report;
    }
    std::vector<std::string>().swap(inputs.records);  // Only the file now.
  }

  Tracer tracer;
  std::vector<double> setup_s;
  std::optional<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    double seconds = 0.0;
    std::string error;
    daemon = SetUp(corpus_path, args.workdir + "/state-" + std::to_string(i),
                   tracer, &seconds, &error);
    if (!daemon) {
      Report report;
      report.Fail("set-up: " + error);
      return report;
    }
    setup_s.push_back(seconds);
  }
  return args.trace ? RunTraced(inputs, args, corpus_path, tracer,
                                std::move(*daemon))
                    : RunMeasured(inputs, args, corpus_path,
                                  std::move(setup_s), std::move(*daemon));
}

}  // namespace perfbench
