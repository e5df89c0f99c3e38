#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>
#include <variant>

#include <iostream>

#include "api/query.h"
#include "api/serde.h"
#include "common/fault_injection.h"
#include "common/posix_io.h"
#include "common/str_util.h"
#include "core/scan_types.h"
#include "core/significance.h"
#include "core/streaming.h"
#include "core/suffix_scan.h"
#include "core/x2_dispatch.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/engine_stats.h"
#include "engine/stream_manager.h"
#include "persist/journal.h"
#include "server/client.h"
#include "server/server.h"
#include "io/table_writer.h"
#include "seq/alphabet.h"
#include "seq/sequence.h"
#include "stats/chi_squared.h"
#include "stats/count_statistics.h"

namespace sigsub {
namespace cli {
namespace {

/// The commands, in the order of their bits in Flag::commands.
const char* const kCommands[] = {"mss",   "topt",       "threshold", "minlen",
                                 "score", "substrings", "batch",     "query",
                                 "stream", "serve",     "client"};
enum CommandBit : uint32_t {
  kMss = 1u << 0,
  kTopt = 1u << 1,
  kThreshold = 1u << 2,
  kMinlen = 1u << 3,
  kScore = 1u << 4,
  kSubstrings = 1u << 5,
  kBatch = 1u << 6,
  kQuery = 1u << 7,
  kStream = 1u << 8,
  kServe = 1u << 9,
  kClient = 1u << 10,
  kEveryCommand = (1u << 11) - 1,
};

/// Upper bound of --threads; 0 selects the hardware concurrency.
constexpr int64_t kMaxThreads = 1024;

/// Upper bound of the integer flags whose values reach int arithmetic:
/// the server's connection and in-flight caps are ints, the client makes
/// retries + 1 attempts, and the millisecond flags become now + N
/// deadlines and poll(2)'s int timeout (the backoff after a jitter of up
/// to 1.5x). 10^9 keeps each below INT_MAX; in milliseconds it is about
/// 11.6 days. --max-window takes the detector's own bound,
/// core::StreamingDetector::kMaxWindow, which is the same 10^9.
constexpr int64_t kMaxIntFlag = 1'000'000'000;
constexpr int64_t kNoMin = std::numeric_limits<int64_t>::min();

Result<double> ParseDouble(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrCat("flag ", flag, " expects a number, got \"", text, "\""));
  }
  // strtod reports overflow via ERANGE (returning ±HUGE_VAL): a silently
  // saturated threshold is worse than an error. Underflow to a denormal
  // or zero also sets ERANGE but is a faithful rounding, so only the
  // overflow case is rejected.
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    return Status::InvalidArgument(
        StrCat("flag ", flag, " value \"", text, "\" overflows a double"));
  }
  return value;
}

Result<int64_t> ParseInt(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrCat("flag ", flag, " expects an integer, got \"", text, "\""));
  }
  // Without this check strtoll silently clamps e.g.
  // --t=99999999999999999999 to LLONG_MAX.
  if (errno == ERANGE) {
    return Status::InvalidArgument(StrCat(
        "flag ", flag, " value \"", text, "\" is out of the 64-bit range"));
  }
  return static_cast<int64_t>(value);
}

// The four flags that parse in their own way.

Status ParseStringFlag(const std::string& value, CliOptions* options) {
  options->input_text = value;
  options->has_input_text = true;
  return Status::OK();
}

Status ParseProbsFlag(const std::string& value, CliOptions* options) {
  std::vector<double> probs;
  for (const std::string& part : StrSplit(value, ',')) {
    SIGSUB_ASSIGN_OR_RETURN(double p, ParseDouble(part, "--probs"));
    probs.push_back(p);
  }
  options->probs = std::move(probs);
  return Status::OK();
}

Status ParseThreadsFlag(const std::string& value, CliOptions* options) {
  SIGSUB_ASSIGN_OR_RETURN(int64_t threads, ParseInt(value, "--threads"));
  // Range-checked before the narrowing cast: 4294967297 would wrap to
  // 1, and a negative value would read as "hardware concurrency".
  if (threads < 0 || threads > kMaxThreads) {
    return Status::InvalidArgument(
        StrCat("--threads must be in [0, ", kMaxThreads,
               "] (0 = hardware concurrency), got ", threads));
  }
  options->threads = static_cast<int>(threads);
  return Status::OK();
}

Status ParseX2DispatchFlag(const std::string& value, CliOptions* options) {
  if (!core::ParseX2Dispatch(value, &options->x2_dispatch)) {
    return Status::InvalidArgument(
        StrCat("flag --x2-dispatch expects auto, scalar, or simd, got \"",
               value, "\""));
  }
  options->x2_dispatch_explicit = true;
  return Status::OK();
}

/// Where a flag's value goes: a CliOptions field of one of five shapes
/// (string, switch, int64, double, repeated string), or a parser of its
/// own.
using FlagParser = Status (*)(const std::string& value, CliOptions* options);
using FlagTarget =
    std::variant<std::string CliOptions::*, bool CliOptions::*,
                 int64_t CliOptions::*, double CliOptions::*,
                 std::vector<std::string> CliOptions::*, FlagParser>;

/// One row of the flag table: the name, the commands that take the flag
/// (CommandBit mask) and where its value goes. Integer flags refuse values
/// outside [min, max], naming the flag. A row without a min leaves the
/// lower bound to a rule with wording of its own (serve's three caps).
struct Flag {
  const char* name;
  uint32_t commands;
  FlagTarget target;
  int64_t min = kNoMin;
  int64_t max = std::numeric_limits<int64_t>::max();
};

/// Every flag: a flag missing here is unknown, and a flag given to a
/// command outside its mask is refused naming both. Rules between flags
/// live in ParseArgs; range checks that need the input (a --min-length
/// against the record length, --t >= 1 per job) live with the command.
constexpr Flag kFlags[] = {
    {"string", kEveryCommand, ParseStringFlag},
    {"input", kEveryCommand, &CliOptions::input_path},
    {"alphabet", kEveryCommand, &CliOptions::alphabet},
    {"probs", kEveryCommand, ParseProbsFlag},
    {"x2-dispatch", kEveryCommand, ParseX2DispatchFlag},
    {"threads", kMss | kBatch | kQuery | kServe, ParseThreadsFlag},
    {"t", kTopt | kBatch, &CliOptions::t},
    {"disjoint", kTopt, &CliOptions::disjoint},
    {"min-length", kTopt | kMinlen | kSubstrings | kBatch,
     &CliOptions::min_length},
    {"alpha0", kThreshold | kSubstrings | kBatch, &CliOptions::alpha0},
    {"pvalue", kThreshold | kBatch, &CliOptions::pvalue},
    {"alpha-p", kSubstrings | kBatch, &CliOptions::alpha_p},
    {"start", kScore, &CliOptions::start},
    {"end", kScore, &CliOptions::end},
    {"top", kSubstrings, &CliOptions::top},
    {"max-length", kSubstrings, &CliOptions::max_length},
    {"min-count", kSubstrings, &CliOptions::min_count},
    {"all", kSubstrings, &CliOptions::all_substrings},
    {"positions", kSubstrings, &CliOptions::positions},
    {"mmap", kSubstrings, &CliOptions::mmap},
    {"job", kBatch, &CliOptions::job},
    {"verbose", kBatch, &CliOptions::verbose},
    {"query", kQuery, &CliOptions::queries},
    {"queries-file", kQuery, &CliOptions::queries_file},
    {"format", kBatch | kQuery | kServe, &CliOptions::format},
    {"column", kBatch | kQuery | kServe, &CliOptions::column},
    {"csv-header", kBatch | kQuery | kServe, &CliOptions::csv_header},
    {"cache", kSubstrings | kBatch | kQuery | kServe, &CliOptions::cache, 0},
    {"shard-min", kBatch | kQuery | kServe, &CliOptions::shard_min},
    {"alpha", kStream, &CliOptions::alpha},
    {"max-window", kStream, &CliOptions::max_window, 1,
     core::StreamingDetector::kMaxWindow},
    {"chunk", kStream, &CliOptions::chunk, 1},
    {"port", kServe | kClient, &CliOptions::port},
    {"host", kServe | kClient, &CliOptions::host},
    {"max-clients", kServe, &CliOptions::max_clients, kNoMin, kMaxIntFlag},
    {"max-queue", kServe, &CliOptions::max_queue},
    {"max-inflight", kServe, &CliOptions::max_inflight, kNoMin, kMaxIntFlag},
    {"idle-timeout-ms", kServe, &CliOptions::idle_timeout_ms},
    {"max-runtime-ms", kServe, &CliOptions::max_runtime_ms, 0, kMaxIntFlag},
    {"state-dir", kServe, &CliOptions::state_dir},
    {"fsync", kServe, &CliOptions::fsync},
    {"snapshot-interval-ms", kServe, &CliOptions::snapshot_interval_ms, 0},
    {"send", kClient, &CliOptions::sends},
    {"timeout-ms", kClient, &CliOptions::timeout_ms, 1, kMaxIntFlag},
    {"linger-ms", kClient, &CliOptions::linger_ms, 0, kMaxIntFlag},
    {"retries", kClient, &CliOptions::retries, 0, kMaxIntFlag},
    {"backoff-ms", kClient, &CliOptions::backoff_ms, 1, kMaxIntFlag},
};

/// Parses `value` into the row's target.
Status ApplyFlag(const Flag& flag, const std::string& value,
                 CliOptions* options) {
  const std::string dashed = StrCat("--", flag.name);
  return std::visit(
      [&](auto target) -> Status {
        using Target = decltype(target);
        if constexpr (std::is_same_v<Target, FlagParser>) {
          return target(value, options);
        } else if constexpr (std::is_same_v<Target, bool CliOptions::*>) {
          // `--csv-header=false` must not silently enable the switch.
          if (!value.empty()) {
            return Status::InvalidArgument(
                StrCat("flag ", dashed, " does not take a value"));
          }
          options->*target = true;
        } else if constexpr (std::is_same_v<Target, int64_t CliOptions::*>) {
          SIGSUB_ASSIGN_OR_RETURN(int64_t number, ParseInt(value, dashed));
          if (number < flag.min) {
            return Status::InvalidArgument(
                StrCat(dashed, " must be >= ", flag.min, ", got ", number));
          }
          if (number > flag.max) {
            return Status::InvalidArgument(
                StrCat(dashed, " must be <= ", flag.max, ", got ", number));
          }
          options->*target = number;
        } else if constexpr (std::is_same_v<Target, double CliOptions::*>) {
          SIGSUB_ASSIGN_OR_RETURN(options->*target, ParseDouble(value, dashed));
        } else if constexpr (std::is_same_v<Target,
                                            std::vector<std::string>
                                                CliOptions::*>) {
          (options->*target).push_back(value);
        } else {
          options->*target = value;
        }
        return Status::OK();
      },
      flag.target);
}

/// Trims trailing newlines/whitespace, which files (and piped stdin)
/// routinely carry. Shared by file and stdin ingestion so the two can
/// never diverge.
void TrimTrailingWhitespace(std::string* text) {
  while (!text->empty() &&
         (text->back() == '\n' || text->back() == '\r' ||
          text->back() == ' ' || text->back() == '\t')) {
    text->pop_back();
  }
}

Result<std::string> LoadInput(const CliOptions& options) {
  if (options.has_input_text) return options.input_text;
  std::ifstream in(options.input_path);
  if (!in) {
    return Status::IOError(
        StrCat("cannot open '", options.input_path, "'"));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  TrimTrailingWhitespace(&text);
  return text;
}

/// Resolves the threshold commands' X² cutoff from --alpha0 / --pvalue
/// (the p-value takes precedence and prints its derivation banner).
/// `what` names the failing command in the error.
Result<double> ResolveAlpha0(const CliOptions& options, int k,
                             std::ostream& out, const char* what) {
  double alpha0 = options.alpha0;
  if (options.pvalue > 1.0) {
    return Status::InvalidArgument(
        StrCat("--pvalue must be in (0, 1], got ", options.pvalue));
  }
  if (options.pvalue > 0.0) {
    alpha0 = stats::ChiSquareThresholdForPValue(options.pvalue, k);
    out << "alpha0 = " << StrFormat("%.4f", alpha0) << " (p-value "
        << StrFormat("%.3g", options.pvalue) << ")\n";
  }
  if (alpha0 < 0.0) {
    return Status::InvalidArgument(
        StrCat(what, " needs --alpha0 or --pvalue"));
  }
  return alpha0;
}

/// Loads the corpus for the corpus-shaped commands (`batch`, `query`):
/// a lines/CSV file, or (query only) a single --string record.
Result<engine::Corpus> LoadCorpus(const CliOptions& options) {
  if (options.has_input_text) {
    return engine::Corpus::FromStrings({options.input_text},
                                       options.alphabet);
  }
  if (options.format == "csv") {
    return engine::Corpus::FromCsvColumn(options.input_path, options.column,
                                         options.csv_header,
                                         options.alphabet);
  }
  return engine::Corpus::FromLines(options.input_path, options.alphabet);
}

engine::EngineOptions EngineOptionsFrom(const CliOptions& options) {
  engine::EngineOptions engine_options;
  engine_options.num_threads = options.threads;
  engine_options.cache_capacity = static_cast<size_t>(options.cache);
  engine_options.shard_min_sequence = options.shard_min;
  engine_options.x2_dispatch = options.x2_dispatch;
  return engine_options;
}

/// The last line of the engine-backed reports (batch, query, substrings).
std::string CacheFooter(const engine::Engine& engine) {
  const engine::CacheStats stats = engine.cache_stats();
  return StrCat("cache: ", stats.hits, " hits, ", stats.misses, " misses (",
                engine.cache_size(), " entries)\n");
}

/// Parses `--job`: api::ParseQueryKind limited to the first five kinds
/// (mss, topt, disjoint, threshold, minlen), the ones whose parameters
/// have flags.
Result<api::QueryKind> ParseJobFlag(const std::string& job) {
  Result<api::QueryKind> kind = api::ParseQueryKind(job);
  if (kind.ok() && *kind <= api::QueryKind::kMinLength) return kind;
  return Status::InvalidArgument(
      StrCat("unknown job kind \"", job,
             "\" (expected mss|topt|disjoint|threshold|minlen)"));
}

/// Lowers the mining flags to one query of `kind` on record 0: the one
/// flags-to-QuerySpec path of the single-string mining commands, of
/// `substrings` and of `batch`, which replicates it per record. Each
/// command range-checks the flags first, in its own vocabulary. `alpha0`
/// is the resolved X² cutoff; a set --alpha-p travels as the query's
/// alpha_p and wins.
api::QuerySpec QueryFromFlags(const CliOptions& options, api::QueryKind kind,
                              double alpha0, int64_t max_matches) {
  api::QuerySpec spec;
  if (!options.probs.empty()) {
    spec.model = api::ModelSpec::Multinomial(options.probs);
  }
  switch (kind) {
    case api::QueryKind::kTopT:
      spec.request = api::TopTQuery{options.t};
      break;
    case api::QueryKind::kTopDisjoint:
      spec.request =
          api::TopDisjointQuery{options.t, options.min_length, 0.0};
      break;
    case api::QueryKind::kThreshold:
      spec.request =
          api::ThresholdQuery{alpha0, options.alpha_p, max_matches};
      break;
    case api::QueryKind::kMinLength:
      spec.request = api::MinLengthQuery{options.min_length};
      break;
    case api::QueryKind::kSubstrings:
      spec.request = api::SubstringsQuery{.top = options.top,
                                          .min_length = options.min_length,
                                          .max_length = options.max_length,
                                          .min_count = options.min_count,
                                          .maximal = !options.all_substrings,
                                          .alpha0 = alpha0,
                                          .alpha_p = options.alpha_p};
      break;
    default:  // kMss: the default request.
      break;
  }
  return spec;
}

/// Executes the `batch` command: the job flags are lowered to one query
/// (QueryFromFlags), replicated per record, and fanned across the engine.
Result<std::string> RunBatch(const CliOptions& options) {
  SIGSUB_ASSIGN_OR_RETURN(engine::Corpus corpus, LoadCorpus(options));
  SIGSUB_ASSIGN_OR_RETURN(api::QueryKind kind, ParseJobFlag(options.job));
  const int k = corpus.alphabet().size();

  // Range checks the user expressed as flags are reported in flag
  // vocabulary here; only value-level model validation (normalization,
  // positivity) is left to the engine's query-layer messages.
  if (!options.probs.empty() &&
      static_cast<int>(options.probs.size()) != k) {
    return Status::InvalidArgument(
        StrCat("--probs has ", options.probs.size(),
               " probabilities but the corpus alphabet has ", k,
               " symbols"));
  }
  if ((kind == api::QueryKind::kTopT ||
       kind == api::QueryKind::kTopDisjoint) &&
      options.t < 1) {
    return Status::InvalidArgument(
        StrCat("--t must be >= 1, got ", options.t));
  }
  if ((kind == api::QueryKind::kMinLength ||
       kind == api::QueryKind::kTopDisjoint) &&
      options.min_length < 1) {
    return Status::InvalidArgument(
        StrCat("--min-length must be >= 1, got ", options.min_length));
  }
  std::ostringstream out;
  // Cutoff precedence: --alpha-p (engine-side χ²(k−1) critical value)
  // wins over --pvalue/--alpha0 (CLI-side resolution). A significance
  // level is the principled spelling; a raw X² cutoff must not silently
  // override it.
  double alpha0 = -1.0;
  if (kind == api::QueryKind::kThreshold && options.alpha_p < 0.0) {
    SIGSUB_ASSIGN_OR_RETURN(
        alpha0, ResolveAlpha0(options, k, out, "batch --job=threshold"));
  }
  // Threshold jobs count + keep the best only; rows stay one-per-record.
  const api::QuerySpec query_template =
      QueryFromFlags(options, kind, alpha0, /*max_matches=*/0);

  engine::Engine engine(EngineOptionsFrom(options));
  std::vector<api::QuerySpec> queries(static_cast<size_t>(corpus.size()),
                                      query_template);
  for (int64_t i = 0; i < corpus.size(); ++i) {
    queries[static_cast<size_t>(i)].sequence_index = i;
  }
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(corpus, queries));

  out << "corpus: " << corpus.size() << " records, k = " << k
      << ", job = " << api::QueryKindToString(query_template.kind())
      << ", threads = " << engine.num_threads() << "\n";

  if (kind == api::QueryKind::kThreshold) {
    io::TableWriter table(
        {"record", "n", "matches", "best_start", "best_end", "best_X2"});
    for (const api::QueryResult& result : results) {
      const core::Substring& best = result.best();
      bool any = result.match_count() > 0;
      table.AddRow({std::to_string(
                        corpus.source_index(result.sequence_index)),
                    std::to_string(corpus.sequence(result.sequence_index)
                                       .size()),
                    std::to_string(result.match_count()),
                    any ? std::to_string(best.start) : std::string("-"),
                    any ? std::to_string(best.end) : std::string("-"),
                    any ? StrFormat("%.4f", best.chi_square)
                        : std::string("-")});
    }
    out << table.Render();
  } else if (kind == api::QueryKind::kTopT ||
             kind == api::QueryKind::kTopDisjoint) {
    io::TableWriter table(
        {"record", "rank", "start", "end", "X2", "p-value"});
    for (const api::QueryResult& result : results) {
      std::span<const core::Substring> subs = result.substrings();
      if (subs.empty()) {
        // A record with no qualifying substring still gets a row, so it
        // cannot be mistaken for an unprocessed record.
        table.AddRow({std::to_string(
                          corpus.source_index(result.sequence_index)),
                      "-", "-", "-", "-", "-"});
        continue;
      }
      for (size_t rank = 0; rank < subs.size(); ++rank) {
        const core::Substring& sub = subs[rank];
        table.AddRow({std::to_string(
                          corpus.source_index(result.sequence_index)),
                      std::to_string(rank + 1), std::to_string(sub.start),
                      std::to_string(sub.end),
                      StrFormat("%.4f", sub.chi_square),
                      StrFormat("%.4g",
                                core::SubstringPValue(sub.chi_square, k))});
      }
    }
    out << table.Render();
  } else {
    io::TableWriter table(
        {"record", "n", "start", "end", "length", "X2", "p-value"});
    for (const api::QueryResult& result : results) {
      const core::Substring& best = result.best();
      bool any = best.length() > 0;  // minlen floor can exceed a record.
      table.AddRow({std::to_string(
                        corpus.source_index(result.sequence_index)),
                    std::to_string(corpus.sequence(result.sequence_index)
                                       .size()),
                    any ? std::to_string(best.start) : std::string("-"),
                    any ? std::to_string(best.end) : std::string("-"),
                    any ? std::to_string(best.length()) : std::string("-"),
                    any ? StrFormat("%.4f", best.chi_square)
                        : std::string("-"),
                    any ? StrFormat("%.4g",
                                    core::SubstringPValue(best.chi_square, k))
                        : std::string("-")});
    }
    out << table.Render();
  }

  out << CacheFooter(engine);
  if (options.verbose) {
    // The same snapshot + rendering the server's STATS endpoint uses
    // (engine/engine_stats.h) — one vocabulary for both surfaces.
    out << "stats: "
        << engine::FormatEngineStats(
               engine::CollectEngineStats(&engine, nullptr))
        << "\n";
  }
  return out.str();
}

/// Executes the `query` command: collect the serialized queries from
/// repeatable --query= flags and/or a --queries-file, parse them with
/// api::ParseQuery, execute the batch natively, and render one table row
/// per materialized substring.
Result<std::string> RunQuery(const CliOptions& options) {
  SIGSUB_ASSIGN_OR_RETURN(engine::Corpus corpus, LoadCorpus(options));

  std::vector<std::string> texts = options.queries;
  if (!options.queries_file.empty()) {
    std::ifstream in(options.queries_file);
    if (!in) {
      return Status::IOError(
          StrCat("cannot open '", options.queries_file, "'"));
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::string_view trimmed = line;
      while (!trimmed.empty() && (trimmed.front() == ' ' ||
                                  trimmed.front() == '\t')) {
        trimmed.remove_prefix(1);
      }
      if (trimmed.empty() || trimmed.front() == '#') continue;
      texts.emplace_back(trimmed);
    }
  }
  if (texts.empty()) {
    return Status::InvalidArgument(
        "query needs at least one --query=SPEC or a non-empty "
        "--queries-file");
  }

  std::vector<api::QuerySpec> specs;
  specs.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    Result<api::QuerySpec> spec = api::ParseQuery(texts[i]);
    if (!spec.ok()) {
      return Status::InvalidArgument(StrCat("query ", i, " \"", texts[i],
                                            "\": ",
                                            spec.status().message()));
    }
    specs.push_back(std::move(spec).value());
  }

  engine::Engine engine(EngineOptionsFrom(options));
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(corpus, specs));

  const int k = corpus.alphabet().size();
  std::ostringstream out;
  out << "corpus: " << corpus.size() << " records, k = " << k
      << ", queries = " << specs.size()
      << ", threads = " << engine.num_threads() << "\n";

  io::TableWriter table({"query", "kind", "record", "matches", "rank",
                         "start", "end", "length", "X2", "p-value"});
  for (size_t i = 0; i < results.size(); ++i) {
    const api::QueryResult& result = results[i];
    // Markov-statistic MSS converges to χ²(k(k−1)), not χ²(k−1).
    const bool markov =
        specs[i].model.kind == api::ModelKind::kMarkov;
    const int dof = markov ? k * (k - 1) : k - 1;
    const stats::ChiSquaredDistribution dist(dof);
    const std::string query_id = std::to_string(i);
    const std::string kind_name(api::QueryKindToString(result.kind));
    const std::string record = std::to_string(
        corpus.source_index(result.sequence_index));
    const std::string matches = std::to_string(result.match_count());
    std::span<const core::Substring> subs = result.substrings();
    if (subs.empty()) {
      table.AddRow({query_id, kind_name, record, matches, "-", "-", "-",
                    "-", "-", "-"});
      continue;
    }
    for (size_t rank = 0; rank < subs.size(); ++rank) {
      const core::Substring& sub = subs[rank];
      table.AddRow({query_id, kind_name, record, matches,
                    std::to_string(rank + 1), std::to_string(sub.start),
                    std::to_string(sub.end), std::to_string(sub.length()),
                    StrFormat("%.4f", sub.chi_square),
                    StrFormat("%.4g", dist.Sf(sub.chi_square))});
    }
  }
  out << table.Render();

  out << CacheFooter(engine);
  return out.str();
}

/// Executes the `substrings` command: all-substrings mining over one
/// record. The record is either memory-mapped in place (--mmap: no decoded
/// in-RAM copy, the suffix index reads through the byte→symbol table) or
/// loaded like the other single-string commands. The flags lower to one
/// substrings query (QueryFromFlags). The default path runs it through the
/// engine (shared validation, result cache); --positions scans the
/// record's suffix index directly under the same lowering
/// (engine::SuffixScanOptionsFor), since occurrence positions are
/// computed on request and never cached.
Result<std::string> RunSubstrings(const CliOptions& options) {
  Result<engine::Corpus> loaded =
      options.mmap
          ? engine::Corpus::FromMappedFile(options.input_path,
                                           options.alphabet)
          : [&]() -> Result<engine::Corpus> {
              SIGSUB_ASSIGN_OR_RETURN(std::string text, LoadInput(options));
              if (text.empty()) {
                return Status::InvalidArgument("input string is empty");
              }
              return engine::Corpus::FromStrings({text}, options.alphabet);
            }();
  SIGSUB_RETURN_IF_ERROR(loaded.status());
  const engine::Corpus corpus = std::move(loaded).value();
  const int k = corpus.alphabet().size();
  if (!options.probs.empty() &&
      static_cast<int>(options.probs.size()) != k) {
    return Status::InvalidArgument(
        StrCat("--probs has ", options.probs.size(),
               " probabilities but the record alphabet has ", k,
               " symbols"));
  }
  const std::string_view record = corpus.record_bytes(0);

  std::ostringstream out;
  out << "n = " << corpus.record_size(0) << ", k = " << k
      << (options.mmap ? ", mapped" : "") << "\n";

  // Rendered substring text column; long substrings are elided, the
  // start/end columns always identify them exactly.
  auto render_text = [&record](const core::Substring& sub) {
    constexpr int64_t kMaxShown = 24;
    if (sub.length() <= kMaxShown) {
      return StrCat("\"",
                    std::string(record.substr(
                        static_cast<size_t>(sub.start),
                        static_cast<size_t>(sub.length()))),
                    "\"");
    }
    return StrCat("\"",
                  std::string(record.substr(static_cast<size_t>(sub.start),
                                            kMaxShown)),
                  "\"... (", sub.length(), " symbols)");
  };
  io::TableWriter table({"rank", "start", "end", "length", "count", "X2",
                         "p-value", "substring"});
  auto add_row = [&](size_t rank, const core::Substring& sub, int64_t count,
                     double p_value) {
    table.AddRow({std::to_string(rank + 1), std::to_string(sub.start),
                  std::to_string(sub.end), std::to_string(sub.length()),
                  std::to_string(count), StrFormat("%.4f", sub.chi_square),
                  StrFormat("%.4g", p_value), render_text(sub)});
  };
  // The match-count line, then the rows added so far.
  auto render_table = [&](int64_t match_count) {
    const int64_t shown = static_cast<int64_t>(table.row_count());
    out << match_count << " matching substrings";
    if (match_count > shown) out << " (showing " << shown << ")";
    out << "\n";
    if (shown > 0) out << table.Render();
  };

  // A set --alpha-p travels as the query's alpha_p and wins; a negative
  // --alpha0 leaves the cutoff unset.
  const double alpha0 =
      options.alpha_p < 0.0 && options.alpha0 >= 0.0 ? options.alpha0 : -1.0;
  const api::QuerySpec spec = QueryFromFlags(
      options, api::QueryKind::kSubstrings, alpha0, /*max_matches=*/0);

  if (options.positions) {
    std::vector<double> probs = options.probs;
    if (probs.empty()) probs.assign(k, 1.0 / k);
    SIGSUB_ASSIGN_OR_RETURN(core::ChiSquareContext context,
                            core::ChiSquareContext::Make(std::move(probs)));
    core::SuffixScanOptions scan_options = engine::SuffixScanOptionsFor(
        std::get<api::SubstringsQuery>(spec.request), k, /*markov=*/false);
    scan_options.collect_positions = true;
    SIGSUB_ASSIGN_OR_RETURN(core::SuffixScan scan, corpus.BuildSuffixScan(0));
    SIGSUB_ASSIGN_OR_RETURN(core::SuffixScanResult result,
                            scan.Scan(context, scan_options));
    for (size_t i = 0; i < result.classes.size(); ++i) {
      add_row(i, result.classes[i].substring, result.classes[i].count,
              result.classes[i].p_value);
    }
    render_table(result.match_count);
    for (size_t i = 0; i < result.positions.size(); ++i) {
      out << "positions " << (i + 1) << ":";
      for (int64_t pos : result.positions[i]) out << " " << pos;
      out << "\n";
    }
    out << "classes: " << result.stats.classes_enumerated
        << " enumerated, " << result.stats.candidates_scored
        << " candidates scored; index: " << result.stats.index_bytes
        << " bytes (peak " << result.stats.peak_index_bytes << ")\n";
    return out.str();
  }

  engine::Engine engine(EngineOptionsFrom(options));
  SIGSUB_ASSIGN_OR_RETURN(std::vector<api::QueryResult> results,
                          engine.ExecuteQueries(corpus, {spec}));
  const auto& payload =
      std::get<api::SubstringsPayload>(results[0].payload);
  for (size_t i = 0; i < payload.ranked.size(); ++i) {
    add_row(i, payload.ranked[i], payload.counts[i], payload.p_values[i]);
  }
  render_table(payload.match_count);
  out << CacheFooter(engine);
  return out.str();
}

/// The effective fused-kernel selection, reported when the user passed
/// --x2-dispatch explicitly. A `simd` request on a host without AVX2
/// would otherwise degrade to scalar silently (x2_dispatch.h documents
/// the fallback); the report says so in so many words.
std::string DispatchReport(core::X2Dispatch requested) {
  const bool simd = core::SimdAvailable();
  switch (requested) {
    case core::X2Dispatch::kScalar:
      return "x2 dispatch: scalar (bit-reproducible)\n";
    case core::X2Dispatch::kSimd:
      if (simd) return "x2 dispatch: simd (AVX2 active)\n";
      return "x2 dispatch: scalar — WARNING: simd requested but AVX2 is "
             "unavailable on this host; using the scalar kernel\n";
    case core::X2Dispatch::kAuto:
      return simd ? "x2 dispatch: auto (simd, AVX2 available)\n"
                  : "x2 dispatch: auto (scalar; AVX2 unavailable)\n";
  }
  return "";
}

/// Executes the `stream` command: treat the input as one symbol stream,
/// ingest it in --chunk-sized AppendChunk calls through an
/// engine::StreamManager, and render the alarm log plus the calibration
/// summary.
Result<std::string> RunStream(const CliOptions& options) {
  std::string text;
  if (options.input_path == "-") {
    // Raw read(2) with EINTR retry (posix_io.h), not std::cin.rdbuf(): an
    // iostream read aborted by a signal mid-pipe silently truncates the
    // stream, and a truncated symbol stream is a wrong answer, not an
    // error.
    SIGSUB_ASSIGN_OR_RETURN(text, ReadFdToEof(0));
    TrimTrailingWhitespace(&text);
  } else {
    SIGSUB_ASSIGN_OR_RETURN(text, LoadInput(options));
  }
  if (text.empty()) {
    return Status::InvalidArgument("stream input is empty");
  }

  std::string alphabet_chars = options.alphabet;
  if (alphabet_chars.empty()) {
    alphabet_chars = engine::Corpus::InferAlphabetChars({text});
  }
  SIGSUB_ASSIGN_OR_RETURN(seq::Alphabet alphabet,
                          seq::Alphabet::FromCharacters(alphabet_chars));
  SIGSUB_ASSIGN_OR_RETURN(seq::Sequence sequence,
                          seq::Sequence::FromString(alphabet, text));
  std::vector<double> probs = options.probs;
  if (probs.empty()) {
    probs.assign(alphabet.size(), 1.0 / alphabet.size());
  }

  engine::StreamManagerOptions manager_options;
  manager_options.max_alarms_per_stream = 1024;
  manager_options.x2_dispatch = options.x2_dispatch;
  engine::StreamManager manager(manager_options);

  core::StreamingDetector::Options detector_options;
  detector_options.alpha = options.alpha;
  detector_options.max_window = options.max_window;
  const std::string name =
      options.has_input_text
          ? std::string("string")
          : (options.input_path == "-" ? std::string("stdin")
                                       : options.input_path);
  SIGSUB_RETURN_IF_ERROR(manager.CreateStream(name, probs, detector_options));

  std::span<const uint8_t> symbols = sequence.symbols();
  for (size_t offset = 0; offset < symbols.size();
       offset += static_cast<size_t>(options.chunk)) {
    const size_t chunk = std::min(static_cast<size_t>(options.chunk),
                                  symbols.size() - offset);
    SIGSUB_RETURN_IF_ERROR(
        manager.Append(name, symbols.subspan(offset, chunk)).status());
  }
  SIGSUB_ASSIGN_OR_RETURN(engine::StreamSnapshot snapshot,
                          manager.Snapshot(name));

  const int k = alphabet.size();
  std::ostringstream out;
  out << "stream \"" << name << "\": n = " << snapshot.position
      << ", k = " << k << ", chunk = " << options.chunk << "\n";
  out << "scales:";
  for (int64_t scale : snapshot.scales) out << " " << scale;
  out << "\n";
  out << "per-scale X2 threshold = "
      << StrFormat("%.4f", snapshot.thresholds.empty()
                               ? 0.0
                               : snapshot.thresholds.front())
      << " (alpha " << StrFormat("%.3g", options.alpha)
      << ", Sidak over " << snapshot.scales.size() << " scales, chi2(k-1))\n";

  out << "alarms: " << snapshot.alarms_total;
  if (snapshot.alarms_dropped > 0) {
    out << " (showing last " << snapshot.recent_alarms.size() << ")";
  }
  out << "\n";
  if (!snapshot.recent_alarms.empty()) {
    io::TableWriter table({"end", "length", "X2", "p-value"});
    for (const core::StreamingDetector::Alarm& alarm :
         snapshot.recent_alarms) {
      table.AddRow({std::to_string(alarm.end), std::to_string(alarm.length),
                    StrFormat("%.4f", alarm.chi_square),
                    StrFormat("%.4g", alarm.p_value)});
    }
    out << table.Render();
  }
  return out.str();
}

/// The live server behind the `serve` command, latched for the signal
/// handler. RequestDrain is async-signal-safe (one atomic store + one
/// pipe write), so the handler may call it directly.
std::atomic<server::Server*> g_serve_instance{nullptr};

void HandleServeSignal(int /*signum*/) {
  server::Server* instance = g_serve_instance.load(std::memory_order_acquire);
  if (instance != nullptr) instance->RequestDrain();
}

/// Executes the `serve` command: load the corpus, start sigsubd, print
/// the listening banner immediately (scripts need the ephemeral port
/// before the daemon exits), then block until a SIGTERM/SIGINT-initiated
/// drain — or self-drain after --max-runtime-ms. The returned report is
/// the post-drain counter summary.
Result<std::string> RunServe(const CliOptions& options) {
  SIGSUB_ASSIGN_OR_RETURN(engine::Corpus corpus, LoadCorpus(options));
  server::ServerOptions server_options;
  server_options.host = options.host;
  server_options.port = static_cast<int>(options.port);
  server_options.engine_threads = options.threads;
  server_options.cache_capacity = static_cast<size_t>(options.cache);
  server_options.shard_min_sequence = options.shard_min;
  server_options.x2_dispatch = options.x2_dispatch;
  server_options.max_connections = static_cast<int>(options.max_clients);
  server_options.max_queue = static_cast<size_t>(options.max_queue);
  server_options.max_inflight_per_client =
      static_cast<int>(options.max_inflight);
  server_options.idle_timeout_ms = options.idle_timeout_ms;
  server_options.state_dir = options.state_dir;
  SIGSUB_ASSIGN_OR_RETURN(server_options.fsync_policy,
                          persist::ParseFsyncPolicy(options.fsync));
  server_options.snapshot_interval_ms = options.snapshot_interval_ms;

  server::Server daemon(std::move(corpus), server_options);
  SIGSUB_RETURN_IF_ERROR(daemon.Start());
  g_serve_instance.store(&daemon, std::memory_order_release);
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  std::cout << "sigsubd listening on " << options.host << ":"
            << daemon.port() << "\n"
            << std::flush;
  if (!options.state_dir.empty()) {
    // The recovery line is part of the startup banner: operators (and
    // the crash-recovery tests) read it to confirm replay happened.
    const persist::RecoveryStats& r = daemon.recovery();
    std::cout << "sigsubd recovered: snapshot="
              << (r.snapshot_loaded ? 1 : 0) << " streams="
              << r.streams_restored << " journal_applied="
              << r.journal_records_applied << " journal_skipped="
              << r.journal_records_skipped << " journal_failed="
              << r.journal_records_failed << " truncated_bytes="
              << r.journal_bytes_truncated << " cache_entries="
              << r.cache_entries_loaded << "\n"
              << std::flush;
  }

  if (options.max_runtime_ms > 0) {
    const int64_t deadline = MonotonicMillis() + options.max_runtime_ms;
    while (!daemon.draining() && MonotonicMillis() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    daemon.RequestDrain();
  }
  daemon.Join();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_instance.store(nullptr, std::memory_order_release);

  server::ServerStats stats = daemon.stats();
  return StrCat("sigsubd drained: accepted=", stats.connections_accepted,
                " admitted=", stats.requests_admitted,
                " shed_busy=", stats.shed_busy,
                " shed_quota=", stats.shed_quota,
                " shed_drain=", stats.shed_drain,
                " proto_errors=", stats.protocol_errors,
                " alarms_pushed=", stats.alarms_pushed, "\n");
}

/// Executes the `client` command: send each protocol line in order,
/// print its reply (pushed ALARM lines pass through without consuming a
/// reply slot), then optionally linger for late pushes.
Result<std::string> RunClient(const CliOptions& options) {
  std::vector<std::string> commands = options.sends;
  if (!options.input_path.empty()) {
    std::string script;
    if (options.input_path == "-") {
      SIGSUB_ASSIGN_OR_RETURN(script, ReadFdToEof(0));
    } else {
      std::ifstream in(options.input_path);
      if (!in) {
        return Status::IOError(
            StrCat("cannot open '", options.input_path, "'"));
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      script = buffer.str();
    }
    for (const std::string& raw : StrSplit(script, '\n')) {
      std::string line = raw;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line.front() == '#') continue;
      commands.push_back(std::move(line));
    }
  }
  if (commands.empty()) {
    return Status::InvalidArgument(
        "client script is empty: nothing to send");
  }

  server::RetryPolicy retry;
  retry.retries = static_cast<int>(options.retries);
  retry.backoff_ms = options.backoff_ms;
  retry.timeout_ms = options.timeout_ms;
  SIGSUB_ASSIGN_OR_RETURN(
      server::LineClient connection,
      server::LineClient::ConnectWithRetry(
          options.host, static_cast<int>(options.port), retry));
  std::ostringstream out;
  for (const std::string& command : commands) {
    SIGSUB_RETURN_IF_ERROR(connection.SendLine(command));
    for (;;) {
      SIGSUB_ASSIGN_OR_RETURN(std::string reply,
                              connection.ReadLine(options.timeout_ms));
      out << reply << "\n";
      if (reply.rfind("ALARM ", 0) != 0) break;
    }
  }
  if (options.linger_ms > 0) {
    const int64_t deadline = MonotonicMillis() + options.linger_ms;
    for (;;) {
      int64_t remaining = deadline - MonotonicMillis();
      if (remaining <= 0) break;
      Result<std::string> line = connection.ReadLine(remaining);
      if (!line.ok()) break;  // Timeout or server-side close ends lingering.
      out << *line << "\n";
    }
  }
  return out.str();
}

std::string RenderSubstring(const core::Substring& sub, int k,
                            const std::string& text) {
  io::TableWriter table({"start", "end", "length", "X2", "p-value"});
  table.AddRow({std::to_string(sub.start), std::to_string(sub.end),
                std::to_string(sub.length()),
                StrFormat("%.4f", sub.chi_square),
                StrFormat("%.4g", core::SubstringPValue(sub.chi_square, k))});
  std::string out = table.Render();
  if (sub.length() > 0 && sub.length() <= 64) {
    out += StrCat("text: \"",
                  text.substr(static_cast<size_t>(sub.start),
                              static_cast<size_t>(sub.length())),
                  "\"\n");
  }
  return out;
}

/// Executes the single-string mining commands (mss, topt, threshold,
/// minlen) through the engine: the command's own flag checks, one query
/// from QueryFromFlags over the one-record corpus `text`, and the
/// command's rendering of the result. `k` is the alphabet size and
/// `model_k` the size of the --probs model, validated by the caller.
Result<std::string> RunMining(const CliOptions& options,
                              const std::string& text,
                              const std::string& alphabet_chars, int64_t n,
                              int k, int model_k) {
  api::QueryKind kind = api::QueryKind::kMss;
  if (options.command == "topt") {
    kind = options.disjoint ? api::QueryKind::kTopDisjoint
                            : api::QueryKind::kTopT;
  } else if (options.command == "threshold") {
    kind = api::QueryKind::kThreshold;
  } else if (options.command == "minlen") {
    kind = api::QueryKind::kMinLength;
  }
  std::ostringstream out;
  out << "n = " << n << ", k = " << model_k << "\n";

  // Flag checks come first, in flag and kernel vocabulary (cli_test pins
  // the wording); the engine's validation would name query fields.
  if ((kind == api::QueryKind::kTopT ||
       kind == api::QueryKind::kTopDisjoint) &&
      options.t < 1) {
    return Status::InvalidArgument(
        StrCat("--t must be >= 1, got ", options.t));
  }
  double alpha0 = -1.0;
  if (kind == api::QueryKind::kThreshold) {
    SIGSUB_ASSIGN_OR_RETURN(alpha0,
                            ResolveAlpha0(options, model_k, out, "threshold"));
  }
  if (k != model_k) {
    return Status::InvalidArgument(
        StrCat("sequence alphabet size (", k, ") != model alphabet size (",
               model_k, ")"));
  }
  if (kind == api::QueryKind::kTopDisjoint && options.min_length < 1) {
    return Status::InvalidArgument(
        StrCat("min_length must be >= 1, got ", options.min_length));
  }
  // The engine would answer a floor above n with an empty best; a
  // single-string report has no row to show for it, so it is an error.
  if (kind == api::QueryKind::kMinLength &&
      (options.min_length < 1 || options.min_length > n)) {
    return Status::InvalidArgument(StrCat("min_length must be in [1, ", n,
                                          "], got ", options.min_length));
  }

  // Only `mss` takes --threads. Shards at any length: a pool of
  // min(threads, n) workers, so --threads=1 runs the sequential kernel.
  int64_t threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  engine::EngineOptions engine_options = EngineOptionsFrom(options);
  engine_options.num_threads = static_cast<int>(std::min(threads, n));
  engine_options.cache_capacity = 0;  // One query: nothing to reuse.
  engine_options.shard_min_sequence = 1;
  engine::Engine engine(engine_options);
  SIGSUB_ASSIGN_OR_RETURN(
      engine::Corpus corpus,
      engine::Corpus::FromStrings({text}, alphabet_chars));
  // The single-string threshold report lists up to 1000 matches.
  SIGSUB_ASSIGN_OR_RETURN(
      std::vector<api::QueryResult> results,
      engine.ExecuteQueries(
          corpus, {QueryFromFlags(options, kind, alpha0,
                                  /*max_matches=*/1000)}));
  const api::QueryResult& result = results[0];

  switch (kind) {
    case api::QueryKind::kMss:
      out << RenderSubstring(result.best(), k, text);
      out << "examined " << result.stats().positions_examined << " of "
          << core::TrivialScanPositions(n) << " candidate positions\n";
      break;
    case api::QueryKind::kTopT:
    case api::QueryKind::kTopDisjoint: {
      io::TableWriter table({"rank", "start", "end", "X2", "p-value"});
      std::span<const core::Substring> subs = result.substrings();
      for (size_t i = 0; i < subs.size(); ++i) {
        table.AddRow({std::to_string(i + 1), std::to_string(subs[i].start),
                      std::to_string(subs[i].end),
                      StrFormat("%.4f", subs[i].chi_square),
                      StrFormat("%.4g", core::SubstringPValue(
                                            subs[i].chi_square, k))});
      }
      out << table.Render();
      break;
    }
    case api::QueryKind::kThreshold: {
      std::span<const core::Substring> matches = result.substrings();
      out << result.match_count() << " substrings above " << alpha0;
      if (result.match_count() > static_cast<int64_t>(matches.size())) {
        out << " (showing " << matches.size() << ")";
      }
      out << "\n";
      io::TableWriter table({"start", "end", "X2"});
      for (const core::Substring& sub : matches) {
        table.AddRow({std::to_string(sub.start), std::to_string(sub.end),
                      StrFormat("%.4f", sub.chi_square)});
      }
      if (table.row_count() > 0) out << table.Render();
      break;
    }
    default:  // kMinLength: the floor check above guarantees a window.
      out << RenderSubstring(result.best(), k, text);
      break;
  }
  return out.str();
}

}  // namespace

std::string UsageText() {
  return
      "usage: sigsub_cli <command> [--flag=value ...]\n"
      "\n"
      "commands:\n"
      "  mss        most significant substring (Problem 1); --threads\n"
      "  topt       top-t substrings (Problem 2); --t, --disjoint\n"
      "  threshold  substrings above a threshold (Problem 3); --alpha0 or "
      "--pvalue\n"
      "  minlen     MSS above a length floor (Problem 4); --min-length\n"
      "  score      score one substring; --start, --end\n"
      "  substrings all statistically significant distinct substrings of\n"
      "             one record, each with its occurrence count, X2 and\n"
      "             p-value (suffix-array scan); --top (0 = all matches),\n"
      "             --min-length, --max-length, --min-count, --alpha0 or\n"
      "             --alpha-p, --all (every distinct substring, not just\n"
      "             class-maximal ones; needs --max-length), --positions\n"
      "             (list occurrence positions), --mmap (memory-map\n"
      "             --input and mine it in place, no decoded copy)\n"
      "  batch      mine a whole corpus (one record per line, or a CSV\n"
      "             column with --format=csv); --job=mss|topt|disjoint|\n"
      "             threshold|minlen, --threads, --cache, plus the job's\n"
      "             own flags (--t, --min-length, --alpha0, --pvalue,\n"
      "             --alpha-p; --alpha-p is an engine-side p-value cutoff\n"
      "             and wins over --alpha0/--pvalue when several are set)\n"
      "  query      run serialized queries against a corpus: repeatable\n"
      "             --query=kind:key=val,... (kinds mss|topt|disjoint|\n"
      "             threshold|minlen|lenbound|arlm|agmm|blocked; JSON\n"
      "             accepted too) and/or --queries-file=PATH (one per\n"
      "             line, # comments); corpus from --input or --string;\n"
      "             models live inside each query (model=uniform|\n"
      "             probs(p1;p2;...)|markov1(t11;...|i1;...))\n"
      "  stream     online monitoring: ingest the input as one symbol\n"
      "             stream in chunks and report calibrated suffix-window\n"
      "             alarms; --alpha, --max-window, --chunk (--input=-\n"
      "             reads stdin)\n"
      "  serve      run sigsubd, the mining daemon, over the --input\n"
      "             corpus: newline-delimited QUERY/STREAM.*/STATS\n"
      "             protocol over TCP; --port (0 = ephemeral), --host,\n"
      "             --threads, --max-clients, --max-queue, --max-inflight,\n"
      "             --idle-timeout-ms, --max-runtime-ms (0 = until\n"
      "             SIGTERM); drains gracefully on SIGTERM/SIGINT;\n"
      "             --state-dir=PATH makes stream state crash-safe\n"
      "             (journal + snapshots; replayed on restart), with\n"
      "             --fsync=always|none and --snapshot-interval-ms=N\n"
      "  client     send protocol lines to a running sigsubd and print\n"
      "             the replies; --host, --port, --send=CMD (repeatable),\n"
      "             --input=SCRIPT (- reads stdin), --timeout-ms,\n"
      "             --linger-ms (keep reading pushed ALARM lines),\n"
      "             --retries=N --backoff-ms=N (jittered exponential\n"
      "             connect retry)\n"
      "\n"
      "input:\n"
      "  --string=TEXT | --input=PATH   the string to mine (required;\n"
      "                                 batch accepts only --input)\n"
      "  --alphabet=CHARS               default: distinct input characters\n"
      "  --probs=p1,p2,...              default: uniform\n"
      "  --x2-dispatch=auto|scalar|simd fused X2 kernel selection\n"
      "                                 (scalar = bit-reproducible audit\n"
      "                                 path; default auto)\n"
      "\n"
      "batch corpus:\n"
      "  --format=lines|csv             corpus layout (default lines)\n"
      "  --column=N --csv-header        CSV column selection\n"
      "  --threads=N --cache=N          worker threads (0..1024, 0 = hardware\n"
      "                                 concurrency; default 1) / cache\n"
      "                                 entries\n"
      "  --shard-min=N                  split an MSS job across workers\n"
      "                                 when the record has >= N symbols\n"
      "                                 (default 2^20; 0 disables)\n"
      "\n"
      "limits:\n"
      "  --max-clients, --max-inflight, --max-runtime-ms, --timeout-ms,\n"
      "  --linger-ms, --retries, --backoff-ms, --max-window\n"
      "                                 at most 1000000000 (in\n"
      "                                 milliseconds, about 11.6 days)\n"
      "\n"
      "flags that a command does not consume are rejected\n";
}

Result<CliOptions> ParseArgs(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument(StrCat("missing command\n", UsageText()));
  }
  CliOptions options;
  options.command = args[0];
  uint32_t command = 0;
  for (size_t i = 0; i < std::size(kCommands); ++i) {
    if (options.command == kCommands[i]) command = 1u << i;
  }
  if (command == 0) {
    return Status::InvalidArgument(
        StrCat("unknown command \"", options.command, "\"\n", UsageText()));
  }
  std::vector<std::string> seen_flags;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument(
          StrCat("expected --flag=value, got \"", arg, "\""));
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&name](const Flag& row) { return name == row.name; });
    if (flag == std::end(kFlags)) {
      return Status::InvalidArgument(
          StrCat("unknown flag --", name, "\n", UsageText()));
    }
    if ((flag->commands & command) == 0) {
      return Status::InvalidArgument(
          StrCat("flag --", name, " is not valid for command ",
                 options.command, "\n", UsageText()));
    }
    SIGSUB_RETURN_IF_ERROR(ApplyFlag(*flag, value, &options));
    seen_flags.push_back(name);
  }
  // The first of `names` given on the command line, or nullptr.
  auto first_seen =
      [&seen_flags](
          std::initializer_list<const char*> names) -> const std::string* {
    for (const std::string& flag : seen_flags) {
      for (const char* name : names) {
        if (flag == name) return &flag;
      }
    }
    return nullptr;
  };

  // Rules between flags, each in one place. A flag the command would
  // silently ignore is an error, like a flag the command does not take.
  if (command == kTopt && !options.disjoint && first_seen({"min-length"})) {
    return Status::InvalidArgument(
        "flag --min-length is only consumed by topt with --disjoint");
  }
  if (command == kClient) {
    if (const std::string* flag =
            first_seen({"string", "alphabet", "probs", "x2-dispatch"})) {
      return Status::InvalidArgument(
          StrCat("flag --", *flag, " is not consumed by client"));
    }
    if (options.port < 1 || options.port > 65535) {
      return Status::InvalidArgument(
          StrCat("client requires --port in [1, 65535], got ",
                 options.port));
    }
    if (options.sends.empty() && options.input_path.empty()) {
      return Status::InvalidArgument(
          "client needs --send=CMD (repeatable) and/or --input=SCRIPT "
          "(one command per line; - reads stdin)");
    }
    return options;
  }
  if ((command & (kServe | kBatch)) && options.has_input_text) {
    return Status::InvalidArgument(
        StrCat(options.command,
               " mines a corpus file; use --input=PATH, not --string"));
  }
  if (options.mmap && options.has_input_text) {
    return Status::InvalidArgument(
        "flag --mmap maps a file; use --input=PATH, not --string");
  }
  if (options.mmap && options.input_path.empty()) {
    return Status::InvalidArgument("flag --mmap requires --input=PATH");
  }
  if (options.input_path.empty() && !options.has_input_text) {
    if (command == kServe) {
      return Status::InvalidArgument(
          "serve requires --input=PATH (the corpus the daemon serves)");
    }
    if (command & (kBatch | kQuery)) {
      return Status::InvalidArgument(
          StrCat(options.command, " requires --input=PATH",
                 command == kQuery ? " (or --string=TEXT)" : ""));
    }
    return Status::InvalidArgument("one of --string or --input is required");
  }
  if (options.has_input_text && !options.input_path.empty()) {
    return Status::InvalidArgument("--string and --input are exclusive");
  }
  if (options.has_input_text) {
    // A --string corpus (query) has no file layout to shape.
    if (const std::string* flag =
            first_seen({"format", "column", "csv-header"})) {
      return Status::InvalidArgument(
          StrCat("flag --", *flag,
                 " requires --input=PATH (a corpus file), not --string"));
    }
  }
  if (options.format != "lines" && options.format != "csv") {
    return Status::InvalidArgument(StrCat(
        "--format must be lines or csv, got \"", options.format, "\""));
  }
  if (options.format != "csv") {
    if (const std::string* flag = first_seen({"column", "csv-header"})) {
      return Status::InvalidArgument(
          StrCat("flag --", *flag, " requires --format=csv"));
    }
  }
  // An explicit out-of-range --alpha-p must not be conflated with the
  // "unset" sentinel (-1.0): --alpha-p=-0.001 silently falling back to
  // --alpha0 would invert the documented precedence.
  if (first_seen({"alpha-p"}) &&
      (options.alpha_p <= 0.0 || options.alpha_p >= 1.0)) {
    return Status::InvalidArgument(
        StrCat("--alpha-p must be in (0, 1), got ", options.alpha_p));
  }
  // stream's --alpha (the default is in range, and only stream takes the
  // flag). Written so that NaN, which fails every comparison, is refused.
  if (!(options.alpha > 0.0 && options.alpha < 1.0)) {
    return Status::InvalidArgument(
        StrCat("--alpha must be in (0, 1), got ", options.alpha));
  }
  if (options.all_substrings && options.max_length < 1) {
    return Status::InvalidArgument(
        "flag --all enumerates every distinct substring and requires "
        "--max-length=N to bound the output");
  }
  if (command == kServe) {
    if (!options.probs.empty()) {
      return Status::InvalidArgument(
          "flag --probs is not consumed by serve; stream models arrive "
          "with STREAM.CREATE and query models inside each QUERY");
    }
    if (options.port < 0 || options.port > 65535) {
      return Status::InvalidArgument(
          StrCat("--port must be in [0, 65535], got ", options.port));
    }
    if (options.max_clients < 1 || options.max_queue < 1 ||
        options.max_inflight < 1) {
      return Status::InvalidArgument(
          "--max-clients, --max-queue and --max-inflight must be >= 1");
    }
    // ParseFsyncPolicy validates the spelling; the result is recomputed
    // in RunServe (CliOptions carries plain strings).
    SIGSUB_RETURN_IF_ERROR(
        persist::ParseFsyncPolicy(options.fsync).status());
    if (options.state_dir.empty()) {
      if (const std::string* flag =
              first_seen({"fsync", "snapshot-interval-ms"})) {
        return Status::InvalidArgument(
            StrCat("flag --", *flag, " requires --state-dir"));
      }
    }
  }
  if (command == kQuery) {
    if (options.queries.empty() && options.queries_file.empty()) {
      return Status::InvalidArgument(
          "query requires --query=SPEC (repeatable) or "
          "--queries-file=PATH");
    }
    if (!options.probs.empty()) {
      // Each query carries its own model; a corpus-level --probs would
      // be silently shadowed.
      return Status::InvalidArgument(
          "flag --probs is not consumed by query; put "
          "model=probs(p1;p2;...) inside each query instead");
    }
  }
  if (command == kBatch) {
    SIGSUB_ASSIGN_OR_RETURN(api::QueryKind kind, ParseJobFlag(options.job));
    // Job-parameter flags are only consumed by their own kind; reject the
    // rest so e.g. `--job=mss --pvalue=0.01` cannot silently do nothing.
    for (const std::string& flag : seen_flags) {
      bool relevant = true;
      if (flag == "t") {
        relevant = kind == api::QueryKind::kTopT ||
                   kind == api::QueryKind::kTopDisjoint;
      } else if (flag == "min-length") {
        relevant = kind == api::QueryKind::kMinLength ||
                   kind == api::QueryKind::kTopDisjoint;
      } else if (flag == "alpha0" || flag == "pvalue" || flag == "alpha-p") {
        relevant = kind == api::QueryKind::kThreshold;
      }
      if (!relevant) {
        return Status::InvalidArgument(
            StrCat("flag --", flag, " is not consumed by --job=",
                   options.job));
      }
    }
  }
  return options;
}

Result<std::string> Run(const CliOptions& options) {
  // Process-wide: a reader exiting mid-pipe (`sigsub_cli ... | head`)
  // must surface as an EPIPE write error, not kill the process — and the
  // serve/client sockets need the same guarantee.
  IgnoreSigpipe();
  // SIGSUB_FAULT=op:nth:fault arms the syscall fault-injection shim for
  // out-of-process crash testing of the real binary (no-op when unset;
  // a malformed spec is a hard error rather than silently testing
  // nothing).
  SIGSUB_RETURN_IF_ERROR(fault::ArmFromEnv());
  // `score` and `substrings --positions` build their ChiSquareContexts
  // directly, so the dispatch knob is applied process-wide for this
  // invocation (every engine additionally pins it in its EngineOptions).
  // Every Run() sets it, so a later invocation without the flag restores
  // the auto default.
  core::SetDefaultX2Dispatch(options.x2_dispatch);
  // An explicit --x2-dispatch earns a report of what actually resolved:
  // `simd` on a host without AVX2 silently degrades to scalar inside the
  // kernel dispatch, and an audit must be able to see that happened.
  const std::string banner =
      options.x2_dispatch_explicit ? DispatchReport(options.x2_dispatch)
                                   : std::string();
  auto with_banner = [&banner](Result<std::string> report) {
    if (!report.ok() || banner.empty()) return report;
    return Result<std::string>(banner + *report);
  };
  if (options.command == "batch") return with_banner(RunBatch(options));
  if (options.command == "query") return with_banner(RunQuery(options));
  if (options.command == "substrings") {
    return with_banner(RunSubstrings(options));
  }
  if (options.command == "stream") return with_banner(RunStream(options));
  if (options.command == "serve") return with_banner(RunServe(options));
  if (options.command == "client") return RunClient(options);
  SIGSUB_ASSIGN_OR_RETURN(std::string text, LoadInput(options));
  if (text.empty()) {
    return Status::InvalidArgument("input string is empty");
  }

  // Alphabet: explicit or inferred with the corpus rule, so single-string
  // and batch runs score the same input under the same alphabet.
  std::string alphabet_chars = options.alphabet;
  if (alphabet_chars.empty()) {
    alphabet_chars = engine::Corpus::InferAlphabetChars({text});
  }
  SIGSUB_ASSIGN_OR_RETURN(seq::Alphabet alphabet,
                          seq::Alphabet::FromCharacters(alphabet_chars));
  SIGSUB_ASSIGN_OR_RETURN(seq::Sequence sequence,
                          seq::Sequence::FromString(alphabet, text));

  std::vector<double> probs = options.probs;
  if (probs.empty()) {
    probs.assign(alphabet.size(), 1.0 / alphabet.size());
  }
  SIGSUB_ASSIGN_OR_RETURN(seq::MultinomialModel model,
                          seq::MultinomialModel::Make(std::move(probs)));

  if (options.command != "score") {
    return with_banner(RunMining(options, text, alphabet_chars,
                                 sequence.size(), alphabet.size(),
                                 model.alphabet_size()));
  }
  // `score` is a point evaluation, not a query kind: a direct core call.
  const int k = model.alphabet_size();
  std::ostringstream out;
  out << "n = " << sequence.size() << ", k = " << k << "\n";
  if (options.start < 0 || options.end < 0) {
    return Status::InvalidArgument("score needs --start and --end");
  }
  SIGSUB_ASSIGN_OR_RETURN(
      core::ScoredSubstring scored,
      core::ScoreSubstring(sequence, model, options.start, options.end));
  out << RenderSubstring(scored.substring, k, text);
  out << "G2 = " << StrFormat("%.4f", scored.g2) << "\n";
  return banner + out.str();
}

}  // namespace cli
}  // namespace sigsub
