#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "api/serde.h"
#include "common/check.h"
#include "common/str_util.h"
#include "core/agmm.h"
#include "core/arlm.h"
#include "core/atomic_max.h"
#include "core/blocked_scan.h"
#include "core/chi_square.h"
#include "core/length_bounded.h"
#include "core/markov_scan.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/parallel.h"
#include "core/suffix_scan.h"
#include "core/threshold.h"
#include "core/top_disjoint.h"
#include "core/top_t.h"
#include "engine/fingerprint.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "stats/chi_squared.h"

namespace sigsub {
namespace engine {
namespace {

/// Per-distinct-sequence state built once per batch and shared by every
/// query targeting that record. The PrefixCounts build is lazy: the first
/// kernel task that needs the record builds it under `build_once`, so
/// there is no build-all barrier before any kernel may start — records
/// with cheap builds begin scanning while large builds are still running.
struct SequenceState {
  std::once_flag build_once;
  std::optional<seq::PrefixCounts> counts;
  uint64_t fingerprint = 0;

  const seq::PrefixCounts& CountsFor(const Corpus& corpus, int64_t index) {
    std::call_once(build_once, [&] {
      if (corpus.is_mapped()) {
        // Chunk-streamed from the mapped bytes; the bytes were validated
        // against the alphabet at load, so the build cannot fail.
        counts.emplace(std::move(corpus.BuildMappedPrefixCounts()).value());
      } else {
        counts.emplace(corpus.sequence(index));
      }
    });
    return *counts;
  }
};

/// One corpus record as the kernels see it: either a decoded sequence or
/// the mapped bytes plus their decode table (never both). Kernels that
/// need a decoded seq::Sequence (arlm, agmm, blocked, Markov MSS) were
/// rejected at validation for mapped corpora, so they may dereference
/// `sequence` unconditionally.
struct RecordView {
  const seq::Sequence* sequence = nullptr;
  std::span<const uint8_t> mapped_bytes;
  const std::array<uint8_t, 256>* decode = nullptr;
  int64_t size = 0;

  static RecordView For(const Corpus& corpus, int64_t index) {
    RecordView view;
    if (corpus.is_mapped()) {
      view.mapped_bytes = corpus.mapped_record();
      view.decode = &corpus.decode_table();
      view.size = static_cast<int64_t>(view.mapped_bytes.size());
    } else {
      view.sequence = &corpus.sequence(index);
      view.size = view.sequence->size();
    }
    return view;
  }
};

/// Everything a query needs resolved before its kernel can run: the
/// multinomial context (or the Markov model for a Markov-model MSS
/// query) and the threshold cutoff with any alpha_p already converted.
/// Built during validation, one entry per query.
struct QueryPlan {
  const api::QuerySpec* spec = nullptr;
  api::QueryKind kind = api::QueryKind::kMss;
  const core::ChiSquareContext* context = nullptr;  // null for Markov.
  const seq::MarkovModel* markov = nullptr;
  double alpha0 = -1.0;  // kThreshold: resolved X² cutoff.
  // kSubstrings: resolved X² floor (alpha_p converted at the kind's
  // degrees of freedom — k−1 multinomial, k(k−1) Markov).
  double min_x2 = -std::numeric_limits<double>::infinity();
};

Status QueryError(size_t index, api::QueryKind kind,
                  const std::string& detail) {
  return Status::InvalidArgument(StrCat("query ", index, " (",
                                        api::QueryKindToString(kind),
                                        "): ", detail));
}

/// Kind-specific parameter validation; failures name the query field.
Status ValidateRequest(const api::QuerySpec& spec, const Corpus& corpus) {
  const int64_t corpus_size = corpus.size();
  auto fail = [](const std::string& detail) {
    return Status::InvalidArgument(detail);
  };
  if (spec.sequence_index < 0 || spec.sequence_index >= corpus_size) {
    return fail(StrCat("field seq: index ", spec.sequence_index,
                       " out of range [0, ", corpus_size, ")"));
  }
  if (corpus.is_mapped()) {
    // A mapped corpus has no decoded seq::Sequence; only the kernels that
    // consume prefix counts or the suffix index can run over it.
    const api::QueryKind kind = spec.kind();
    if (kind == api::QueryKind::kArlm || kind == api::QueryKind::kAgmm ||
        kind == api::QueryKind::kBlocked) {
      return fail(
          "kind is not executable over a memory-mapped corpus (the kernel "
          "walks a decoded sequence); load the record through a text "
          "loader instead");
    }
    if (spec.model.kind == api::ModelKind::kMarkov &&
        kind != api::QueryKind::kSubstrings) {
      return fail(
          "field model: the Markov MSS scan walks a decoded sequence and "
          "is not executable over a memory-mapped corpus");
    }
  }
  if (const auto* q = std::get_if<api::TopTQuery>(&spec.request)) {
    if (q->t < 1) return fail(StrCat("field t must be >= 1, got ", q->t));
  } else if (const auto* q =
                 std::get_if<api::TopDisjointQuery>(&spec.request)) {
    if (q->t < 1) return fail(StrCat("field t must be >= 1, got ", q->t));
    if (q->min_length < 1) {
      return fail(
          StrCat("field min_length must be >= 1, got ", q->min_length));
    }
    if (std::isnan(q->min_chi_square)) {
      // Every comparison against NaN is false, which would silently
      // disable the score floor.
      return fail("field min_x2 must not be NaN");
    }
  } else if (const auto* q = std::get_if<api::ThresholdQuery>(&spec.request)) {
    // NaN slips through every range comparison (all false), which would
    // read as "unset" here and as "matches everything/nothing" in the
    // scan; an infinite alpha0 is equally meaningless as a cutoff.
    if (std::isnan(q->alpha0) || std::isnan(q->alpha_p)) {
      return fail("fields alpha0 and alpha_p must not be NaN");
    }
    if (q->alpha0 >= 0.0 && !std::isfinite(q->alpha0)) {
      return fail("field alpha0 must be finite");
    }
    if (q->alpha_p < 0.0 && q->alpha0 < 0.0) {
      return fail(
          "one of field alpha0 (X² cutoff) or field alpha_p (p-value) "
          "must be set");
    }
    if (q->alpha_p >= 0.0 && (q->alpha_p <= 0.0 || q->alpha_p >= 1.0)) {
      return fail(
          StrCat("field alpha_p must be in (0, 1), got ", q->alpha_p));
    }
    if (q->max_matches < 0) {
      return fail(
          StrCat("field max_matches must be >= 0, got ", q->max_matches));
    }
  } else if (const auto* q = std::get_if<api::MinLengthQuery>(&spec.request)) {
    if (q->min_length < 1) {
      return fail(
          StrCat("field min_length must be >= 1, got ", q->min_length));
    }
  } else if (const auto* q =
                 std::get_if<api::LengthBoundedQuery>(&spec.request)) {
    if (q->min_length < 1) {
      return fail(
          StrCat("field min_length must be >= 1, got ", q->min_length));
    }
    if (q->max_length != 0 && q->max_length < q->min_length) {
      return fail(StrCat("field max_length (", q->max_length,
                         ") must be 0 (unbounded) or >= min_length (",
                         q->min_length, ")"));
    }
  } else if (const auto* q = std::get_if<api::BlockedQuery>(&spec.request)) {
    if (q->block_size < 1) {
      return fail(
          StrCat("field block_size must be >= 1, got ", q->block_size));
    }
  } else if (const auto* q = std::get_if<api::SubstringsQuery>(&spec.request)) {
    if (q->top < 0) {
      return fail(StrCat("field top must be >= 0 (0 = all matches), got ",
                         q->top));
    }
    if (q->min_length < 1) {
      return fail(
          StrCat("field min_length must be >= 1, got ", q->min_length));
    }
    if (q->max_length != 0 && q->max_length < q->min_length) {
      return fail(StrCat("field max_length (", q->max_length,
                         ") must be 0 (unbounded) or >= min_length (",
                         q->min_length, ")"));
    }
    if (q->min_count < 1) {
      return fail(StrCat("field min_count must be >= 1, got ", q->min_count));
    }
    if (!q->maximal && q->max_length == 0) {
      // Without maximality, every class member is enumerated — O(n²)
      // candidates on an unbounded length. Refuse rather than hang.
      return fail(
          "field maximal: maximal=0 enumerates every distinct substring "
          "and requires max_length > 0 to bound the output");
    }
    if (std::isnan(q->alpha0) || std::isnan(q->alpha_p)) {
      return fail("fields alpha0 and alpha_p must not be NaN");
    }
    if (q->alpha0 >= 0.0 && !std::isfinite(q->alpha0)) {
      return fail("field alpha0 must be finite");
    }
    if (q->alpha_p >= 0.0 && (q->alpha_p <= 0.0 || q->alpha_p >= 1.0)) {
      return fail(
          StrCat("field alpha_p must be in (0, 1), got ", q->alpha_p));
    }
  }
  return Status::OK();
}

/// Model validation against the corpus alphabet; failures name the model
/// field.
Status ValidateModel(const api::ModelSpec& model, api::QueryKind kind,
                     int k) {
  switch (model.kind) {
    case api::ModelKind::kUniform:
      return Status::OK();
    case api::ModelKind::kMultinomial:
      if (static_cast<int>(model.probs.size()) != k) {
        return Status::InvalidArgument(
            StrCat("field model.probs has ", model.probs.size(),
                   " probabilities but the corpus alphabet has ", k,
                   " symbols"));
      }
      return Status::OK();
    case api::ModelKind::kMarkov:
      if (kind != api::QueryKind::kMss &&
          kind != api::QueryKind::kSubstrings) {
        return Status::InvalidArgument(
            StrCat("field model: Markov models are executable only via "
                   "mss queries (the Markov-statistic scan) or substrings "
                   "queries (Markov-scored suffix scan), not ",
                   api::QueryKindToString(kind)));
      }
      if (model.order != 1) {
        return Status::InvalidArgument(
            StrCat("field model.order: only order-1 Markov models are "
                   "supported, got ", model.order));
      }
      if (static_cast<int64_t>(model.transitions.size()) !=
          static_cast<int64_t>(k) * k) {
        return Status::InvalidArgument(
            StrCat("field model.transitions has ", model.transitions.size(),
                   " entries but the corpus alphabet needs ", k, "x", k,
                   " = ", static_cast<int64_t>(k) * k));
      }
      if (!model.initial.empty() &&
          static_cast<int>(model.initial.size()) != k) {
        return Status::InvalidArgument(
            StrCat("field model.initial has ", model.initial.size(),
                   " entries but the corpus alphabet has ", k, " symbols"));
      }
      return Status::OK();
  }
  return Status::OK();
}

/// Shapes a best-substring result (the seven best-substring kernels: MSS,
/// min-length, length-bounded, ARLM, AGMM, blocked and Markov; and the
/// sharded scan) into the cached payload — one place, so sharded and
/// unsharded MSS queries cannot diverge in result shape.
CachedResult MssCachedResult(const core::Substring& best) {
  CachedResult out;
  out.best = best;
  out.substrings = {best};
  out.match_count = best.length() > 0 ? 1 : 0;
  return out;
}

/// Shapes a suffix-scan result into the cached payload: the class
/// substrings with their parallel counts and p-values, plus the sweep's
/// instrumentation mapped onto ScanStats (candidates scored = positions
/// examined, classes enumerated = start positions).
CachedResult SubstringsCachedResult(core::SuffixScanResult result,
                                    core::ScanStats* stats) {
  CachedResult out;
  out.substrings.reserve(result.classes.size());
  out.counts.reserve(result.classes.size());
  out.p_values.reserve(result.classes.size());
  for (const core::SubstringClass& cls : result.classes) {
    out.substrings.push_back(cls.substring);
    out.counts.push_back(cls.count);
    out.p_values.push_back(cls.p_value);
  }
  if (!out.substrings.empty()) out.best = out.substrings.front();
  out.match_count = result.match_count;
  stats->positions_examined = result.stats.candidates_scored;
  stats->start_positions = result.stats.classes_enumerated;
  return out;
}

/// Runs a substrings query: builds the suffix index over the record (the
/// decoded symbols, or the mapped bytes through their decode table) and
/// sweeps it with the plan's scorer. No PrefixCounts are consumed — this
/// is the path that keeps peak memory at SA+LCP instead of 8·k bytes per
/// position.
CachedResult RunSubstringsKernel(const QueryPlan& plan,
                                 const RecordView& view,
                                 core::ScanStats* stats) {
  const auto& q = std::get<api::SubstringsQuery>(plan.spec->request);
  core::SuffixScanOptions options;
  options.top_n = q.top;
  options.min_length = q.min_length;
  options.max_length = q.max_length;
  options.min_count = q.min_count;
  options.maximal_only = q.maximal;
  options.min_x2 = plan.min_x2;

  const int k = plan.context->alphabet_size();
  // Validation pinned every parameter and the record bytes, so the
  // builds/scans cannot fail here.
  core::SuffixScan scan =
      view.sequence != nullptr
          ? core::SuffixScan::Build(view.sequence->symbols(), k).value()
          : core::SuffixScan::BuildMapped(view.mapped_bytes, *view.decode, k)
                .value();
  if (plan.markov != nullptr) {
    core::MarkovChiSquare markov =
        core::MarkovChiSquare::Make(*plan.markov).value();
    return SubstringsCachedResult(scan.ScanMarkov(markov, options).value(),
                                  stats);
  }
  return SubstringsCachedResult(scan.Scan(*plan.context, options).value(),
                                stats);
}

/// Runs the query's kernel against prebuilt state. Pure function of its
/// inputs — safe to call concurrently for distinct queries. `counts` is
/// null exactly for Markov-model queries and substrings queries, whose
/// kernels never read prefix counts (the caller skips the O(k·n) build
/// entirely).
CachedResult RunQueryKernel(const QueryPlan& plan, const RecordView& view,
                            const seq::PrefixCounts* counts_ptr,
                            core::ScanStats* stats) {
  const core::ChiSquareContext& context = *plan.context;
  CachedResult out;
  if (plan.kind == api::QueryKind::kSubstrings) {
    return RunSubstringsKernel(plan, view, stats);
  }
  if (plan.markov != nullptr) {
    if (view.size < 2) {
      // No transition to score; the kernel contract needs >= 2 symbols.
      return MssCachedResult(core::Substring{});
    }
    core::MssResult result =
        core::FindMssMarkov(*view.sequence, *plan.markov).value();
    *stats = result.stats;
    return MssCachedResult(result.best);
  }
  const seq::PrefixCounts& counts = *counts_ptr;
  switch (plan.kind) {
    case api::QueryKind::kMss: {
      core::MssResult result = core::FindMss(counts, context);
      out = MssCachedResult(result.best);
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kTopT: {
      const auto& q = std::get<api::TopTQuery>(plan.spec->request);
      core::TopTResult result = core::FindTopT(counts, context, q.t);
      out.substrings = std::move(result.top);
      if (!out.substrings.empty()) out.best = out.substrings.front();
      out.match_count = static_cast<int64_t>(out.substrings.size());
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kTopDisjoint: {
      const auto& q = std::get<api::TopDisjointQuery>(plan.spec->request);
      core::TopDisjointOptions options;
      options.t = q.t;
      options.min_length = q.min_length;
      options.min_chi_square = q.min_chi_square;
      out.substrings = core::FindTopDisjoint(counts, context, options);
      if (!out.substrings.empty()) out.best = out.substrings.front();
      out.match_count = static_cast<int64_t>(out.substrings.size());
      break;
    }
    case api::QueryKind::kThreshold: {
      const auto& q = std::get<api::ThresholdQuery>(plan.spec->request);
      core::ThresholdOptions options;
      options.max_matches = q.max_matches;
      core::ThresholdResult result =
          core::FindAboveThreshold(counts, context, plan.alpha0, options);
      out.substrings = std::move(result.matches);
      out.best = result.best;
      out.match_count = result.match_count;
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kMinLength: {
      const auto& q = std::get<api::MinLengthQuery>(plan.spec->request);
      core::MssResult result =
          core::FindMssMinLength(counts, context, q.min_length);
      out = MssCachedResult(result.best);
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kLengthBounded: {
      const auto& q = std::get<api::LengthBoundedQuery>(plan.spec->request);
      const int64_t n = view.size;
      const int64_t max_length = q.max_length == 0 ? n : q.max_length;
      if (n < q.min_length || max_length < q.min_length) {
        // No substring can satisfy the window; the kernel contract
        // requires max_length >= min_length.
        out = MssCachedResult(core::Substring{});
        break;
      }
      core::MssResult result = core::FindMssLengthBounded(
          counts, context, q.min_length, max_length);
      out = MssCachedResult(result.best);
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kArlm: {
      core::MssResult result =
          core::FindMssArlm(*view.sequence, counts, context);
      out = MssCachedResult(result.best);
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kAgmm: {
      core::MssResult result =
          core::FindMssAgmm(*view.sequence, counts, context);
      out = MssCachedResult(result.best);
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kBlocked: {
      const auto& q = std::get<api::BlockedQuery>(plan.spec->request);
      core::MssResult result = core::FindMssBlocked(*view.sequence, counts,
                                                    context, q.block_size);
      out = MssCachedResult(result.best);
      *stats = result.stats;
      break;
    }
    case api::QueryKind::kSubstrings:
      break;  // Handled before the switch.
  }
  return out;
}

/// Reshapes a cached payload into the kind's QueryResult alternative.
void FillPayload(api::QueryKind kind, const CachedResult& computed,
                 const core::ScanStats& stats, api::QueryResult* result) {
  switch (kind) {
    case api::QueryKind::kTopT:
    case api::QueryKind::kTopDisjoint: {
      api::RankedPayload payload;
      payload.ranked = computed.substrings;
      payload.stats = stats;
      result->payload = std::move(payload);
      return;
    }
    case api::QueryKind::kThreshold: {
      api::ThresholdPayload payload;
      payload.matches = computed.substrings;
      payload.match_count = computed.match_count;
      payload.best = computed.best;
      payload.stats = stats;
      result->payload = std::move(payload);
      return;
    }
    case api::QueryKind::kSubstrings: {
      api::SubstringsPayload payload;
      payload.ranked = computed.substrings;
      payload.counts = computed.counts;
      payload.p_values = computed.p_values;
      payload.match_count = computed.match_count;
      payload.stats = stats;
      result->payload = std::move(payload);
      return;
    }
    default: {
      api::BestPayload payload;
      payload.best = computed.best;
      payload.stats = stats;
      result->payload = payload;
      return;
    }
  }
}

}  // namespace

Engine::Engine(EngineOptions options)
    : cache_(options.cache_capacity),
      pool_(options.num_threads),
      shard_min_sequence_(options.shard_min_sequence),
      x2_dispatch_(options.x2_dispatch) {}

Result<std::vector<api::QueryResult>> Engine::ExecuteQueries(
    const Corpus& corpus, const std::vector<api::QuerySpec>& queries) {
  // One batch at a time per engine (the header's thread-safety contract);
  // a second concurrent batch would share per-batch plan state. Debug
  // builds catch the misuse at the entry point instead of as a race.
  struct BatchGuard {
    std::atomic<bool>& flag;
    explicit BatchGuard(std::atomic<bool>& f) : flag(f) {
      const bool was_active = f.exchange(true, std::memory_order_acq_rel);
      SIGSUB_DCHECK_MSG(!was_active,
                        "Engine::ExecuteQueries is not reentrant; "
                        "serialize batches from concurrent callers");
    }
    ~BatchGuard() { flag.store(false, std::memory_order_release); }
  } batch_guard(batch_active_);

  const int k = corpus.alphabet().size();

  // Validate every query and build its execution plan: distinct
  // multinomial models resolve to one shared ChiSquareContext each
  // (ChiSquareContext::Make re-validates values ValidateModel cannot
  // judge cheaply — normalization, positivity); Markov-model MSS queries
  // get a seq::MarkovModel. Any failure names the query and field and
  // fails the batch before a kernel runs.
  const std::vector<double> uniform(static_cast<size_t>(k), 1.0 / k);
  struct ModelState {
    core::ChiSquareContext context;
  };
  std::map<std::vector<double>, std::unique_ptr<ModelState>> models;
  std::vector<std::unique_ptr<seq::MarkovModel>> markov_models;
  std::vector<QueryPlan> plans(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const api::QuerySpec& spec = queries[i];
    QueryPlan& plan = plans[i];
    plan.spec = &spec;
    plan.kind = spec.kind();
    auto wrap = [&](const Status& status) {
      return status.ok() ? status
                         : QueryError(i, plan.kind, status.message());
    };
    SIGSUB_RETURN_IF_ERROR(wrap(ValidateRequest(spec, corpus)));
    SIGSUB_RETURN_IF_ERROR(wrap(ValidateModel(spec.model, plan.kind, k)));

    if (spec.model.kind == api::ModelKind::kMarkov) {
      std::vector<double> initial = spec.model.initial;
      if (initial.empty()) {
        initial.assign(static_cast<size_t>(k), 1.0 / k);
      }
      auto markov = seq::MarkovModel::Make(k, spec.model.transitions,
                                           std::move(initial));
      if (!markov.ok()) {
        return QueryError(i, plan.kind,
                          StrCat("field model: ", markov.status().message()));
      }
      markov_models.push_back(
          std::make_unique<seq::MarkovModel>(std::move(markov).value()));
      plan.markov = markov_models.back().get();
    }

    // Every kernel but the Markov scan consumes a multinomial context;
    // Markov MSS queries still get the uniform one so the shared
    // PrefixCounts plumbing stays uniform (the kernel ignores it).
    const std::vector<double>& probs =
        spec.model.kind == api::ModelKind::kMultinomial ? spec.model.probs
                                                        : uniform;
    auto [it, inserted] = models.try_emplace(probs);
    if (inserted) {
      auto context = core::ChiSquareContext::Make(probs, x2_dispatch_);
      if (!context.ok()) {
        models.erase(it);
        return QueryError(i, plan.kind,
                          StrCat("field model: ", context.status().message()));
      }
      it->second = std::make_unique<ModelState>(
          ModelState{std::move(context).value()});
    }
    plan.context = &it->second->context;

    if (const auto* q = std::get_if<api::ThresholdQuery>(&spec.request)) {
      // alpha_p converts once per batch, not once per candidate; when
      // both fields are set the p-value wins (api/query.h documents the
      // precedence).
      plan.alpha0 = q->alpha_p >= 0.0
                        ? stats::ChiSquaredDistribution(k - 1)
                              .CriticalValue(q->alpha_p)
                        : q->alpha0;
    } else if (const auto* q =
                   std::get_if<api::SubstringsQuery>(&spec.request)) {
      // Same precedence as threshold, at the statistic's own degrees of
      // freedom. Neither set -> -inf (everything qualifies).
      const int dof =
          plan.markov != nullptr ? k * (k - 1) : k - 1;
      if (q->alpha_p >= 0.0) {
        plan.min_x2 =
            stats::ChiSquaredDistribution(dof).CriticalValue(q->alpha_p);
      } else if (q->alpha0 >= 0.0) {
        plan.min_x2 = q->alpha0;
      }
    }
  }

  // Fingerprint every referenced record (cheap, O(n)) so the cache can be
  // consulted before any PrefixCounts exist: a fully-warm batch must not
  // pay the O(k·n) builds that context reuse is meant to amortize.
  std::vector<std::unique_ptr<SequenceState>> states(
      static_cast<size_t>(corpus.size()));
  for (const api::QuerySpec& spec : queries) {
    auto& state = states[static_cast<size_t>(spec.sequence_index)];
    if (state) continue;
    state = std::make_unique<SequenceState>();
    // Mapped records carry a precomputed streaming fingerprint with the
    // same byte semantics, so cache identity is loader-independent.
    state->fingerprint =
        corpus.is_mapped()
            ? corpus.mapped_fingerprint()
            : FingerprintSequence(corpus.sequence(spec.sequence_index));
  }

  // Resolve cache hits; group the misses by cache key so identical
  // queries (duplicate specs, or distinct records with identical content)
  // run their kernel exactly once per distinct computation. The query
  // half of the key is the FNV-1a of the canonical serialization bytes —
  // the same bytes FormatQuery prints, minus the record index.
  std::vector<api::QueryResult> results(queries.size());
  std::unordered_map<CacheKey, std::vector<size_t>, CacheKeyHash> miss_groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    const api::QuerySpec& spec = queries[i];
    api::QueryResult& result = results[i];
    result.query_index = static_cast<int64_t>(i);
    result.sequence_index = spec.sequence_index;
    result.kind = plans[i].kind;

    const CacheKey key{
        states[static_cast<size_t>(spec.sequence_index)]->fingerprint,
        api::FingerprintQuery(spec)};
    if (std::optional<CachedResult> cached = cache_.Lookup(key)) {
      FillPayload(result.kind, *cached, core::ScanStats{}, &result);
      result.cache_hit = true;
      continue;
    }
    miss_groups[key].push_back(i);
  }

  // Publishes a computed payload to the group's QueryResults and the
  // cache. Duplicates are served by the lead's run: payload identical,
  // flagged as cache hits, no scan stats of their own.
  auto publish = [&](const std::vector<size_t>& indices, const CacheKey& key,
                     CachedResult computed, const core::ScanStats& stats) {
    api::QueryResult& lead = results[indices.front()];
    FillPayload(lead.kind, computed, stats, &lead);
    for (size_t d = 1; d < indices.size(); ++d) {
      api::QueryResult& dup = results[indices[d]];
      FillPayload(dup.kind, computed, core::ScanStats{}, &dup);
      dup.cache_hit = true;
    }
    cache_.Insert(key, std::move(computed));
  };

  // Per sharded group: the shared skip bound and one result slot per
  // shard, merged on the orchestrating thread after the pool drains.
  struct ShardedGroup {
    const CacheKey* key;
    const std::vector<size_t>* indices;
    core::AtomicMax shared_best;
    std::vector<core::MssResult> shards;
  };
  std::vector<std::unique_ptr<ShardedGroup>> sharded;
  // Scan stats of each miss group's lead, written by the kernel task and
  // published after the pool drains.
  std::vector<core::ScanStats> group_stats(miss_groups.size());
  std::vector<std::pair<const CacheKey*, CachedResult>> group_payloads(
      miss_groups.size());

  size_t group_index = 0;
  for (const auto& [key, query_indices] : miss_groups) {
    const size_t g = group_index++;
    const QueryPlan& plan = plans[query_indices.front()];
    const api::QuerySpec& spec = *plan.spec;
    const int64_t seq_index = spec.sequence_index;
    SequenceState* state = states[static_cast<size_t>(seq_index)].get();
    const RecordView view = RecordView::For(corpus, seq_index);

    // In-record sharding: one oversized multinomial MSS record is strided
    // across the pool instead of pinning a single worker. (Markov MSS has
    // no sharded kernel; it runs sequentially like every other kind.)
    const int64_t n = view.size;
    int num_shards = static_cast<int>(std::min<int64_t>(
        pool_.num_threads(), std::max<int64_t>(1, n)));
    if (plan.kind == api::QueryKind::kMss && plan.markov == nullptr &&
        shard_min_sequence_ > 0 && n >= shard_min_sequence_ &&
        num_shards > 1) {
      auto group = std::make_unique<ShardedGroup>();
      group->key = &key;
      group->indices = &query_indices;
      group->shards.resize(static_cast<size_t>(num_shards));
      const core::ChiSquareContext* context = plan.context;
      const Corpus* corpus_ptr = &corpus;
      for (int shard = 0; shard < num_shards; ++shard) {
        ShardedGroup* gr = group.get();
        pool_.Submit([state, corpus_ptr, seq_index, context, shard,
                      num_shards, gr] {
          // First shard to arrive builds the record's counts; the rest
          // block on call_once only until that build finishes.
          const seq::PrefixCounts& counts =
              state->CountsFor(*corpus_ptr, seq_index);
          gr->shards[static_cast<size_t>(shard)] = core::MssShardScan(
              counts, *context, shard, num_shards, &gr->shared_best);
        });
      }
      sharded.push_back(std::move(group));
      continue;
    }

    const QueryPlan* plan_ptr = &plan;
    const Corpus* corpus_ptr = &corpus;
    core::ScanStats* stats = &group_stats[g];
    CachedResult* payload = &group_payloads[g].second;
    group_payloads[g].first = &key;
    pool_.Submit([plan_ptr, state, corpus_ptr, seq_index, view, stats,
                  payload] {
      // Markov and substrings kernels never read prefix counts; skip the
      // O(k·n) build (for substrings that skip IS the memory win).
      const seq::PrefixCounts* counts =
          plan_ptr->markov == nullptr &&
                  plan_ptr->kind != api::QueryKind::kSubstrings
              ? &state->CountsFor(*corpus_ptr, seq_index)
              : nullptr;
      *payload = RunQueryKernel(*plan_ptr, view, counts, stats);
    });
  }
  pool_.Wait();

  // Publish sequential groups, then merge and publish the sharded ones.
  group_index = 0;
  for (const auto& [key, query_indices] : miss_groups) {
    const size_t g = group_index++;
    if (group_payloads[g].first == nullptr) continue;  // Sharded group.
    publish(query_indices, key, std::move(group_payloads[g].second),
            group_stats[g]);
  }
  for (const std::unique_ptr<ShardedGroup>& group : sharded) {
    core::MssResult merged = core::MergeShardResults(group->shards);
    publish(*group->indices, *group->key, MssCachedResult(merged.best),
            merged.stats);
  }
  queries_executed_.fetch_add(static_cast<int64_t>(queries.size()),
                              std::memory_order_relaxed);
  batches_executed_.fetch_add(1, std::memory_order_relaxed);
  return results;
}

}  // namespace engine
}  // namespace sigsub
