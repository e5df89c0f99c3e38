#ifndef SIGSUB_SIGSUB_H_
#define SIGSUB_SIGSUB_H_

/// Umbrella header for the sigsub library: mining statistically significant
/// substrings with the chi-square statistic (Sachan & Bhattacharya,
/// VLDB 2012).
///
/// Typical use:
///
///   sigsub::seq::Rng rng(42);
///   sigsub::seq::Sequence s = sigsub::seq::GenerateNull(2, 100000, rng);
///   auto model = sigsub::seq::MultinomialModel::Uniform(2);
///   auto mss = sigsub::core::FindMss(s, model);      // Problem 1
///   auto top = sigsub::core::FindTopT(s, model, 10); // Problem 2
///   double p = sigsub::stats::ChiSquarePValue(mss->best.chi_square, 2);
///
/// Corpus-scale batch mining (engine/ + api/): run any mix of the
/// sequence kernels over many sequences concurrently, with per-sequence
/// context reuse and an LRU result cache keyed on canonical query bytes.
/// api::QuerySpec is the typed (and serializable) query surface:
///
///   auto corpus = sigsub::engine::Corpus::FromLines("corpus.txt");
///   sigsub::engine::Engine engine({.num_threads = 8});
///   auto spec = sigsub::api::ParseQuery("topt:seq=0,t=5,model=uniform");
///   auto results = engine.ExecuteQueries(*corpus, {*spec});
///
/// Serving (server/): sigsubd, a concurrent mining daemon speaking a
/// newline-delimited protocol over TCP — QUERY lines carry serialized
/// QuerySpecs, STREAM.*/SUBSCRIBE manage calibrated streaming detectors
/// with alarms pushed to subscribers, and backpressure is explicit
/// (EBUSY/EQUOTA/EDRAIN wire codes):
///
///   sigsub::server::Server daemon(*corpus);
///   daemon.Start();   // daemon.port() answers the ephemeral-port case
///   auto client = sigsub::server::LineClient::Connect("127.0.0.1",
///                                                     daemon.port());

#include "api/query.h"
#include "api/serde.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/mutex.h"
#include "common/posix_io.h"
#include "common/thread_pool.h"
#include "core/agmm.h"
#include "core/arlm.h"
#include "core/blocked_scan.h"
#include "core/chain_cover.h"
#include "core/chi_square.h"
#include "core/length_bounded.h"
#include "core/markov_scan.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/naive.h"
#include "core/parallel.h"
#include "core/scan_types.h"
#include "core/significance.h"
#include "core/streaming.h"
#include "core/threshold.h"
#include "core/top_disjoint.h"
#include "core/top_t.h"
#include "core/x2_dispatch.h"
#include "core/x2_kernel.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/engine_stats.h"
#include "engine/fingerprint.h"
#include "engine/result_cache.h"
#include "engine/stream_manager.h"
#include "io/csv.h"
#include "io/date_axis.h"
#include "io/market_sim.h"
#include "io/sports_sim.h"
#include "io/string_codec.h"
#include "io/table_writer.h"
#include "persist/cache_store.h"
#include "persist/format.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "persist/state_store.h"
#include "seq/alphabet.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "seq/generators.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/rng.h"
#include "seq/sequence.h"
#include "stats/chi_squared.h"
#include "stats/count_statistics.h"
#include "stats/descriptive.h"
#include "stats/exact_multinomial.h"
#include "stats/gamma.h"

#endif  // SIGSUB_SIGSUB_H_
