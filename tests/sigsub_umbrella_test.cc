// The umbrella-header contract: this TU includes ONLY sigsub.h and
// touches at least one symbol from every subsystem (and every stats
// header), so a header dropped from — or broken inside — the umbrella
// fails this build instead of silently rotting.

#include "sigsub.h"

#include "gtest/gtest.h"

namespace sigsub {
namespace {

TEST(UmbrellaTest, EverySubsystemIsReachable) {
  // common/ — the error model, checks, annotated locking.
  EXPECT_TRUE(Status::OK().ok());
  Fnv1a hasher;
  hasher.UpdateI64(42);
  EXPECT_NE(hasher.Digest(), 0u);
  SIGSUB_CHECK(true);
  SIGSUB_DCHECK_MSG(true, "umbrella reaches check.h");
  Mutex mutex;
  {
    MutexLock lock(mutex);
  }
  CondVar().NotifyAll();

  // seq/ — alphabets, sequences, models, generators.
  seq::Alphabet alphabet = seq::Alphabet::Binary();
  EXPECT_EQ(alphabet.size(), 2);
  seq::Rng rng(7);
  seq::Sequence sequence = seq::GenerateNull(2, 64, rng);
  seq::PrefixCounts counts(sequence);
  EXPECT_EQ(counts.sequence_size(), 64);
  seq::MultinomialModel model = seq::MultinomialModel::Uniform(2);
  EXPECT_EQ(model.alphabet_size(), 2);
  EXPECT_EQ(seq::MarkovModel::BiasedBinary(0.5).alphabet_size(), 2);

  // core/ — the scanners and their support types.
  EXPECT_EQ(core::TrivialScanPositions(4), 10);
  auto mss = core::FindMss(sequence, model);
  ASSERT_TRUE(mss.ok());
  EXPECT_LE(stats::ChiSquarePValue(mss->best.chi_square, 2), 1.0);
  EXPECT_TRUE(core::FindTopT(sequence, model, 2).ok());
  EXPECT_TRUE(core::FindAboveThreshold(sequence, model, 1e6).ok());
  EXPECT_TRUE(core::FindMssMinLength(sequence, model, 2).ok());
  EXPECT_TRUE(core::FindMssLengthBounded(sequence, model, 1, 8).ok());
  EXPECT_TRUE(core::FindMssArlm(sequence, model).ok());
  EXPECT_TRUE(core::FindMssAgmm(sequence, model).ok());
  EXPECT_TRUE(core::FindMssBlocked(sequence, model).ok());
  (void)core::SimdAvailable();
  core::ChiSquareContext context(model);
  core::X2Kernel kernel(context);
  EXPECT_EQ(kernel.alphabet_size(), 2);
  EXPECT_EQ(core::StreamingDetector::Options{}.max_window, 4096);

  // api/ — typed queries, serde, fingerprints.
  api::QuerySpec spec;
  spec.request = api::TopTQuery{3};
  auto parsed = api::ParseQuery(api::FormatQuery(spec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, spec);
  EXPECT_EQ(api::FingerprintQuery(spec), api::FingerprintQuery(*parsed));

  // engine/ — corpus, engine, cache, streams.
  auto corpus = engine::Corpus::FromStrings({"0101011111", "0000011111"});
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(api::QueryKindToString(api::QueryKind::kMss), "mss");
  engine::Engine engine({.num_threads = 1, .cache_capacity = 4});
  auto results = engine.ExecuteQueries(*corpus, {spec});
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
  EXPECT_NE(engine::FingerprintSequence(corpus->sequence(0)), 0u);
  engine::ResultCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  engine::StreamManager manager;
  EXPECT_TRUE(manager.StreamNames().empty());
  engine::EngineStats stats = engine::CollectEngineStats(&engine, &manager);
  EXPECT_EQ(stats.batches_executed, 1);

  // common/posix_io.h + server/ — the daemon, its client, its protocol.
  IgnoreSigpipe();
  EXPECT_GE(MonotonicMillis(), 0);
  EXPECT_EQ(server::protocol::ErrorCodeName(
                server::protocol::ErrorCode::kBusy),
            "EBUSY");
  EXPECT_TRUE(
      server::protocol::IsEngineBound(server::protocol::CommandKind::kQuery));
  server::ServerOptions server_options;
  EXPECT_EQ(server_options.host, "127.0.0.1");
  server::Server daemon(*corpus, server_options);
  ASSERT_TRUE(daemon.Start().ok());
  auto client =
      server::LineClient::Connect("127.0.0.1", daemon.port(), 2000);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->SendLine("PING").ok());
  auto pong = client->ReadLine(2000);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "OK pong");
  EXPECT_EQ(daemon.stats().connections_accepted, 1);

  // io/ — csv, dates, codecs, tables, simulators.
  EXPECT_EQ(io::ParseCsvLine("a,b").size(), 2u);
  EXPECT_EQ(io::DaysInMonth(2024, 2), 29);
  EXPECT_EQ(io::FormatPercent(0.5), "50.00%");
  io::TableWriter table({"col"});
  table.AddRow({"x"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_TRUE(io::MarketSeries::Generate(io::MarketConfig{}).ok());
  EXPECT_TRUE(io::RivalrySeries::Generate(io::RivalryConfig{}).ok());

  // stats/ — one symbol per header.
  EXPECT_GT(stats::ChiSquaredDistribution(1).CriticalValue(0.05), 3.8);
  EXPECT_GE(stats::PearsonChiSquare(std::vector<int64_t>{2, 2},
                                    std::vector<double>{0.5, 0.5}),
            0.0);
  EXPECT_NEAR(stats::Mean(std::vector<double>{1.0, 3.0}), 2.0, 1e-12);
  EXPECT_GE(stats::MultinomialConfigurationCount(2, 2), 1);
  EXPECT_NEAR(stats::LogGamma(2.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace sigsub
