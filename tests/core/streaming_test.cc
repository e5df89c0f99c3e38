#include "core/streaming.h"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "stats/chi_squared.h"
#include "stats/count_statistics.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

/// Options that alarm on any X² > threshold at every position (raw
/// threshold, hysteresis disabled) — the exact-parity configuration the
/// brute-force comparisons use.
StreamingDetector::Options RawThreshold(int64_t max_window,
                                        double threshold) {
  StreamingDetector::Options options;
  options.max_window = max_window;
  options.x2_threshold = threshold;
  options.rearm_fraction = std::numeric_limits<double>::infinity();
  return options;
}

TEST(StreamingDetectorTest, MakeValidates) {
  auto model = seq::MultinomialModel::Uniform(2);
  StreamingDetector::Options bad_window;
  bad_window.max_window = 0;
  EXPECT_TRUE(
      StreamingDetector::Make(model, bad_window).status().IsInvalidArgument());
  // The window sizes a max_window + 1 byte ring: bounded at 10^9.
  StreamingDetector::Options huge_window;
  huge_window.max_window = 100'000'000'000;
  auto huge = StreamingDetector::Make(model, huge_window);
  ASSERT_TRUE(huge.status().IsInvalidArgument());
  EXPECT_EQ(huge.status().message(),
            "max_window must be in [1, 1000000000], got 100000000000");
  huge_window.max_window = StreamingDetector::kMaxWindow + 1;
  EXPECT_TRUE(
      StreamingDetector::Make(model, huge_window).status().IsInvalidArgument());
  EXPECT_EQ(StreamingDetector::kMaxWindow, 1'000'000'000);
  StreamingDetector::Options bad_alpha;
  bad_alpha.alpha = 0.0;  // Calibrated path needs alpha in (0, 1).
  EXPECT_TRUE(
      StreamingDetector::Make(model, bad_alpha).status().IsInvalidArgument());
  StreamingDetector::Options alpha_one;
  alpha_one.alpha = 1.0;
  EXPECT_TRUE(
      StreamingDetector::Make(model, alpha_one).status().IsInvalidArgument());
  StreamingDetector::Options bad_rearm;
  bad_rearm.rearm_fraction = -0.5;
  EXPECT_TRUE(
      StreamingDetector::Make(model, bad_rearm).status().IsInvalidArgument());
  // A raw threshold bypasses the alpha validation.
  StreamingDetector::Options raw;
  raw.alpha = 0.0;
  raw.x2_threshold = 10.0;
  EXPECT_TRUE(StreamingDetector::Make(model, raw).ok());
}

TEST(StreamingDetectorTest, ScalesAreDyadicPlusMax) {
  auto model = seq::MultinomialModel::Uniform(2);
  StreamingDetector::Options options;
  options.max_window = 100;
  auto detector = StreamingDetector::Make(model, options);
  ASSERT_TRUE(detector.ok());
  EXPECT_EQ(detector->scales(),
            (std::vector<int64_t>{1, 2, 4, 8, 16, 32, 64, 100}));
}

TEST(StreamingDetectorTest, ThresholdsFollowSidakCorrectedQuantile) {
  auto model = seq::MultinomialModel::Uniform(4);
  StreamingDetector::Options options;
  options.max_window = 256;  // 9 scales.
  options.alpha = 1e-4;
  auto detector = StreamingDetector::Make(model, options).value();
  ASSERT_EQ(detector.scale_thresholds().size(), detector.scales().size());
  const double per_scale =
      -std::expm1(std::log1p(-options.alpha) /
                  static_cast<double>(detector.scales().size()));
  const double expected =
      stats::ChiSquaredDistribution(3).CriticalValue(per_scale);
  for (double threshold : detector.scale_thresholds()) {
    EXPECT_DOUBLE_EQ(threshold, expected);
  }
  // Sanity: the family threshold is deeper than the uncorrected one.
  EXPECT_GT(expected, stats::ChiSquaredDistribution(3).CriticalValue(
                          options.alpha));
}

TEST(StreamingDetectorTest, SuffixWindowChiSquareIsExact) {
  // The alarm's X² must equal the offline statistic of the same window.
  seq::Rng rng(61);
  auto model = seq::MultinomialModel::Uniform(2);
  auto detector =
      StreamingDetector::Make(model, RawThreshold(64, 0.0)).value();
  seq::Sequence s = seq::GenerateNull(2, 300, rng);
  for (int64_t i = 0; i < s.size(); ++i) {
    auto alarm = detector.Append(s[i]);
    if (!alarm.has_value()) continue;
    std::vector<int64_t> counts =
        s.CountsInRange(alarm->end - alarm->length, alarm->end);
    double offline = stats::PearsonChiSquare(
        counts, std::vector<double>{0.5, 0.5});
    ASSERT_NEAR(alarm->chi_square, offline, 1e-9 * (1.0 + offline))
        << "i=" << i;
    EXPECT_NEAR(alarm->p_value, stats::ChiSquarePValue(alarm->chi_square, 2),
                1e-12);
  }
}

TEST(StreamingDetectorTest, DetectsPlantedBurstPromptly) {
  seq::Rng rng(62);
  auto model = seq::MultinomialModel::Uniform(2);
  StreamingDetector::Options options;
  options.max_window = 512;
  options.alpha = 1e-6;  // The calibrated default-style threshold.
  auto detector = StreamingDetector::Make(model, options);
  ASSERT_TRUE(detector.ok());

  auto stream = seq::GenerateRegimes(
      2, {{5000, {0.5, 0.5}}, {128, {0.05, 0.95}}, {2000, {0.5, 0.5}}}, rng);
  ASSERT_TRUE(stream.ok());
  int64_t first_alarm = -1;
  for (int64_t i = 0; i < stream->size(); ++i) {
    auto alarm = detector->Append((*stream)[i]);
    if (alarm.has_value() && first_alarm < 0) first_alarm = alarm->end;
  }
  ASSERT_GE(first_alarm, 0) << "burst was never flagged";
  // Flagged inside or shortly after the planted burst [5000, 5128).
  EXPECT_GT(first_alarm, 5000);
  EXPECT_LT(first_alarm, 5200);
}

TEST(StreamingDetectorTest, DefaultOptionsDoNotAlarmSpamOnNullStream) {
  // Regression: the former default (alpha0 = 0.0, alarm when X² > 0)
  // alarmed on essentially every append once a window filled. The
  // calibrated default must keep a pure null stream quiet.
  seq::Rng rng(63);
  auto model = seq::MultinomialModel::Uniform(2);
  auto detector = StreamingDetector::Make(model, {}).value();
  seq::Sequence s = seq::GenerateNull(2, 20000, rng);
  int64_t alarms = 0;
  for (int64_t i = 0; i < s.size(); ++i) {
    if (detector.Append(s[i]).has_value()) ++alarms;
  }
  EXPECT_EQ(alarms, 0);
  EXPECT_EQ(detector.alarms_raised(), 0);
}

TEST(StreamingDetectorTest, NullStreamFalsePositiveRateIsNearAlpha) {
  // Calibration check: with hysteresis disabled, the per-position
  // family-wise exceedance rate on a null stream must sit near (and,
  // by Šidák conservatism under the positive dependence of nested
  // windows plus the discreteness of the short scales, below) alpha.
  // The band is deliberately generous — it catches an uncalibrated
  // threshold (rate ~1) or a threshold pushed far too deep (rate 0),
  // not distributional fine print.
  seq::Rng rng(64);
  const double alpha = 0.02;
  auto model = seq::MultinomialModel::Uniform(4);
  StreamingDetector::Options options;
  options.max_window = 256;
  options.alpha = alpha;
  options.rearm_fraction = std::numeric_limits<double>::infinity();
  auto detector = StreamingDetector::Make(model, options).value();
  const int64_t n = 100000;
  seq::Sequence s = seq::GenerateNull(4, n, rng);
  int64_t alarm_positions = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (detector.Append(s[i]).has_value()) ++alarm_positions;
  }
  const double rate = static_cast<double>(alarm_positions) /
                      static_cast<double>(n);
  EXPECT_GT(rate, alpha / 50.0) << "threshold far too deep";
  EXPECT_LT(rate, 2.0 * alpha) << "threshold not calibrated";
}

TEST(StreamingDetectorTest, HysteresisRaisesOneAlarmPerScalePerExcursion) {
  // A sustained anomaly must not alarm at every position: each scale
  // alarms once when it crosses its threshold and stays silent until it
  // rearms below rearm_fraction * threshold.
  seq::Rng rng(65);
  auto model = seq::MultinomialModel::Uniform(2);
  StreamingDetector::Options options;
  options.max_window = 64;
  options.alpha = 1e-6;
  options.rearm_fraction = 0.5;
  auto detector = StreamingDetector::Make(model, options).value();
  auto stream = seq::GenerateRegimes(
      2, {{2000, {0.5, 0.5}}, {400, {0.02, 0.98}}, {2000, {0.5, 0.5}}}, rng);
  ASSERT_TRUE(stream.ok());
  for (int64_t i = 0; i < stream->size(); ++i) detector.Append((*stream)[i]);
  // One sustained 400-symbol excursion, 7 monitored scales: without
  // hysteresis the burst would raise hundreds of alarms (one per
  // position per scale while inside the window).
  EXPECT_GT(detector.alarms_raised(), 0);
  EXPECT_LE(detector.alarms_raised(),
            2 * static_cast<int64_t>(detector.scales().size()));
}

TEST(StreamingDetectorTest, IncrementalCountsMatchBruteForceAtEveryStep) {
  // Exercises the symbol ring across many wraparounds: at every position
  // the detector's strongest alarm must match a brute-force evaluation
  // of every monitored suffix window.
  seq::Rng rng(66);
  auto model = seq::MultinomialModel::Make({0.2, 0.3, 0.5}).value();
  auto detector =
      StreamingDetector::Make(model, RawThreshold(13, 0.0)).value();
  seq::Sequence s = seq::GenerateNull(3, 400, rng);
  std::vector<double> probs{0.2, 0.3, 0.5};
  for (int64_t i = 0; i < s.size(); ++i) {
    auto alarm = detector.Append(s[i]);
    std::optional<StreamingDetector::Alarm> expected;
    for (int64_t scale : detector.scales()) {
      if (scale > i + 1) break;
      std::vector<int64_t> counts = s.CountsInRange(i + 1 - scale, i + 1);
      double x2 = stats::PearsonChiSquare(counts, probs);
      if (x2 > 0.0 && (!expected.has_value() || x2 > expected->chi_square)) {
        expected = StreamingDetector::Alarm{i + 1, scale, x2, 0.0};
      }
    }
    ASSERT_EQ(alarm.has_value(), expected.has_value()) << "i=" << i;
    if (alarm.has_value()) {
      EXPECT_EQ(alarm->length, expected->length) << "i=" << i;
      ASSERT_NEAR(alarm->chi_square, expected->chi_square,
                  1e-9 * (1.0 + expected->chi_square))
          << "i=" << i;
    }
  }
}

TEST(StreamingDetectorTest, AppendChunkMatchesPerSymbolAppend) {
  // The chunked pass must match per-symbol ingestion under the documented
  // contract: counter state (and hence CurrentChiSquares) bit-identical
  // for any chunking, the same alarm events at the same positions, and
  // alarm X² values equal to ~1e-12 relative (the sliding weighted sum
  // reorders floating-point work; it reseeds at every chunk boundary).
  // Compared across several chunk sizes, against both Append and
  // single-symbol AppendChunk (whose event list is complete, unlike
  // Append's strongest-only return), for every hysteresis regime: a rearm
  // level below, at and above the threshold, and none at all.
  seq::Rng rng(67);
  auto model = seq::MultinomialModel::Uniform(4);
  auto stream = seq::GenerateRegimes(
      4,
      {{3000, {0.25, 0.25, 0.25, 0.25}},
       {200, {0.85, 0.05, 0.05, 0.05}},
       {3000, {0.25, 0.25, 0.25, 0.25}},
       {150, {0.05, 0.05, 0.05, 0.85}},
       {1000, {0.25, 0.25, 0.25, 0.25}}},
      rng);
  ASSERT_TRUE(stream.ok());
  std::span<const uint8_t> symbols = stream->symbols();

  for (double rearm_fraction :
       {0.5, 1.0, 1.5, 3.0, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(::testing::Message() << "rearm_fraction=" << rearm_fraction);
    StreamingDetector::Options options;
    options.max_window = 300;  // Non-dyadic max, wraps the ring often.
    options.alpha = 1e-4;
    options.rearm_fraction = rearm_fraction;

    auto reference = StreamingDetector::Make(model, options).value();
    std::vector<StreamingDetector::Alarm> reference_alarms;
    for (size_t i = 0; i < symbols.size(); ++i) {
      // Single-symbol chunks return every alarm event (no strongest-only
      // filtering), giving the complete reference event list.
      for (const auto& alarm : reference.AppendChunk(symbols.subspan(i, 1))) {
        reference_alarms.push_back(alarm);
      }
    }
    EXPECT_GT(reference_alarms.size(), 0u) << "planted bursts never alarmed";

    // Per-symbol Append raises the same events: the same total, and its
    // strongest alarm at exactly the positions where the list has one.
    auto per_symbol = StreamingDetector::Make(model, options).value();
    std::vector<StreamingDetector::Alarm> strongest;
    for (size_t i = 0; i < symbols.size(); ++i) {
      if (auto alarm = per_symbol.Append(symbols[i])) {
        strongest.push_back(*alarm);
      }
    }
    EXPECT_EQ(per_symbol.alarms_raised(), reference.alarms_raised());
    EXPECT_EQ(reference.alarms_raised(),
              static_cast<int64_t>(reference_alarms.size()));
    EXPECT_EQ(per_symbol.CurrentChiSquares(), reference.CurrentChiSquares());
    std::vector<StreamingDetector::Alarm> reference_strongest;
    for (const auto& alarm : reference_alarms) {
      if (reference_strongest.empty() ||
          reference_strongest.back().end != alarm.end) {
        reference_strongest.push_back(alarm);
      } else if (alarm.chi_square > reference_strongest.back().chi_square) {
        reference_strongest.back() = alarm;
      }
    }
    ASSERT_EQ(strongest.size(), reference_strongest.size());
    for (size_t a = 0; a < strongest.size(); ++a) {
      EXPECT_EQ(strongest[a].end, reference_strongest[a].end);
      EXPECT_NEAR(strongest[a].chi_square, reference_strongest[a].chi_square,
                  1e-9 * (1.0 + reference_strongest[a].chi_square));
    }

    for (size_t chunk :
         {size_t{7}, size_t{64}, size_t{301}, size_t{4096}, symbols.size()}) {
      auto chunked = StreamingDetector::Make(model, options).value();
      std::vector<StreamingDetector::Alarm> chunked_alarms;
      for (size_t offset = 0; offset < symbols.size(); offset += chunk) {
        size_t take = std::min(chunk, symbols.size() - offset);
        for (const auto& alarm :
             chunked.AppendChunk(symbols.subspan(offset, take))) {
          chunked_alarms.push_back(alarm);
        }
      }
      ASSERT_EQ(chunked.position(), reference.position())
          << "chunk=" << chunk;
      // Bit-identical final window state...
      EXPECT_EQ(chunked.CurrentChiSquares(), reference.CurrentChiSquares())
          << "chunk=" << chunk;
      // ...and the identical alarm-event sequence.
      ASSERT_EQ(chunked_alarms.size(), reference_alarms.size())
          << "chunk=" << chunk;
      for (size_t a = 0; a < chunked_alarms.size(); ++a) {
        EXPECT_EQ(chunked_alarms[a].end, reference_alarms[a].end);
        EXPECT_EQ(chunked_alarms[a].length, reference_alarms[a].length);
        EXPECT_NEAR(chunked_alarms[a].chi_square,
                    reference_alarms[a].chi_square,
                    1e-9 * (1.0 + reference_alarms[a].chi_square));
      }
    }
  }
}

TEST(StreamingDetectorTest, AppendChunkOrdersAlarmsByStreamPosition) {
  // The scale-major pass emits alarms grouped by scale; the returned list
  // must nonetheless be in stream order.
  seq::Rng rng(68);
  auto model = seq::MultinomialModel::Uniform(2);
  auto stream = seq::GenerateRegimes(
      2, {{1000, {0.5, 0.5}}, {300, {0.03, 0.97}}, {500, {0.5, 0.5}}}, rng);
  ASSERT_TRUE(stream.ok());
  StreamingDetector::Options options;
  options.max_window = 128;
  options.alpha = 1e-4;
  auto detector = StreamingDetector::Make(model, options).value();
  auto alarms = detector.AppendChunk(stream->symbols());
  ASSERT_GT(alarms.size(), 1u);
  for (size_t i = 1; i < alarms.size(); ++i) {
    EXPECT_LE(alarms[i - 1].end, alarms[i].end);
  }
}

TEST(StreamingDetectorTest, TryAppendChunkRejectsWithoutStateChange) {
  auto model = seq::MultinomialModel::Uniform(2);
  auto detector = StreamingDetector::Make(model, {}).value();
  std::vector<uint8_t> good{0, 1, 0, 1};
  ASSERT_TRUE(detector.TryAppendChunk(good).ok());
  EXPECT_EQ(detector.position(), 4);
  // The bad symbol sits mid-chunk: nothing before it may be applied.
  std::vector<uint8_t> bad{0, 1, 7, 1};
  auto rejected = detector.TryAppendChunk(bad);
  ASSERT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(detector.position(), 4);
  // A one-symbol chunk just past the alphabet is rejected the same way.
  std::vector<uint8_t> one_bad{2};
  ASSERT_TRUE(detector.TryAppendChunk(one_bad).status().IsInvalidArgument());
  EXPECT_EQ(detector.position(), 4);
  // A rejection leaves the detector usable: the next valid chunk applies.
  std::vector<uint8_t> one_good{1};
  ASSERT_TRUE(detector.TryAppendChunk(one_good).ok());
  EXPECT_EQ(detector.position(), 5);
}

TEST(StreamingDetectorTest, SharedContextMakeMatchesModelMake) {
  seq::Rng rng(69);
  auto model = seq::MultinomialModel::Uniform(4);
  auto context = std::make_shared<const ChiSquareContext>(model);
  StreamingDetector::Options options;
  options.max_window = 64;
  options.alpha = 1e-3;
  auto from_model = StreamingDetector::Make(model, options).value();
  auto from_context = StreamingDetector::Make(context, options).value();
  seq::Sequence s = seq::GenerateNull(4, 2000, rng);
  from_model.AppendChunk(s.symbols());
  from_context.AppendChunk(s.symbols());
  EXPECT_EQ(from_model.alarms_raised(), from_context.alarms_raised());
  EXPECT_EQ(from_model.CurrentChiSquares(), from_context.CurrentChiSquares());
  EXPECT_TRUE(
      StreamingDetector::Make(std::shared_ptr<const ChiSquareContext>(),
                              options)
          .status()
          .IsInvalidArgument());
}

TEST(StreamingDetectorTest, PositionCounts) {
  auto model = seq::MultinomialModel::Uniform(2);
  auto detector = StreamingDetector::Make(model, {}).value();
  EXPECT_EQ(detector.position(), 0);
  detector.Append(0);
  detector.Append(1);
  EXPECT_EQ(detector.position(), 2);
  detector.AppendChunk(std::vector<uint8_t>{0, 0, 1});
  EXPECT_EQ(detector.position(), 5);
}

TEST(StreamingDetectorTest, WindowOneAlarmsOnEverySymbolAtZeroThreshold) {
  auto model = seq::MultinomialModel::Make({0.25, 0.75}).value();
  auto detector =
      StreamingDetector::Make(model, RawThreshold(1, 0.0)).value();
  auto alarm = detector.Append(0);
  ASSERT_TRUE(alarm.has_value());
  EXPECT_EQ(alarm->length, 1);
  EXPECT_NEAR(alarm->chi_square, 3.0, 1e-12);  // 1/0.25 − 1.
}

}  // namespace
}  // namespace core
}  // namespace sigsub
