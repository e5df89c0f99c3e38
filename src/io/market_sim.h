#ifndef SIGSUB_IO_MARKET_SIM_H_
#define SIGSUB_IO_MARKET_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/date_axis.h"
#include "seq/sequence.h"

namespace sigsub {
namespace io {

/// A planted market regime: `num_days` trading days starting at day index
/// `start_day` with daily up-probability `up_prob`.
struct MarketRegime {
  int64_t start_day = 0;
  int64_t num_days = 0;
  double up_prob = 0.5;
  std::string label;
};

/// Configuration of a synthetic daily up/down return series (stand-in for
/// the Dow Jones / S&P 500 / IBM series of paper Section 7.5.2, which are
/// not shipped with this repository).
struct MarketConfig {
  std::string name;
  Date start_date{1928, 10, 1};
  int64_t num_days = 20906;
  double base_up_prob = 0.52;  // Equities drift slightly upward.
  double daily_move = 0.01;    // |return| per day for price reconstruction.
  std::vector<MarketRegime> regimes;
  uint64_t seed = 1928;
};

/// The generated series: updown[i] == 1 iff the price rose on day i.
class MarketSeries {
 public:
  static Result<MarketSeries> Generate(const MarketConfig& config);

  /// Synthetic stand-ins shaped like the paper's three securities
  /// (lengths and regime flavors match Table 5's reported episodes).
  static MarketSeries DowJones();
  static MarketSeries SP500();
  static MarketSeries Ibm();

  const std::string& name() const { return config_.name; }
  const seq::Sequence& updown() const { return updown_; }
  const DateAxis& dates() const { return dates_; }
  const MarketConfig& config() const { return config_; }

  /// Up-days in [start, end).
  int64_t UpDaysInRange(int64_t start, int64_t end) const;

  /// Empirical up-day ratio over the whole series (the paper's null-model
  /// probability, "ratio of days on which price went up").
  double EmpiricalUpRate() const;

  /// Price change over [start, end) under the constant-move price model:
  /// (1+m)^u (1-m)^d − 1, reported like Table 5's "Change" column.
  double PriceChangeInRange(int64_t start, int64_t end) const;

 private:
  MarketSeries(MarketConfig config, seq::Sequence updown, DateAxis dates)
      : config_(std::move(config)),
        updown_(std::move(updown)),
        dates_(std::move(dates)) {}

  MarketConfig config_;
  seq::Sequence updown_;
  DateAxis dates_;
};

}  // namespace io
}  // namespace sigsub

#endif  // SIGSUB_IO_MARKET_SIM_H_
