#ifndef SIGSUB_IO_DATE_AXIS_H_
#define SIGSUB_IO_DATE_AXIS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sigsub {
namespace io {

/// A Gregorian calendar date.
struct Date {
  int year = 1900;
  int month = 1;  // 1..12
  int day = 1;    // 1..31

  /// "dd-mm-yyyy", the format of the paper's Tables 3-6.
  std::string ToString() const;

  bool operator==(const Date&) const = default;
};

/// True for Gregorian leap years.
bool IsLeapYear(int year);

/// Days in the given month of the given year.
int DaysInMonth(int year, int month);

/// The date `days` days after `d` (days >= 0).
Date AddDays(Date d, int64_t days);

/// Day of week, 0 = Monday .. 6 = Sunday (proleptic Gregorian).
int DayOfWeek(const Date& d);

/// Maps sequence positions to calendar dates, so application benchmarks can
/// report periods the way the paper's tables do. Synthetic stand-in for the
/// real datasets' timestamps: the paper's stock and sports series are not
/// shipped with this repository, so the application benchmarks run on the
/// seeded simulators of io/market_sim.h and io/sports_sim.h.
class DateAxis {
 public:
  /// A sports schedule: `games_per_year` games per season, evenly spaced
  /// from mid-April to early October starting in `start_year`.
  static DateAxis SportsSchedule(int start_year, int64_t num_games,
                                 int games_per_year);

  /// Consecutive trading days (weekdays; holidays ignored) starting at
  /// `start`.
  static DateAxis TradingDays(Date start, int64_t num_days);

  int64_t size() const { return static_cast<int64_t>(dates_.size()); }
  const Date& date(int64_t index) const { return dates_[index]; }

  /// Index of the first date >= `d` (or size() if none).
  int64_t LowerBound(const Date& d) const;

 private:
  explicit DateAxis(std::vector<Date> dates) : dates_(std::move(dates)) {}

  std::vector<Date> dates_;
};

}  // namespace io
}  // namespace sigsub

#endif  // SIGSUB_IO_DATE_AXIS_H_
