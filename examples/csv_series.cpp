// Analyze a user-supplied price series from a CSV file — the adoption path
// for running the paper's stock-return analysis (Section 7.5.2) on real
// downloaded data instead of the bundled simulators.
//
// Usage:
//   csv_series [file.csv [column]]
//
// The CSV is expected to hold one price level per row in the given column
// (default 1), with a header row. Without arguments, a demo CSV is written
// to a temp path and analyzed so the example is runnable out of the box.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/str_util.h"
#include "sigsub.h"

namespace {

using namespace sigsub;

// Writes a demo price series: a geometric random walk with a planted
// drawdown, so the detector has something to find.
std::string WriteDemoCsv() {
  std::string path = StrCat(std::getenv("TMPDIR") ? std::getenv("TMPDIR")
                                                  : "/tmp",
                            "/sigsub_demo_prices.csv");
  seq::Rng rng(20120827);  // VLDB 2012 conference date.
  std::string contents = "day,close\n";
  double price = 100.0;
  for (int day = 0; day < 4000; ++day) {
    bool in_crash = day >= 2500 && day < 2750;
    double up_prob = in_crash ? 0.30 : 0.52;
    price *= rng.NextBernoulli(up_prob) ? 1.01 : 0.99;
    contents += StrCat(day, ",", StrFormat("%.4f", price), "\n");
  }
  auto status = io::WriteTextFile(path, contents);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  std::printf("(no input given: wrote demo series with a crash planted at "
              "days [2500, 2750) to %s)\n\n",
              path.c_str());
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : WriteDemoCsv();
  int column = argc > 2 ? std::atoi(argv[2]) : 1;

  auto levels = io::ReadCsvNumericColumn(path, column, /*has_header=*/true);
  if (!levels.ok()) {
    std::fprintf(stderr, "%s\n", levels.status().ToString().c_str());
    return 1;
  }
  auto updown = io::UpDownFromLevels(*levels);
  if (!updown.ok()) {
    std::fprintf(stderr, "%s\n", updown.status().ToString().c_str());
    return 1;
  }

  // Null model: the empirical up-day ratio, as the paper estimates it.
  int64_t ups = 0;
  for (int64_t i = 0; i < updown->size(); ++i) ups += (*updown)[i];
  double p_up = static_cast<double>(ups) / static_cast<double>(updown->size());
  auto model_result = seq::MultinomialModel::Make({1.0 - p_up, p_up});
  if (!model_result.ok()) {
    std::fprintf(stderr, "%s\n", model_result.status().ToString().c_str());
    return 1;
  }

  std::printf("series: %lld moves, up-ratio %.2f%%\n",
              static_cast<long long>(updown->size()), 100.0 * p_up);

  core::TopDisjointOptions options;
  options.t = 5;
  options.min_length = 10;
  options.min_chi_square = stats::ChiSquareThresholdForPValue(1e-4, 2);
  auto periods =
      core::FindTopDisjoint(*updown, model_result.value(), options);
  if (!periods.ok()) {
    std::fprintf(stderr, "%s\n", periods.status().ToString().c_str());
    return 1;
  }
  if (periods->empty()) {
    std::printf("no significant periods at p < 1e-4 — series is consistent "
                "with its own drift\n");
    return 0;
  }
  io::TableWriter table({"Rows", "X2", "p-value", "up-ratio"});
  for (const auto& period : *periods) {
    int64_t period_ups = 0;
    for (int64_t i = period.start; i < period.end; ++i) {
      period_ups += (*updown)[i];
    }
    table.AddRow(
        {StrFormat("[%lld, %lld)", static_cast<long long>(period.start),
                   static_cast<long long>(period.end)),
         StrFormat("%.2f", period.chi_square),
         StrFormat("%.3g", stats::ChiSquarePValue(period.chi_square, 2)),
         io::FormatPercent(static_cast<double>(period_ups) /
                           static_cast<double>(period.length()))});
  }
  std::printf("significant periods (p < 1e-4, disjoint):\n%s",
              table.Render().c_str());
  return 0;
}
