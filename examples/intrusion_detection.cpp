// Intrusion detection over an event stream (paper Section 1 motivation,
// following the chi-square IDS line of Ye & Chen and Goonatilake et al.).
//
// A monitored system emits one of k event types per tick with a known
// steady-state profile. An attack window inflates the frequency of some
// event types. Problem 3 (all substrings with X² above a threshold chosen
// from a target false-positive rate) flags the attack windows.

#include <cstdio>
#include <vector>

#include "sigsub.h"

int main() {
  using namespace sigsub;

  // Steady-state event profile: {login, read, write, error, admin}.
  const std::vector<double> kProfile{0.30, 0.40, 0.20, 0.07, 0.03};
  // Attack: error and admin events surge (e.g. credential stuffing).
  const std::vector<double> kAttack{0.10, 0.15, 0.15, 0.35, 0.25};

  seq::Rng rng(7);
  auto stream = seq::GenerateRegimes(5,
                                     {{50000, kProfile},
                                      {400, kAttack},
                                      {30000, kProfile},
                                      {250, kAttack},
                                      {20000, kProfile}},
                                     rng);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto model = seq::MultinomialModel::Make(kProfile).value();

  // Threshold: Bonferroni-corrected significance over all ~n²/2 windows at
  // a 0.1% family-wise false-alarm budget.
  double n = static_cast<double>(stream->size());
  double per_window_alpha = 0.001 / (n * n / 2.0);
  double alpha0 = stats::ChiSquareThresholdForPValue(per_window_alpha, 5);
  std::printf("stream length: %.0f events, X² alarm threshold: %.1f\n", n,
              alpha0);

  core::ThresholdOptions options;
  options.max_matches = 100000;
  auto alarms = core::FindAboveThreshold(*stream, model, alpha0, options);
  if (!alarms.ok()) {
    std::fprintf(stderr, "%s\n", alarms.status().ToString().c_str());
    return 1;
  }
  std::printf("alarming windows: %lld (examined %lld of %lld candidates)\n",
              static_cast<long long>(alarms->match_count),
              static_cast<long long>(alarms->stats.positions_examined),
              static_cast<long long>(
                  core::TrivialScanPositions(stream->size())));

  // Collapse overlapping alarms into disjoint incidents for the report.
  core::TopDisjointOptions incidents;
  incidents.t = 10;
  incidents.min_length = 50;
  incidents.min_chi_square = alpha0;
  auto report = core::FindTopDisjoint(*stream, model, incidents);
  if (report.ok()) {
    std::printf("\nincident report (attacks planted at [50000, 50400) and "
                "[80400, 80650)):\n");
    for (const auto& incident : *report) {
      std::printf("  window [%6lld, %6lld)  X² = %7.1f  p = %.3g\n",
                  static_cast<long long>(incident.start),
                  static_cast<long long>(incident.end), incident.chi_square,
                  stats::ChiSquarePValue(incident.chi_square, 5));
    }
  }
  return 0;
}
