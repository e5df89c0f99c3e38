// DNA compositional-anomaly detection (computational-biology motivation
// from the paper's introduction: over-represented regions in genomic
// sequences, e.g. GC-rich isochores or CpG islands).
//
// We synthesize a genome fragment whose background follows the genome-wide
// base composition, plant a GC-rich island, and use the MSS and top-t
// disjoint machinery to recover it.

#include <cstdio>
#include <string>

#include "sigsub.h"

int main() {
  using namespace sigsub;

  // Background composition (human-like): A/T-rich.
  const std::vector<double> kBackground{0.295, 0.205, 0.205, 0.295};
  // GC island: strongly G/C enriched.
  const std::vector<double> kIsland{0.13, 0.37, 0.37, 0.13};

  seq::Rng rng(20260610);
  auto genome = seq::GenerateRegimes(
      4,
      {{60000, kBackground}, {1500, kIsland}, {60000, kBackground}}, rng);
  if (!genome.ok()) {
    std::fprintf(stderr, "%s\n", genome.status().ToString().c_str());
    return 1;
  }

  // Score against the genome-wide null composition, as the paper scores
  // against the generative multinomial model.
  auto model_result = seq::MultinomialModel::Make(kBackground);
  if (!model_result.ok()) {
    std::fprintf(stderr, "%s\n", model_result.status().ToString().c_str());
    return 1;
  }
  const seq::MultinomialModel& model = model_result.value();

  auto mss = core::FindMss(*genome, model);
  if (!mss.ok()) {
    std::fprintf(stderr, "%s\n", mss.status().ToString().c_str());
    return 1;
  }

  auto alphabet = seq::Alphabet::FromCharacters("ACGT").value();
  std::printf("planted GC island:  [60000, 61500)\n");
  std::printf("recovered MSS:      [%lld, %lld)  X² = %.1f  p = %.3g\n",
              static_cast<long long>(mss->best.start),
              static_cast<long long>(mss->best.end), mss->best.chi_square,
              stats::ChiSquarePValue(mss->best.chi_square, 4));

  // Base composition inside the recovered region.
  std::vector<int64_t> counts =
      genome->CountsInRange(mss->best.start, mss->best.end);
  double len = static_cast<double>(mss->best.length());
  std::printf("composition inside: ");
  for (int c = 0; c < 4; ++c) {
    std::printf("%c=%.1f%% ", alphabet.CharOf(static_cast<uint8_t>(c)),
                100.0 * static_cast<double>(counts[c]) / len);
  }
  std::printf("\n");

  // Multiple islands? Use disjoint top-t with a minimum length so single
  // bases do not qualify; report everything significant at p < 1e-6.
  core::TopDisjointOptions options;
  options.t = 5;
  options.min_length = 200;
  options.min_chi_square = stats::ChiSquareThresholdForPValue(1e-6, 4);
  auto islands = core::FindTopDisjoint(*genome, model, options);
  if (islands.ok()) {
    std::printf("\nsignificant islands (p < 1e-6, length >= 200):\n");
    for (const auto& island : *islands) {
      std::printf("  [%lld, %lld)  X² = %.1f\n",
                  static_cast<long long>(island.start),
                  static_cast<long long>(island.end), island.chi_square);
    }
  }
  return 0;
}
