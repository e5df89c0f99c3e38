// Quickstart: generate a string with a hidden anomaly, then mine it
// through the library's query facade — a typed api::QuerySpec executed on
// the engine, plus the same query written in its serialized text form.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "sigsub.h"

int main() {
  using namespace sigsub;

  // 1. A binary string: fair-coin background with a biased stretch planted
  //    in the middle (positions 4000-4300 are 80% ones).
  seq::Rng rng(/*seed=*/42);
  auto sequence = seq::GenerateRegimes(
      /*alphabet_size=*/2,
      {{4000, {0.5, 0.5}}, {300, {0.2, 0.8}}, {4000, {0.5, 0.5}}}, rng);
  if (!sequence.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 sequence.status().ToString().c_str());
    return 1;
  }

  // 2. Wrap it as a one-record corpus — the unit the engine mines over.
  auto corpus = engine::Corpus::FromStrings(
      {sequence->ToString(seq::Alphabet::Binary())}, "01");
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  engine::Engine engine;

  // 3. Problem 1 — the most significant substring, as a typed query.
  //    (ModelSpec::Uniform() is the default null model; an explicit
  //    multinomial would be api::ModelSpec::Multinomial({0.5, 0.5}).)
  api::QuerySpec mss;
  mss.request = api::MssQuery{};

  // 4. Problem 2 — the top 3 substrings, written in the serialized form
  //    the CLI's `query` command accepts. ParseQuery and the typed
  //    structs build the exact same spec.
  auto top3 = api::ParseQuery("topt:seq=0,t=3,model=uniform");
  if (!top3.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 top3.status().ToString().c_str());
    return 1;
  }

  auto results = engine.ExecuteQueries(*corpus, {mss, *top3});
  if (!results.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }

  const core::Substring& best = (*results)[0].best();
  std::printf("MSS: [%lld, %lld)  length=%lld  X² = %.2f\n",
              static_cast<long long>(best.start),
              static_cast<long long>(best.end),
              static_cast<long long>(best.length()), best.chi_square);

  // 5. Its p-value under the χ²(k−1) asymptotics.
  std::printf("p-value = %.3g\n", stats::ChiSquarePValue(best.chi_square, 2));

  // 6. How much work the skip-based scan saved versus the trivial O(n²)
  //    algorithm.
  long long trivial =
      static_cast<long long>(core::TrivialScanPositions(sequence->size()));
  long long examined =
      static_cast<long long>((*results)[0].stats().positions_examined);
  std::printf("examined %lld of %lld substr ending positions (%.1f%%)\n",
              examined, trivial,
              100.0 * static_cast<double>(examined) /
                  static_cast<double>(trivial));

  std::printf("top-3 substrings (query \"%s\"):\n",
              api::FormatQuery(*top3).c_str());
  for (const core::Substring& sub : (*results)[1].substrings()) {
    std::printf("  [%lld, %lld)  X² = %.2f\n",
                static_cast<long long>(sub.start),
                static_cast<long long>(sub.end), sub.chi_square);
  }
  return 0;
}
