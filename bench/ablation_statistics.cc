// Ablation A2: Pearson X² vs the likelihood-ratio G²
// statistic (paper Section 1 discusses both; X² is adopted because it
// converges to χ²(k−1) from below, reducing type-I errors).
//
// This bench quantifies, per (n, k): the agreement between the two
// statistics on the MSS the X²-scan finds, and the empirical distribution
// of X²_max versus the χ² asymptotics used for p-values.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/harness.h"
#include "io/table_writer.h"
#include "sigsub.h"
#include "stats/descriptive.h"

int main() {
  using namespace sigsub;
  bench::PrintHeader("Ablation A2 — X² vs likelihood-ratio G² statistic",
                     "agreement of the two goodness-of-fit statistics on "
                     "null strings");

  int trials = bench::FastMode() ? 5 : 20;
  io::TableWriter table({"n", "k", "E[X2max]", "E[G2@MSS]", "mean |Δ|/X2",
                         "E[p-value]"});
  for (int64_t n : {2000, 10000}) {
    for (int k : {2, 4}) {
      auto model = seq::MultinomialModel::Uniform(k);
      std::vector<double> x2s, g2s, rel_deltas, pvals;
      for (int trial = 0; trial < trials; ++trial) {
        seq::Rng rng(333 + n + k * 7 + trial);
        seq::Sequence s = seq::GenerateNull(k, n, rng);
        auto mss = core::FindMss(s, model);
        auto scored =
            core::ScoreSubstring(s, model, mss->best.start, mss->best.end);
        x2s.push_back(mss->best.chi_square);
        g2s.push_back(scored->g2);
        rel_deltas.push_back(std::fabs(scored->g2 - mss->best.chi_square) /
                             mss->best.chi_square);
        pvals.push_back(scored->p_value);
      }
      table.AddRow({std::to_string(n), std::to_string(k),
                    StrFormat("%.2f", stats::Mean(x2s)),
                    StrFormat("%.2f", stats::Mean(g2s)),
                    StrFormat("%.3f", stats::Mean(rel_deltas)),
                    StrFormat("%.2e", stats::Mean(pvals))});
    }
  }
  std::printf("%s", table.Render().c_str());
  std::printf("(expected: G² tracks X² within a few percent at the MSS; "
              "both statistics would select essentially the same regions)\n");
  return 0;
}
