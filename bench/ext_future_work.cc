// Extension bench (paper Section 8 future work, implemented in this
// library; not a paper table/figure):
//   (1) Markov-null scoring — transition anomalies invisible to the
//       multinomial statistic;
//   (2) windowed (length-bounded) MSS — scan cost vs window size.
//
// Gate: the windowed scan with w = n must reproduce core::FindMss's X²max
// bit for bit; the bench exits non-zero otherwise.

#include <cstdio>
#include <vector>

#include "common/harness.h"
#include "io/table_writer.h"
#include "sigsub.h"

int main() {
  using namespace sigsub;
  bench::PrintHeader("Extensions — Markov null, windowed MSS",
                     "paper §8 future-work directions implemented as "
                     "library extensions");

  // --- (1) Markov vs multinomial statistic on a transition anomaly. ---
  {
    const int64_t segment = bench::FastMode() ? 1500 : 4000;
    seq::Rng rng(81);
    seq::Sequence s(2);
    seq::Sequence a = seq::GenerateBiasedBinary(0.5, segment, rng);
    seq::Sequence b = seq::GenerateBiasedBinary(0.03, 250, rng);
    seq::Sequence c = seq::GenerateBiasedBinary(0.5, segment, rng);
    for (int64_t i = 0; i < a.size(); ++i) s.Append(a[i]);
    for (int64_t i = 0; i < b.size(); ++i) s.Append(b[i]);
    for (int64_t i = 0; i < c.size(); ++i) s.Append(c[i]);

    auto multinomial = core::FindMss(s, seq::MultinomialModel::Uniform(2));
    auto markov =
        core::FindMssMarkov(s, seq::MarkovModel::BiasedBinary(0.5), 16);
    std::printf("\n(1) alternation burst planted at [%lld, %lld):\n",
                static_cast<long long>(segment),
                static_cast<long long>(segment + 250));
    io::TableWriter table({"statistic", "X2max", "window"});
    table.AddRow({"multinomial X2",
                  StrFormat("%.2f", multinomial->best.chi_square),
                  StrFormat("[%lld, %lld)",
                            static_cast<long long>(multinomial->best.start),
                            static_cast<long long>(multinomial->best.end))});
    table.AddRow({"Markov X2",
                  StrFormat("%.2f", markov->best.chi_square),
                  StrFormat("[%lld, %lld)",
                            static_cast<long long>(markov->best.start),
                            static_cast<long long>(markov->best.end))});
    std::printf("%s", table.Render().c_str());
    std::printf("(expected: Markov statistic pinpoints the burst; "
                "multinomial statistic is nearly blind to it)\n");
  }

  // --- (2) Windowed MSS: work vs window size. ---
  {
    const int64_t n = bench::FastMode() ? 20000 : 100000;
    seq::Rng rng(83);
    seq::Sequence s = seq::GenerateNull(2, n, rng);
    auto model = seq::MultinomialModel::Uniform(2);
    seq::PrefixCounts counts(s);
    core::ChiSquareContext ctx(model);
    std::printf("\n(2) windowed MSS on a null string (n = %lld):\n",
                static_cast<long long>(n));
    io::TableWriter table({"max window w", "examined", "X2max"});
    double unbounded_x2 = 0.0;
    for (int64_t w : std::vector<int64_t>{16, 64, 256, 1024, 4096, n}) {
      auto result = core::FindMssLengthBounded(counts, ctx, 1, w);
      table.AddRow({std::to_string(w),
                    std::to_string(result.stats.positions_examined),
                    StrFormat("%.2f", result.best.chi_square)});
      if (w == n) unbounded_x2 = result.best.chi_square;
    }
    std::printf("%s", table.Render().c_str());
    std::printf("(expected: work grows sub-linearly in w once skips "
                "activate; X2max saturates at the unconstrained value)\n");
    const double mss_x2 = core::FindMss(counts, ctx).best.chi_square;
    const bool gate_ok = unbounded_x2 == mss_x2;
    std::printf("gate: w = n X2max %.17g %s FindMss X2max %.17g: %s\n",
                unbounded_x2, gate_ok ? "==" : "!=", mss_x2,
                gate_ok ? "pass" : "FAIL");
    if (!gate_ok) return 1;
  }
  return 0;
}
