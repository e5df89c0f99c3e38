// Microbenchmarks for the hot kernels — X² evaluation, prefix-count
// fills, skip solving, and the end-to-end scans — with two jobs beyond
// timing:
//
//   1. Layout gate: the flat position-major seq::PrefixCounts
//      (counts[pos·k + c]) must produce bit-identical count vectors and
//      bit-identical X² values to the previous layout (k separate
//      row-major vectors), reimplemented here as the reference. The gate
//      is fatal: a mismatch exits nonzero.
//   2. Perf trajectory: every timing lands in BENCH_core.json, including
//      the FillCounts-dominated scan where the flat layout's target is
//      >= 1.5x over the row-major reference.
//   3. Skip-solver gate: SkipSolver::MaxSafeExtension (one root and one
//      check per probability class) must return the same skip as the
//      all-characters solver reimplemented here, on every tuple a real
//      MSS scan examines, and be >= 1.3x faster under a uniform k=4 null.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/harness.h"
#include "core/chain_cover.h"
#include "io/table_writer.h"
#include "sigsub.h"

using namespace sigsub;

namespace {

/// The pre-refactor PrefixCounts layout, kept verbatim as the gate
/// reference: k separate rows of n+1 entries, so one FillCounts pays k
/// strided loads.
class RowMajorPrefixCounts {
 public:
  explicit RowMajorPrefixCounts(const seq::Sequence& sequence)
      : alphabet_size_(sequence.alphabet_size()), n_(sequence.size()) {
    counts_.resize(static_cast<size_t>(alphabet_size_));
    for (int c = 0; c < alphabet_size_; ++c) {
      counts_[static_cast<size_t>(c)].assign(static_cast<size_t>(n_) + 1, 0);
    }
    std::span<const uint8_t> symbols = sequence.symbols();
    for (int64_t i = 0; i < n_; ++i) {
      for (int c = 0; c < alphabet_size_; ++c) {
        counts_[static_cast<size_t>(c)][static_cast<size_t>(i) + 1] =
            counts_[static_cast<size_t>(c)][static_cast<size_t>(i)];
      }
      ++counts_[symbols[i]][static_cast<size_t>(i) + 1];
    }
  }

  void FillCounts(int64_t start, int64_t end, std::span<int64_t> out) const {
    for (int c = 0; c < alphabet_size_; ++c) {
      out[c] = counts_[static_cast<size_t>(c)][static_cast<size_t>(end)] -
               counts_[static_cast<size_t>(c)][static_cast<size_t>(start)];
    }
  }

 private:
  int alphabet_size_;
  int64_t n_;
  std::vector<std::vector<int64_t>> counts_;
};

seq::Sequence MakeString(int k, int64_t n) {
  seq::Rng rng(424242 + k + n);
  return seq::GenerateNull(k, n, rng);
}

/// Deterministic (start, end) query stream over [0, n]; xorshift so the
/// access pattern defeats the prefetcher the way a skip scan does.
std::vector<std::pair<int64_t, int64_t>> MakeRanges(int64_t n, size_t count) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ranges.reserve(count);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < count; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    int64_t a = static_cast<int64_t>(state % static_cast<uint64_t>(n + 1));
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    int64_t b = static_cast<int64_t>(state % static_cast<uint64_t>(n + 1));
    if (a > b) std::swap(a, b);
    ranges.emplace_back(a, b);
  }
  return ranges;
}

/// Extended-precision cover quadratic q_c(x), as in core/chain_cover.cc.
long double CoverQuadraticAt(int64_t y_c, double p_c, int64_t l, double x2_l,
                             double budget, int64_t x) {
  long double a = 1.0L - static_cast<long double>(p_c);
  long double b = 2.0L * static_cast<long double>(y_c) -
                  2.0L * static_cast<long double>(l) * p_c -
                  static_cast<long double>(p_c) * budget;
  long double c = (static_cast<long double>(x2_l) - budget) *
                  static_cast<long double>(l) * p_c;
  long double lx = static_cast<long double>(x);
  return (a * lx + b) * lx + c;
}

/// The cover quadratic's positive root, branching on the sign of b as
/// SkipSolver::CharacterRoot did before it selected operands instead.
double ReferenceCharacterRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                              double budget) {
  double a = 1.0 - p_c;
  double b = 2.0 * static_cast<double>(y_c) -
             2.0 * static_cast<double>(l) * p_c - p_c * budget;
  double c = (x2_l - budget) * static_cast<double>(l) * p_c;
  if (c > 0.0) return 0.0;
  double disc = b * b - 4.0 * a * c;
  double sq = std::sqrt(disc);
  if (b <= 0.0) return (-b + sq) / (2.0 * a);
  return (-2.0 * c) / (b + sq);
}

/// The skip solver before probability classes, kept as the timing and
/// identity reference: the floor of the smallest of k per-character
/// roots, decremented while any of k long-double checks fails. Out of
/// line, so that it pays a call as the library solver does.
[[gnu::noinline]] int64_t AllCharactersMaxSafeExtension(
    std::span<const double> probs, const int64_t* lo, const int64_t* hi,
    int64_t l, double x2_l, double budget) {
  if (x2_l > budget) return 0;
  double min_root = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < probs.size(); ++c) {
    double root =
        ReferenceCharacterRoot(hi[c] - lo[c], probs[c], l, x2_l, budget);
    if (root < min_root) min_root = root;
  }
  if (!(min_root > 0.0)) return 0;
  if (min_root > 9.0e18) min_root = 9.0e18;
  int64_t m = static_cast<int64_t>(std::floor(min_root));
  if (m <= 0) return 0;
  for (size_t c = 0; c < probs.size() && m > 0;) {
    if (CoverQuadraticAt(hi[c] - lo[c], probs[c], l, x2_l, budget, m) >
        0.0L) {
      --m;
      c = 0;
      continue;
    }
    ++c;
  }
  return m;
}

/// One MaxSafeExtension call as an MSS scan makes it: the substring
/// [start, end), its X² and the running best as the budget.
struct SkipCall {
  int64_t start;
  int64_t end;
  double x2;
  double budget;
};

/// Replays core::FindMss's row loop over `counts` and records every call
/// it makes to the skip solver, so the solver is timed on the counts,
/// lengths and budgets of a real scan.
void RecordMssSkipCalls(const seq::PrefixCounts& counts,
                        const core::ChiSquareContext& ctx,
                        std::vector<SkipCall>& calls) {
  core::SkipSolver solver(ctx);
  core::X2Kernel kernel(ctx);
  const int64_t n = counts.sequence_size();
  double best = 0.0;
  for (int64_t i = n - 1; i >= 0; --i) {
    const int64_t* lo = counts.BlockAt(i);
    for (int64_t end = i + 1; end <= n;) {
      const int64_t* hi = counts.BlockAt(end);
      double x2 = kernel.EvaluateBlocks(lo, hi, end - i);
      best = std::max(best, x2);
      calls.push_back(SkipCall{i, end, x2, best});
      end += solver.MaxSafeExtension(lo, hi, end - i, x2, best) + 1;
    }
  }
}

/// Bit-identity of the two layouts: every count vector and every X² value
/// must match exactly — FindMss & friends consume counts only through
/// FillCounts + Evaluate, so fill identity implies scan identity.
bool RunLayoutGate() {
  int64_t mismatches = 0;
  for (int k : {2, 4, 20}) {
    seq::Sequence s = MakeString(k, 4096);
    seq::PrefixCounts flat(s);
    RowMajorPrefixCounts reference(s);
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
    std::vector<int64_t> a(k), b(k);
    for (const auto& [start, end] : MakeRanges(s.size(), 20000)) {
      flat.FillCounts(start, end, a);
      reference.FillCounts(start, end, b);
      if (a != b) ++mismatches;
      if (ctx.Evaluate(a, end - start) != ctx.Evaluate(b, end - start)) {
        ++mismatches;
      }
    }
    // The scan itself, both built from the same sequence, for good
    // measure (exercises the flat build path end to end).
    core::MssResult scan = core::FindMss(flat, ctx);
    core::MssResult again = core::FindMss(seq::PrefixCounts(s), ctx);
    if (scan.best.chi_square != again.best.chi_square) ++mismatches;
  }
  std::printf("layout gate (flat vs row-major): %s\n",
              mismatches == 0 ? "bit-identical" : "MISMATCH — BUG");
  return mismatches == 0;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "core microbenchmarks — flat PrefixCounts layout gate + hot kernels",
      "counts[pos*k + c] vs the former k row-major vectors; timings land "
      "in BENCH_core.json");
  bench::JsonBench json("core");

  const bool gate_ok = RunLayoutGate();
  json.AddGate("layout_bit_identical", gate_ok);
  if (!gate_ok) {
    json.Write();
    return 1;
  }

  io::TableWriter table({"bench", "time", "speedup"});
  auto record = [&](const std::string& name, double ms) {
    table.AddRow({name, bench::FormatMs(ms), "-"});
    json.AddResult(name, ms);
  };

  // ---------------------------------------------------------- fill scan
  // The FillCounts-dominated microbench: a large-alphabet count structure
  // far bigger than L2, hit with random ranges. The old layout pays k
  // strided misses per query; the flat layout two contiguous k-wide
  // loads. Target >= 1.5x.
  {
    const int k = 16;
    const int64_t n = bench::FastMode() ? (1 << 16) : (1 << 19);
    const size_t queries = bench::FastMode() ? 200000 : 1000000;
    seq::Sequence s = MakeString(k, n);
    seq::PrefixCounts flat(s);
    RowMajorPrefixCounts reference(s);
    auto ranges = MakeRanges(n, queries);
    std::vector<int64_t> scratch(k);
    int64_t sink = 0;
    auto sweep = [&](auto& counts) {
      for (const auto& [start, end] : ranges) {
        counts.FillCounts(start, end, scratch);
        sink += scratch[0] + scratch[k - 1];
      }
    };
    double row_ms = bench::TimeMs([&] { sweep(reference); });
    double flat_ms = bench::TimeMs([&] { sweep(flat); });
    double speedup = row_ms / flat_ms;
    std::printf("fill scan (k=%d, n=%lld, %zu queries): row-major %s, "
                "flat %s, %.2fx (sink %lld)\n",
                k, static_cast<long long>(n), queries,
                bench::FormatMs(row_ms).c_str(),
                bench::FormatMs(flat_ms).c_str(), speedup,
                static_cast<long long>(sink));
    table.AddRow({"fill_scan_row_major_k16", bench::FormatMs(row_ms), "-"});
    table.AddRow({"fill_scan_flat_k16", bench::FormatMs(flat_ms),
                  StrFormat("%.2fx", speedup)});
    json.AddResult("fill_scan_row_major_k16", row_ms);
    json.AddResult("fill_scan_flat_k16", flat_ms, speedup);
    json.AddGate("fill_scan_speedup_target_1_5x", speedup >= 1.5);
  }

  // ------------------------------------------------------- build + scans
  {
    const int64_t n = bench::FastMode() ? (1 << 15) : (1 << 17);
    seq::Sequence s4 = MakeString(4, n);
    double build_ms = bench::TimeMs([&] {
      for (int rep = 0; rep < 8; ++rep) {
        seq::PrefixCounts counts(s4);
        if (counts.sequence_size() != n) std::abort();
      }
    });
    record("prefix_build_k4_x8", build_ms);

    seq::Sequence s2 = MakeString(2, n);
    core::ChiSquareContext ctx2(seq::MultinomialModel::Uniform(2));
    seq::PrefixCounts counts2(s2);
    double mss_ms =
        bench::TimeMs([&] { core::FindMss(counts2, ctx2); });
    record("find_mss_k2", mss_ms);
    double topt_ms =
        bench::TimeMs([&] { core::FindTopT(counts2, ctx2, 100); });
    record("find_top_t_100_k2", topt_ms);
    double parallel_ms = bench::TimeMs(
        [&] { core::FindMssParallel(counts2, ctx2, /*num_threads=*/0); });
    record("find_mss_parallel_hw", parallel_ms);
  }

  // ------------------------------------------------------- tight kernels
  {
    const int k = 20;
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(k));
    std::vector<int64_t> counts(k, 100);
    const int reps = bench::FastMode() ? 2000000 : 20000000;
    double eval_ms = bench::TimeMs([&] {
      double acc = 0.0;
      for (int i = 0; i < reps; ++i) acc += ctx.Evaluate(counts, 100 * k);
      if (acc < 0.0) std::abort();
    });
    record(StrCat("chi_square_evaluate_k20_x", reps), eval_ms);

    core::SkipSolver solver(ctx);
    std::vector<int64_t> skip_counts(k, 50);
    double x2 = ctx.Evaluate(skip_counts, 50 * k);
    const int skip_reps = bench::FastMode() ? 200000 : 2000000;
    double skip_ms = bench::TimeMs([&] {
      int64_t acc = 0;
      for (int i = 0; i < skip_reps; ++i) {
        acc += solver.MaxSafeExtension(skip_counts, 50 * k, x2, 25.0);
      }
      if (acc < 0) std::abort();
    });
    record(StrCat("skip_solver_k20_x", skip_reps), skip_ms);
  }

  // -------------------------------------------------------- skip solver
  // MaxSafeExtension on the calls of real MSS scans over 1024-symbol k=4
  // null records (the size of perfbench wire_mixed records), against the
  // all-characters reference. Under the uniform null the four characters
  // form one probability class (one root, one check); Geometric(4) has
  // four singleton classes and does the reference's per-character work.
  // As in a scan, each call waits for the previous one: its budget carries
  // a zero that the compiler cannot see through (the previous skip >> 63).
  bool skips_identical = true;
  double uniform_speedup = 0.0;
  for (bool uniform : {true, false}) {
    const int k = 4;
    seq::MultinomialModel model = uniform
                                      ? seq::MultinomialModel::Uniform(k)
                                      : seq::MultinomialModel::Geometric(k);
    core::ChiSquareContext ctx(model);
    core::SkipSolver solver(ctx);
    const int records = bench::FastMode() ? 2 : 8;
    std::vector<seq::PrefixCounts> prefix;
    std::vector<std::vector<SkipCall>> calls(records);
    size_t total_calls = 0;
    for (int r = 0; r < records; ++r) {
      seq::Rng rng(7100 + 10 * r + (uniform ? 0 : 1));
      prefix.emplace_back(seq::GenerateMultinomial(model, 1024, rng));
      RecordMssSkipCalls(prefix.back(), ctx, calls[r]);
      total_calls += calls[r].size();
    }
    auto sweep = [&](bool reference) {
      int64_t sum = 0;
      int64_t skip = 0;
      for (int r = 0; r < records; ++r) {
        const seq::PrefixCounts& counts = prefix[r];
        for (const SkipCall& call : calls[r]) {
          const int64_t* lo = counts.BlockAt(call.start);
          const int64_t* hi = counts.BlockAt(call.end);
          int64_t l = call.end - call.start;
          double budget = call.budget + static_cast<double>(skip >> 63);
          if (reference) {
            skip = AllCharactersMaxSafeExtension(ctx.probs(), lo, hi, l,
                                                 call.x2, budget);
          } else {
            skip = solver.MaxSafeExtension(lo, hi, l, call.x2, budget);
          }
          sum += skip;
        }
      }
      return sum;
    };
    for (int r = 0; r < records; ++r) {
      const seq::PrefixCounts& counts = prefix[r];
      for (const SkipCall& call : calls[r]) {
        const int64_t* lo = counts.BlockAt(call.start);
        const int64_t* hi = counts.BlockAt(call.end);
        int64_t l = call.end - call.start;
        if (solver.MaxSafeExtension(lo, hi, l, call.x2, call.budget) !=
            AllCharactersMaxSafeExtension(ctx.probs(), lo, hi, l, call.x2,
                                          call.budget)) {
          skips_identical = false;
        }
      }
    }
    // Best of 3, the two solvers alternating so that a slow stretch of
    // the host does not fall on one side only.
    const int reps = bench::FastMode() ? 2 : 8;
    int64_t sink = 0;
    double reference_ms = std::numeric_limits<double>::infinity();
    double class_ms = std::numeric_limits<double>::infinity();
    for (int run = 0; run < 3; ++run) {
      reference_ms = std::min(reference_ms, bench::TimeMs([&] {
        for (int rep = 0; rep < reps; ++rep) sink += sweep(true);
      }));
      class_ms = std::min(class_ms, bench::TimeMs([&] {
        for (int rep = 0; rep < reps; ++rep) sink += sweep(false);
      }));
    }
    double speedup = reference_ms / class_ms;
    double ns_per_call =
        class_ms * 1e6 / static_cast<double>(total_calls * reps);
    std::string shape = uniform ? "uniform_k4" : "geometric_k4";
    std::printf("skip solver (%s, %zu MSS calls x%d): all-characters %.1f "
                "ns/call, probability classes %.1f ns/call, %.2fx "
                "(sink %lld)\n",
                shape.c_str(), total_calls, reps, ns_per_call * speedup,
                ns_per_call, speedup, static_cast<long long>(sink));
    table.AddRow({StrCat("skip_solver_reference_", shape),
                  bench::FormatMs(reference_ms), "-"});
    table.AddRow({StrCat("skip_solver_", shape), bench::FormatMs(class_ms),
                  StrFormat("%.2fx", speedup)});
    json.AddResult(StrCat("skip_solver_reference_", shape), reference_ms);
    json.AddResult(StrCat("skip_solver_", shape), class_ms, speedup);
    json.AddScalar(StrCat("skip_solver_", shape, "_per_call"), "ns",
                   ns_per_call);
    if (uniform) uniform_speedup = speedup;
  }
  std::printf("skip solver vs all-characters reference: %s\n",
              skips_identical ? "identical skips" : "MISMATCH — BUG");
  json.AddGate("skip_solver_identical", skips_identical);
  json.AddGate("skip_solver_uniform_k4_speedup_1_3x",
               skips_identical && uniform_speedup >= 1.3);

  std::printf("\n%s", table.Render().c_str());
  if (!json.Write()) return 1;
  return json.AllGatesPass() ? 0 : 1;
}
