// All-substrings suffix scan bench (ROADMAP item 2) — three questions,
// mirroring how x2_kernel gated the fused-kernel change:
//
//   1. Identity gate (fatal): SuffixScan::Scan / ScanMarkov must report
//      class sets BIT-identical to the brute-force references
//      (NaiveAllSubstringsScan*) on the gating records — every reported
//      substring's representative, count, X², and p-value, across
//      alphabets, uniform/skewed/Markov nulls, and both the maximal-only
//      and bounded enumerate-everything contracts.
//   2. Memory gate (fatal): mining a >= 100 MB record through the mapped
//      suffix index must peak below HALF the resident set of the
//      interval-scan per-position layout (a PrefixCounts for the same
//      record: 8·k bytes per position). Each side runs in a forked child
//      so getrusage(RUSAGE_SELF).ru_maxrss is that path's own high water,
//      not an accumulation over the whole bench.
//   3. Throughput: build + scan Msymbols/s on the big record. Timings and
//      the memory_reduction metric land in BENCH_suffix_scan.json.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "common/harness.h"
#include "core/suffix_scan.h"
#include "io/mmap_corpus.h"
#include "io/table_writer.h"
#include "seq/prefix_counts.h"
#include "sigsub.h"

using namespace sigsub;

namespace {

constexpr char kCorpusPath[] = "BENCH_suffix_scan.corpus.tmp";
constexpr char kAlphabet[] = "0123";
constexpr int kBigK = 4;

seq::Sequence MakeString(int k, int64_t n) {
  seq::Rng rng(20120731 + k + n);
  return seq::GenerateNull(k, n, rng);
}

seq::MultinomialModel MakeSkewedModel(int k) {
  std::vector<double> probs(static_cast<size_t>(k));
  double total = 0.0;
  for (int c = 0; c < k; ++c) {
    probs[static_cast<size_t>(c)] = 1.0 + 0.37 * c;
    total += probs[static_cast<size_t>(c)];
  }
  for (double& p : probs) p /= total;
  auto model = seq::MultinomialModel::Make(std::move(probs));
  if (!model.ok()) std::abort();
  return std::move(model).value();
}

/// Strict equality between the suffix path and a reference: both sides
/// promise the same deterministic total order, the same smallest-index
/// representative, and scoring through the same kernel — so every field
/// must match bit for bit, not approximately.
bool SameResults(const core::SuffixScanResult& a,
                 const core::SuffixScanResult& b) {
  if (a.match_count != b.match_count) return false;
  if (a.classes.size() != b.classes.size()) return false;
  for (size_t i = 0; i < a.classes.size(); ++i) {
    const core::SubstringClass& x = a.classes[i];
    const core::SubstringClass& y = b.classes[i];
    if (x.substring.start != y.substring.start ||
        x.substring.end != y.substring.end ||
        x.substring.chi_square != y.substring.chi_square ||
        x.count != y.count || x.p_value != y.p_value) {
      return false;
    }
  }
  return true;
}

/// Gate 1: suffix path == brute force on every contract that matters.
bool RunIdentityGate() {
  // The brute force holds every distinct substring as a map key — O(n²)
  // string bytes — so the gating record stays modest by design.
  const int64_t n = bench::FastMode() ? 512 : 1024;
  std::vector<core::SuffixScanOptions> contracts;
  {
    core::SuffixScanOptions maximal;  // The default reporting contract.
    maximal.top_n = 0;
    maximal.min_count = 2;
    contracts.push_back(maximal);
    core::SuffixScanOptions bounded;  // Enumerate-everything, capped.
    bounded.top_n = 0;
    bounded.maximal_only = false;
    bounded.max_length = 6;
    contracts.push_back(bounded);
    core::SuffixScanOptions cut;  // Top-N tie-break determinism.
    cut.top_n = 25;
    cut.min_length = 2;
    cut.min_count = 3;
    contracts.push_back(cut);
  }

  int64_t mismatches = 0;
  for (int k : {2, 4}) {
    seq::Sequence s = MakeString(k, n);
    auto scan = core::SuffixScan::Build(s.symbols(), k);
    if (!scan.ok()) std::abort();
    for (bool skewed : {false, true}) {
      core::ChiSquareContext ctx(skewed ? MakeSkewedModel(k)
                                        : seq::MultinomialModel::Uniform(k));
      for (const core::SuffixScanOptions& options : contracts) {
        auto fast = scan.value().Scan(ctx, options);
        auto slow = core::NaiveAllSubstringsScan(s, ctx, options);
        if (!fast.ok() || !slow.ok() ||
            !SameResults(fast.value(), slow.value())) {
          ++mismatches;
        }
      }
    }
    auto markov = core::MarkovChiSquare::Make(seq::MarkovModel::PaperFamily(k));
    if (!markov.ok()) std::abort();
    for (const core::SuffixScanOptions& options : contracts) {
      auto fast = scan.value().ScanMarkov(markov.value(), options);
      auto slow = core::NaiveAllSubstringsScanMarkov(s, markov.value(), options);
      if (!fast.ok() || !slow.ok() ||
          !SameResults(fast.value(), slow.value())) {
        ++mismatches;
      }
    }
  }
  std::printf("identity gate (suffix vs brute force, %d contracts): %s\n",
              static_cast<int>(3 * (2 + 1) * 2),
              mismatches == 0 ? "bit-identical" : "MISMATCH — BUG");
  return mismatches == 0;
}

/// Writes an n-symbol uniform random record as text ('0'..'3') so both
/// memory children and the throughput pass read the identical bytes from
/// the page cache. Chunked so the writer itself stays small.
bool WriteBigRecord(int64_t n) {
  std::FILE* file = std::fopen(kCorpusPath, "wb");
  if (file == nullptr) return false;
  seq::Rng rng(987654321);
  std::vector<char> chunk(1 << 20);
  int64_t written = 0;
  while (written < n) {
    int64_t take = std::min<int64_t>(static_cast<int64_t>(chunk.size()),
                                     n - written);
    for (int64_t i = 0; i < take; ++i) {
      chunk[static_cast<size_t>(i)] =
          kAlphabet[rng.NextBounded(static_cast<uint64_t>(kBigK))];
    }
    if (std::fwrite(chunk.data(), 1, static_cast<size_t>(take), file) !=
        static_cast<size_t>(take)) {
      std::fclose(file);
      return false;
    }
    written += take;
  }
  std::fclose(file);
  return true;
}

/// Runs `work` in a forked child and returns the child's own peak RSS in
/// bytes (-1 on any failure). The sink returned by `work` rides back over
/// the pipe so the measured allocations cannot be optimized away.
int64_t ChildPeakRssBytes(const std::function<int64_t()>& work) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    int64_t sink = work();
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    int64_t payload[2] = {usage.ru_maxrss * 1024, sink};  // KB -> bytes.
    ssize_t unused = write(fds[1], payload, sizeof(payload));
    (void)unused;
    _exit(0);
  }
  close(fds[1]);
  int64_t payload[2] = {-1, 0};
  ssize_t got = read(fds[0], payload, sizeof(payload));
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || got != sizeof(payload) ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1;
  }
  return payload[0];
}

core::SuffixScanOptions BigRecordOptions() {
  core::SuffixScanOptions options;
  options.top_n = 10;
  options.min_length = 2;
  options.min_count = 2;
  return options;
}

/// The suffix path end to end, the way the CLI --mmap path runs it: map
/// the file, build SA+LCP over the raw bytes, scan. Returns a sink.
int64_t SuffixChild() {
  auto mapped = io::MappedFile::Open(kCorpusPath);
  if (!mapped.ok()) return -1;
  mapped.value().AdviseSequential();
  auto decode = seq::Alphabet::FromCharacters(kAlphabet)->decode_table();
  auto scan =
      core::SuffixScan::BuildMapped(mapped.value().bytes(), decode, kBigK);
  if (!scan.ok()) return -1;
  core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(kBigK));
  auto result = scan.value().Scan(ctx, BigRecordOptions());
  if (!result.ok()) return -1;
  return result.value().match_count +
         static_cast<int64_t>(result.value().classes.size());
}

/// The interval-scan per-position layout for the same record: a full
/// PrefixCounts ((n+1)·k·8 bytes), built by the chunk-streamed loader so
/// no decoded copy inflates the number — this is purely what the layout
/// itself costs, before any scanning.
int64_t PositionLayoutChild() {
  auto mapped = io::MappedFile::Open(kCorpusPath);
  if (!mapped.ok()) return -1;
  mapped.value().AdviseSequential();
  auto decode = seq::Alphabet::FromCharacters(kAlphabet)->decode_table();
  auto counts =
      seq::PrefixCounts::FromBytes(mapped.value().bytes(), decode, kBigK);
  if (!counts.ok()) return -1;
  int64_t n = counts.value().sequence_size();
  int64_t sink = 0;
  for (int c = 0; c < kBigK; ++c) sink += counts.value().PrefixCount(c, n);
  return sink;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "all-substrings suffix scan — identity gates, memory footprint, "
      "throughput",
      "SuffixScan (suffix_scan.h) vs NaiveAllSubstringsScan and vs the "
      "per-position PrefixCounts layout; results land in "
      "BENCH_suffix_scan.json");
  bench::JsonBench json("suffix_scan");
  io::TableWriter table({"bench", "value", "note"});

  // The big record: >= 100 MB at full scale (the paper's corpora fit in
  // RAM only because they never materialize the per-position layout at
  // this size — which is exactly the claim the gate checks). The memory
  // children fork FIRST, before the identity gate's brute-force table can
  // leave freed-but-unreturned heap pages in the parent — forked children
  // inherit the parent's resident set, and a bloated inheritance would
  // drown both measurements.
  const int64_t big_n = bench::FastMode() ? (int64_t{1} << 22)
                                          : int64_t{100} * 1000 * 1000;
  if (!WriteBigRecord(big_n)) {
    std::printf("cannot write %s\n", kCorpusPath);
    return 1;
  }
  std::printf("big record: %lld symbols, k=%d (%s)\n",
              static_cast<long long>(big_n), kBigK, kCorpusPath);

  // A forked child starts with the parent's resident pages already counted
  // in its ru_maxrss (COW shares are resident), so a no-op child measures
  // that inherited baseline; subtracting it leaves each path's own
  // allocations. Matters mostly for SIGSUB_BENCH_FAST, where the binary's
  // ~tens of MB would otherwise swamp a small record's footprint.
  const int64_t base_rss = ChildPeakRssBytes([]() -> int64_t { return 0; });
  const int64_t suffix_gross = ChildPeakRssBytes(SuffixChild);
  const int64_t layout_gross = ChildPeakRssBytes(PositionLayoutChild);
  const int64_t layout_bytes = (big_n + 1) * kBigK * 8;
  bool memory_ok = false;
  if (base_rss <= 0 || suffix_gross <= base_rss ||
      layout_gross <= base_rss) {
    std::printf("memory gate: child measurement FAILED\n");
  } else {
    const int64_t suffix_rss = suffix_gross - base_rss;
    const int64_t layout_rss = layout_gross - base_rss;
    double reduction = static_cast<double>(layout_rss) /
                       static_cast<double>(suffix_rss);
    memory_ok = suffix_rss * 2 < layout_rss;
    std::printf(
        "peak RSS (net of %.1f MB process baseline): suffix path %.1f MB, "
        "per-position layout %.1f MB (analytic %.1f MB) — %.2fx reduction, "
        "gate (< 0.5x): %s\n",
        base_rss / 1e6, suffix_rss / 1e6, layout_rss / 1e6,
        layout_bytes / 1e6, reduction, memory_ok ? "pass" : "FAIL");
    table.AddRow({"suffix_peak_rss", StrFormat("%.1f MB", suffix_rss / 1e6),
                  "SA+LCP+mapped record"});
    table.AddRow({"layout_peak_rss", StrFormat("%.1f MB", layout_rss / 1e6),
                  "PrefixCounts (n+1)*k*8"});
    json.AddScalar("suffix_peak_rss", "bytes",
                   static_cast<double>(suffix_rss));
    json.AddScalar("layout_peak_rss", "bytes",
                   static_cast<double>(layout_rss));
    json.AddScalar("memory_footprint", "memory_reduction", reduction);
  }
  json.AddGate("peak_rss_below_half_position_layout", memory_ok);

  // Throughput: the mapped build+scan, end to end, in-process.
  {
    auto mapped = io::MappedFile::Open(kCorpusPath);
    if (!mapped.ok()) {
      std::printf("cannot map %s\n", kCorpusPath);
      return 1;
    }
    mapped.value().AdviseSequential();
    auto decode = seq::Alphabet::FromCharacters(kAlphabet)->decode_table();
    core::ChiSquareContext ctx(seq::MultinomialModel::Uniform(kBigK));
    int64_t classes = 0;
    double build_ms = 0.0;
    double total_ms = bench::TimeMs([&] {
      Result<core::SuffixScan> scan{Status::Internal("unset")};
      build_ms = bench::TimeMs([&] {
        scan = core::SuffixScan::BuildMapped(mapped.value().bytes(), decode,
                                             kBigK);
      });
      if (!scan.ok()) std::abort();
      auto result = scan.value().Scan(ctx, BigRecordOptions());
      if (!result.ok()) std::abort();
      classes = result.value().stats.classes_enumerated;
    });
    double msym_per_sec = static_cast<double>(big_n) / (total_ms * 1000.0);
    std::printf(
        "throughput: build %s + scan -> total %s, %.2f Msym/s "
        "(%lld classes)\n",
        bench::FormatMs(build_ms).c_str(), bench::FormatMs(total_ms).c_str(),
        msym_per_sec, static_cast<long long>(classes));
    table.AddRow({"build_index", bench::FormatMs(build_ms), "SA-IS + Kasai"});
    table.AddRow({"build_plus_scan", bench::FormatMs(total_ms),
                  StrFormat("%.2f Msym/s", msym_per_sec)});
    json.AddResult("suffix_build_index", build_ms);
    json.AddResult("suffix_build_plus_scan", total_ms);
    json.AddScalar("throughput", "msym_per_sec", msym_per_sec);
  }
  std::remove(kCorpusPath);

  const bool identity_ok = RunIdentityGate();
  json.AddGate("suffix_vs_naive_bit_identical", identity_ok);

  std::printf("\n%s", table.Render().c_str());
  if (!json.Write()) return 1;
  if (!json.AllGatesPass()) {
    std::printf("GATE FAILED (bit-identity vs brute force, or suffix peak "
                "RSS not < 0.5x the per-position layout)\n");
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
