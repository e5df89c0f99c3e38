#ifndef SIGSUB_PERFBENCH_PERFBENCH_H_
#define SIGSUB_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run (one workload, one mode).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Input-size multiplier; 1 is the benchmark proper. The self-tests run
  /// with a small scale so a full pass of every workload stays short.
  double scale = 1.0;
  /// Work directory for generated inputs and server state; created,
  /// and removed again at the end of the run.
  std::string workdir;
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `gated` metrics go into the final JSON
/// object (the benchmark's end-to-end or per-layer contract); `info`
/// metrics are printed by name and unit before it.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> gated;
  std::vector<Metric> info;
  std::vector<std::string> notes;

  void Gate(std::string name, double value, std::string unit) {
    gated.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one failed correctness check (with a note for the first few).
  void Fail(const std::string& what);
};

Report RunWireMixed(const Args& args);
Report RunSubstringsRandom(const Args& args);
Report RunSubstringsAdversarial(const Args& args);

// ------------------------------------------------------------ helpers

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Runs fn(i) for every i in [0, n) on `threads` threads. Used only by
/// the correctness checks, which run after the measured phase.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);
inline constexpr int kCheckThreads = 3;

/// Writes `data` to `path` (IOError text on failure, empty on success).
std::string WriteFile(const std::string& path, const std::string& data);

}  // namespace perfbench

#endif  // SIGSUB_PERFBENCH_PERFBENCH_H_
