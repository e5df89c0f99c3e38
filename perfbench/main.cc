// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload <wire_mixed|substrings_random|substrings_adversarial>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--scale <f>] [--trace-out <file>]
//
// Prints the run's notes ("# ..."), every metric by name and unit
// ("metric <name> <value> <unit>"), and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the metrics the
// benchmark gates: the end-to-end metrics with --trace 0, the per-layer
// metrics of the traced replay with --trace 1. Exits 0 whenever the run
// completed (a failed correctness check shows as "correct": false), and
// non-zero without a result line when the run itself could not be made.
// perfbench/run.py builds this binary and is the benchmark's entry point.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.h"

namespace perfbench {

void Report::Fail(const std::string& what) {
  ++failed;
  correct = false;
  if (failed <= 5) notes.push_back("check failed: " + what);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

std::string WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  return out ? "" : "cannot write " + path;
}

}  // namespace perfbench

namespace {

std::string FormatDouble(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--scale <f>] "
               "[--trace-out <file>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Pin glibc's mmap threshold at its default (128 KiB). Left dynamic, it
  // rises after the first large free, later multi-megabyte index arrays
  // come from the brk heap instead, and peak RSS lands on one of two
  // levels depending on allocation order. Pinned, every large array is
  // mapped and unmapped, so peak_rss_mb tracks the program's live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = std::atof(value.c_str());
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (args.workdir.empty()) return Usage("--workdir is required");
  if (!(args.seconds > 0.0) || !(args.scale > 0.0)) {
    return Usage("--seconds and --scale must be positive");
  }

  Report (*run)(const Args&) = nullptr;
  if (args.workload == "wire_mixed") {
    run = RunWireMixed;
  } else if (args.workload == "substrings_random") {
    run = RunSubstringsRandom;
  } else if (args.workload == "substrings_adversarial") {
    run = RunSubstringsAdversarial;
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) return Usage(("cannot create workdir " + args.workdir).c_str());

  Report report = run(args);
  std::filesystem::remove_all(args.workdir, ec);

  std::printf("# workload=%s seed=%llu seconds=%s trace=%d scale=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              FormatDouble(args.seconds).c_str(), args.trace ? 1 : 0,
              FormatDouble(args.scale).c_str());
  std::printf("# host hardware_concurrency=%u\n",
              std::thread::hardware_concurrency());
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const auto* list : {&report.gated, &report.info}) {
    for (const Metric& m : *list) {
      std::printf("metric %s %s %s\n", m.name.c_str(),
                  FormatDouble(m.value).c_str(), m.unit.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.gated.size(); ++i) {
    const Metric& m = report.gated[i];
    if (i > 0) json += ", ";
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    json += "\"" + m.name + "\": {\"value\": " + FormatDouble(value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
