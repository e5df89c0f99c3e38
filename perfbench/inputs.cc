#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void AppendSymbols(Rng& rng, int64_t n, const double* weights,
                   std::string* out) {
  for (int64_t i = 0; i < n; ++i) {
    const double u = rng.Unit();
    double acc = 0.0;
    int symbol = kAlphabet - 1;
    for (int c = 0; c < kAlphabet; ++c) {
      acc += weights[c];
      if (u < acc) {
        symbol = c;
        break;
      }
    }
    out->push_back(static_cast<char>('0' + symbol));
  }
}

void AppendUniform(Rng& rng, int64_t n, std::string* out) {
  for (int64_t i = 0; i < n; ++i) {
    out->push_back(static_cast<char>('0' + rng.Below(kAlphabet)));
  }
}

namespace {

int64_t Scaled(double base, double scale, int64_t floor) {
  return std::max<int64_t>(floor, std::llround(base * scale));
}

/// A biased segment: one symbol at 0.55, the other three at 0.15.
void AppendBiased(Rng& rng, int64_t n, std::string* out) {
  double weights[kAlphabet] = {0.15, 0.15, 0.15, 0.15};
  weights[rng.Below(kAlphabet)] = 0.55;
  AppendSymbols(rng, n, weights, out);
}

}  // namespace

// ----------------------------------------------------------- wire_mixed

WireInputs MakeWireInputs(uint64_t seed, double scale, size_t num_requests) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  WireInputs inputs;
  const int64_t num_records = Scaled(8192, scale, 16);
  inputs.records.reserve(static_cast<size_t>(num_records));
  for (int64_t r = 0; r < num_records; ++r) {
    const int64_t length = rng.Between(256, 1024);
    std::string text;
    text.reserve(static_cast<size_t>(length));
    if (rng.Below(2) == 0) {
      const int64_t planted = rng.Between(32, 160);
      const int64_t at = rng.Between(0, length - planted);
      AppendUniform(rng, at, &text);
      AppendBiased(rng, planted, &text);
      AppendUniform(rng, length - planted - at, &text);
    } else {
      AppendUniform(rng, length, &text);
    }
    inputs.num_symbols += length;
    inputs.records.push_back(std::move(text));
  }
  inputs.num_records = num_records;

  // Zipf(s = 0.8) over popularity ranks, ranks mapped to records by a
  // seeded permutation so the hot records sit anywhere in the corpus.
  // About a quarter of the queries then repeat a spec still in the
  // server's 4096-entry result cache.
  std::vector<double> cdf(static_cast<size_t>(num_records));
  double total = 0.0;
  for (int64_t i = 0; i < num_records; ++i) {
    total += std::pow(static_cast<double>(i + 1), -0.8);
    cdf[static_cast<size_t>(i)] = total;
  }
  std::vector<int64_t> by_rank(static_cast<size_t>(num_records));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  for (size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.Below(i)]);
  }

  inputs.requests.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    WireInputs::Request request;
    if (rng.Below(8) == 0) {
      request.append = true;
      AppendUniform(rng, 256, &request.text);
      inputs.requests.push_back(std::move(request));
      continue;
    }
    const double u = rng.Unit() * total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const int64_t seq = by_rank[std::min(rank, by_rank.size() - 1)];
    const std::string head = "QUERY ";
    const std::string at = ":seq=" + std::to_string(seq);
    // Kind weights 3:2:2:2:2:1 (mss, topt, threshold, minlen, lenbound,
    // substrings); parameters come from small menus so that hot
    // (record, spec) pairs repeat exactly and hit the result cache.
    const uint64_t kind = rng.Below(12);
    if (kind < 3) {
      request.text = head + "mss" + at + ",model=uniform";
    } else if (kind < 5) {
      static constexpr int kT[] = {3, 5, 10};
      request.text = head + "topt" + at + ",t=" +
                     std::to_string(kT[rng.Below(3)]) + ",model=uniform";
    } else if (kind < 7) {
      static constexpr const char* kAlpha[] = {"0.001", "0.0001"};
      request.text = head + "threshold" + at + ",alpha_p=" +
                     kAlpha[rng.Below(2)] + ",max_matches=64,model=uniform";
    } else if (kind < 9) {
      static constexpr int kMin[] = {16, 32, 64};
      request.text = head + "minlen" + at + ",min_length=" +
                     std::to_string(kMin[rng.Below(3)]) + ",model=uniform";
    } else if (kind < 11) {
      static constexpr int kWindow[][2] = {{8, 64}, {16, 128}};
      const auto& w = kWindow[rng.Below(2)];
      request.text = head + "lenbound" + at + ",min_length=" +
                     std::to_string(w[0]) + ",max_length=" +
                     std::to_string(w[1]) + ",model=uniform";
    } else {
      request.text = head + "substrings" + at + ",top=" +
                     std::to_string(rng.Below(2) == 0 ? 5 : 10) +
                     ",min_length=" + std::to_string(3 + rng.Below(2)) +
                     ",max_length=0,min_count=2,maximal=1,model=uniform";
    }
    inputs.requests.push_back(std::move(request));
  }
  return inputs;
}

// ---------------------------------------------------- substrings_random

std::string MakeRandomRecordFile(uint64_t seed, double scale) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  // 1 MiB: the ~12 B/sym build working set stays near cache size. At
  // 4 MiB the build is DRAM-latency-bound and its run-to-run spread on a
  // shared host roughly doubles.
  const int64_t n = Scaled(1 << 20, scale, 4096);
  std::string motif;
  AppendUniform(rng, 200, &motif);
  std::string text;
  text.reserve(static_cast<size_t>(n) + 1);
  // Eight planted biased segments and sixteen copies of one motif,
  // spread over the record at seeded offsets.
  const int64_t pieces = 24;
  const int64_t stride = n / (pieces + 1);
  for (int64_t p = 0; p < pieces; ++p) {
    const int64_t planted =
        p < 8 ? std::min<int64_t>(stride / 2, rng.Between(2000, 5000))
              : std::min<int64_t>(stride / 2, 200);
    const int64_t gap = stride - planted;
    AppendUniform(rng, rng.Between(gap / 2, gap), &text);
    if (p < 8) {
      AppendBiased(rng, planted, &text);
    } else {
      text.append(motif, 0, static_cast<size_t>(planted));
    }
  }
  AppendUniform(rng, n - static_cast<int64_t>(text.size()), &text);
  text.push_back('\n');
  return text;
}

std::string RandomWorkloadQuery(int64_t q) {
  const std::string alpha = q % 2 == 0 ? "0.001" : "0.000001";
  std::string model = "uniform";
  if (q % 4 == 3) {
    // A near-uniform first-order chain: each row favours one successor.
    model = "markov1(";
    for (int from = 0; from < 4; ++from) {
      for (int to = 0; to < 4; ++to) {
        if (from + to > 0) model += ';';
        model += to == (from + 1) % 4 ? "0.31" : "0.23";
      }
    }
    model += ")";
  }
  return "substrings:seq=0,top=" + std::to_string(10 + q) +
         ",min_length=" + std::to_string(1 + q % 6) +
         ",max_length=0,min_count=" + std::to_string(2 + q % 3) +
         ",maximal=1,alpha_p=" + alpha + ",model=" + model;
}

// ----------------------------------------------- substrings_adversarial

AdversarialInputs MakeAdversarialInputs(uint64_t seed, double scale) {
  Rng rng(seed * 0xd1b54a32d192ed03ULL + 3);
  AdversarialInputs inputs;
  // A seeded relabelling of the four symbols, so shapes differ in
  // spelling (never in structure) from seed to seed.
  char label[kAlphabet] = {'0', '1', '2', '3'};
  for (int i = kAlphabet - 1; i > 0; --i) {
    std::swap(label[i], label[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  auto relabel = [&](std::string s) {
    for (char& c : s) c = label[c - '0'];
    return s;
  };
  auto repeat = [](const std::string& unit, int64_t n) {
    std::string s;
    s.reserve(static_cast<size_t>(n));
    while (static_cast<int64_t>(s.size()) < n) s += unit;
    s.resize(static_cast<size_t>(n));
    return s;
  };

  // Lengths chosen so one query costs about the same on every shape
  // (the sweep is Θ(n²) on each, with different constants).
  const int64_t periodic_n = Scaled(26000, scale, 1024);
  const int64_t period5_n = Scaled(26000, scale, 1024);
  const int64_t fibonacci_n = Scaled(34000, scale, 1024);
  const int64_t runs_n = Scaled(72000, scale, 1024);

  inputs.shapes.push_back("periodic_ab");
  inputs.lines.push_back(relabel(repeat("01", periodic_n)));

  inputs.shapes.push_back("period5");
  inputs.lines.push_back(relabel(repeat("01203", period5_n)));

  inputs.shapes.push_back("fibonacci");
  {
    std::string a = "0", b = "01";
    while (static_cast<int64_t>(b.size()) < fibonacci_n) {
      std::string next = b + a;
      a = std::move(b);
      b = std::move(next);
    }
    b.resize(static_cast<size_t>(fibonacci_n));
    inputs.lines.push_back(relabel(std::move(b)));
  }

  inputs.shapes.push_back("runs");
  {
    std::string s;
    s.reserve(static_cast<size_t>(runs_n));
    while (static_cast<int64_t>(s.size()) < runs_n) {
      s.append(static_cast<size_t>(rng.Between(8000, 14000)),
               static_cast<char>('0' + rng.Below(kAlphabet)));
      AppendUniform(rng, rng.Between(200, 800), &s);
    }
    s.resize(static_cast<size_t>(runs_n));
    inputs.lines.push_back(std::move(s));
  }

  const int64_t filler_records = Scaled(1024, scale, 8);
  for (int64_t r = 0; r < filler_records; ++r) {
    std::string s;
    AppendUniform(rng, 4096, &s);
    inputs.lines.push_back(std::move(s));
  }
  return inputs;
}

std::string AdversarialWorkloadQuery(int64_t q, int num_shapes) {
  const int64_t round = q / num_shapes;
  return "substrings:seq=" + std::to_string(q % num_shapes) +
         ",top=" + std::to_string(10 + round) +
         ",min_length=" + std::to_string(1 + round % 4) +
         ",max_length=0,min_count=2,maximal=1,model=uniform";
}

}  // namespace perfbench
