#ifndef SIGSUB_PERFBENCH_INPUTS_H_
#define SIGSUB_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's own generator (splitmix64), independent of the
/// library's seq::Rng so that a change to the program can never change
/// the inputs it is measured on. Every input below is a pure function of
/// the workload seed and the scale.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Every corpus is k = 4 over the digits '0'-'3' (which are also the
/// STREAM.APPEND symbol spelling of symbols 0-3).
inline constexpr int kAlphabet = 4;

/// Appends `n` symbols drawn from `weights` (size 4, summing to 1).
void AppendSymbols(Rng& rng, int64_t n, const double* weights,
                   std::string* out);
/// Appends `n` uniform symbols.
void AppendUniform(Rng& rng, int64_t n, std::string* out);

// ----------------------------------------------------------- wire_mixed

struct WireInputs {
  std::vector<std::string> records;  // One corpus line each.
  int64_t num_records = 0;
  int64_t num_symbols = 0;
  /// The request stream, in send order. QUERY lines are complete request
  /// lines; a STREAM.APPEND entry holds only its symbol payload, because
  /// the stream it targets is the one owned by the sending connection.
  struct Request {
    bool append = false;
    std::string text;
  };
  std::vector<Request> requests;
};

/// About 5 MB of 256-1024-symbol records (half with a planted biased
/// segment) and a request stream over them: records Zipf-skewed (s = 0.8),
/// kinds mss/topt/threshold/minlen/lenbound/substrings with parameters
/// from small menus so hot specs repeat exactly, and one request in 8 a
/// 256-symbol STREAM.APPEND.
WireInputs MakeWireInputs(uint64_t seed, double scale, size_t num_requests);

// ---------------------------------------------------- substrings_random

/// One 1 MiB uniform record with planted biased segments and a repeated
/// motif, as the bytes of a one-line file (trailing newline included).
std::string MakeRandomRecordFile(uint64_t seed, double scale);

/// The q-th query of the substrings_random sequence (compact canonical
/// spec text for record 0). Distinct for every q; every fourth query
/// scores under a first-order Markov null.
std::string RandomWorkloadQuery(int64_t q);

// ----------------------------------------------- substrings_adversarial

struct AdversarialInputs {
  /// Corpus lines: the adversarial records first (indices
  /// 0..shapes.size()-1), then the random filler records.
  std::vector<std::string> lines;
  std::vector<std::string> shapes;  // Name of each adversarial record.
};

/// Periodic (ab)*, a period-5 k=4 repeat, a Fibonacci word, and
/// several-thousand-symbol single-symbol runs between random stretches,
/// plus ~4 MB of random filler records no query touches.
AdversarialInputs MakeAdversarialInputs(uint64_t seed, double scale);

/// The q-th query of the substrings_adversarial sequence: record
/// q % num_shapes, parameters distinct for every q.
std::string AdversarialWorkloadQuery(int64_t q, int num_shapes);

}  // namespace perfbench

#endif  // SIGSUB_PERFBENCH_INPUTS_H_
