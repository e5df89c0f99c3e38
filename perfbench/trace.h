#ifndef SIGSUB_PERFBENCH_TRACE_H_
#define SIGSUB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into each layer's public functions (the
/// program itself is not instrumented): name, start, end, the span that
/// caused it, and the request it belongs to. They stay in memory and are
/// written out once, when the run ends.
///
/// A replayed direct call (say, the PrefixCounts build the engine did
/// inside one ExecuteQueries call) is recorded as a child of the engine
/// span whose work it re-does, so a layer's self time — its duration
/// minus its children's — is what that layer adds on top of the layers
/// below it.
class Tracer {
 public:
  struct Span {
    std::string_view name;  // Always a string literal.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t request = -1;
  };

  Tracer();

  /// Opens a span and returns its id (its index).
  int64_t Begin(std::string_view name, int64_t parent = -1,
                int64_t request = -1);
  void End(int64_t id);

  /// Times `fn()` as one closed span and returns the span id.
  template <typename Fn>
  int64_t Time(std::string_view name, int64_t parent, int64_t request,
               Fn&& fn) {
    const int64_t id = Begin(name, parent, request);
    fn();
    End(id);
    return id;
  }

  struct Totals {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total_ms minus the children's durations.
  };
  Totals Sum(std::string_view name) const;

  /// Writes every span as one JSON object per line; error text or "".
  std::string WriteJsonLines(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  int64_t Now() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // SIGSUB_PERFBENCH_TRACE_H_
