#include "trace.h"

#include <string>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t Tracer::Begin(std::string_view name, int64_t parent,
                      int64_t request) {
  spans_.push_back(Span{name, Now(), -1, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

Tracer::Totals Tracer::Sum(std::string_view name) const {
  Totals totals;
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++totals.count;
    totals.total_ms += ms;
    totals.self_ms += ms - child_ms[i];
  }
  return totals;
}

std::string Tracer::WriteJsonLines(const std::string& path) const {
  std::string out;
  out.reserve(spans_.size() * 96);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"";
    out += s.name;
    out += "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + "}\n";
  }
  return WriteFile(path, out);
}

}  // namespace perfbench
