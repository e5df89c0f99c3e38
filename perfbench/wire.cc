#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

#include "common/mutex.h"

namespace perfbench {

std::optional<Conn> Conn::Open(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return std::nullopt;
  Conn conn(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return std::nullopt;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

Conn::Conn(Conn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), rbuf_(std::move(other.rbuf_)) {}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    rbuf_ = std::move(other.rbuf_);
  }
  return *this;
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Send(const std::string& line) {
  std::string data = line;
  data.push_back('\n');
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::Fill() {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool Conn::PopLine(std::string* line) {
  const size_t nl = rbuf_.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(rbuf_, 0, nl);
  rbuf_.erase(0, nl + 1);
  return true;
}

bool Conn::ReadAvailable(std::vector<std::string>* lines) {
  const bool open = Fill();
  std::string line;
  while (PopLine(&line)) lines->push_back(std::move(line));
  return open;
}

std::optional<std::string> Conn::ReadLine(int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string line;
  while (!PopLine(&line)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) < 0 && errno != EINTR) {
      return std::nullopt;
    }
    if (!Fill()) {
      if (PopLine(&line)) return line;
      return std::nullopt;
    }
  }
  return line;
}

PhaseResult ClosedLoop(Conn& conn, size_t count,
                       const std::function<std::string(size_t)>& make,
                       size_t window, double seconds, Tracer* tracer) {
  struct InFlight {
    size_t index;
    Clock::time_point sent;
    int64_t span;
  };
  PhaseResult result;
  std::deque<InFlight> inflight;
  std::vector<std::string> lines;
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  while (true) {
    while (inflight.size() < window && next < count &&
           SecondsSince(start) < seconds) {
      const std::string line = make(next);
      const int64_t span =
          tracer != nullptr
              ? tracer->Begin("wire.request", -1, static_cast<int64_t>(next))
              : -1;
      const Clock::time_point sent = Clock::now();
      if (!conn.Send(line)) {
        result.connection_failed = true;
        break;
      }
      inflight.push_back({next, sent, span});
      result.replies.emplace_back();
      result.latency_ms.push_back(0.0);
      ++next;
    }
    if (inflight.empty() || result.connection_failed) break;
    pollfd pfd{conn.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 30000) <= 0) {
      result.connection_failed = true;
      break;
    }
    lines.clear();
    const bool open = conn.ReadAvailable(&lines);
    last = Clock::now();
    for (std::string& line : lines) {
      if (line.rfind("ALARM ", 0) == 0 || inflight.empty()) continue;
      const InFlight done = inflight.front();
      inflight.pop_front();
      if (tracer != nullptr) tracer->End(done.span);
      result.Record(done.index, line);
      result.latency_ms[done.index] = MsBetween(done.sent, last);
      result.done_s.push_back(
          std::chrono::duration<double>(last - start).count());
    }
    if (!open) {
      result.connection_failed = true;
      break;
    }
  }
  result.elapsed_s = std::chrono::duration<double>(last - start).count();
  return result;
}

PhaseResult OpenLoop(Conn& a, Conn& b, size_t count,
                     const std::function<std::string(size_t, int)>& make,
                     double rate_per_s) {
  struct Pending {
    size_t index;
    Clock::time_point due;
  };
  Conn* conns[2] = {&a, &b};
  sigsub::Mutex mu;
  std::deque<Pending> fifo[2];  // Guarded by mu.
  std::atomic<size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> failed{false};

  PhaseResult result;
  result.replies.resize(count);
  result.latency_ms.assign(count, 0.0);
  result.late_ms.assign(count, 0.0);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(10);
  Clock::time_point last = start;

  std::thread reader([&] {
    std::vector<std::string> lines;
    size_t received = 0;
    Clock::time_point done_at{};
    while (!failed.load()) {
      if (sender_done.load()) {
        if (received == sent.load()) break;
        if (done_at == Clock::time_point{}) done_at = Clock::now();
        if (SecondsSince(done_at) > 30.0) {
          failed.store(true);
          break;
        }
      }
      pollfd fds[2] = {{a.fd(), POLLIN, 0}, {b.fd(), POLLIN, 0}};
      if (::poll(fds, 2, 20) <= 0) continue;
      for (int c = 0; c < 2; ++c) {
        if (fds[c].revents == 0) continue;
        lines.clear();
        const bool open = conns[c]->ReadAvailable(&lines);
        const Clock::time_point now = Clock::now();
        for (std::string& line : lines) {
          if (line.rfind("ALARM ", 0) == 0) continue;
          Pending pending{};
          {
            sigsub::MutexLock lock(mu);
            if (fifo[c].empty()) {
              failed.store(true);  // A reply nobody asked for.
              break;
            }
            pending = fifo[c].front();
            fifo[c].pop_front();
          }
          result.Record(pending.index, line);
          result.latency_ms[pending.index] = MsBetween(pending.due, now);
          last = now;
          ++received;
        }
        if (!open) failed.store(true);
      }
    }
  });

  for (size_t i = 0; i < count && !failed.load(); ++i) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(
                    1e9 * static_cast<double>(i) / rate_per_s));
    std::this_thread::sleep_until(due);
    result.late_ms[i] = MsBetween(due, Clock::now());
    const int c = static_cast<int>(i % 2);
    const std::string line = make(i, c);
    {
      sigsub::MutexLock lock(mu);
      fifo[c].push_back({i, due});
    }
    if (!conns[c]->Send(line)) {
      failed.store(true);
      break;
    }
    sent.fetch_add(1);
  }
  sender_done.store(true);
  reader.join();
  result.connection_failed = failed.load();
  result.replies.resize(sent.load());
  result.latency_ms.resize(sent.load());
  result.late_ms.resize(sent.load());
  result.elapsed_s = std::chrono::duration<double>(last - start).count();
  return result;
}

Reply Digest(std::string_view line) {
  std::string text(line);
  for (const char* flag : {" cache=0 ", " cache=1 "}) {
    const size_t at = text.find(flag);
    if (at != std::string::npos) text.replace(at, 9, " cache=* ");
  }
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a.
  for (unsigned char c : text) hash = (hash ^ c) * 0x100000001b3ULL;
  return {hash == 0 ? 1 : hash, text.rfind("OK ", 0) == 0};
}

void PhaseResult::Record(size_t index, const std::string& line) {
  replies[index] = Digest(line);
  if (!replies[index].ok && errors.size() < 5) errors.push_back(line);
}

std::vector<double> PhaseResult::WindowRates(size_t replies) const {
  std::vector<double> rates;
  for (size_t end = replies; end < done_s.size(); end += replies) {
    const double span = done_s[end] - done_s[end - replies];
    if (span > 0.0) rates.push_back(static_cast<double>(replies) / span);
  }
  return rates;
}

std::optional<std::string> RoundTrip(Conn& conn, const std::string& line,
                                     int timeout_ms) {
  if (!conn.Send(line)) return std::nullopt;
  return conn.ReadLine(timeout_ms);
}

int64_t StatsField(const std::string& stats_reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = stats_reply.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(stats_reply.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace perfbench
