#ifndef SIGSUB_PERFBENCH_WIRE_H_
#define SIGSUB_PERFBENCH_WIRE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench.h"
#include "trace.h"

namespace perfbench {

/// One loopback TCP connection speaking the sigsubd line protocol. The
/// benchmark's own client (not server::LineClient, which is
/// one-thread-per-connection): the open loop sends from one thread and
/// reads from another, which needs a send path that touches no state the
/// read path owns.
class Conn {
 public:
  /// Connects to 127.0.0.1:port with TCP_NODELAY; nullopt on failure.
  static std::optional<Conn> Open(int port);

  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  int fd() const { return fd_; }

  /// Sends `line` plus '\n'; false when the connection failed.
  bool Send(const std::string& line);

  /// Reads what the socket holds and appends each complete line to
  /// `lines`; false at EOF or on error.
  bool ReadAvailable(std::vector<std::string>* lines);

  /// Blocks up to `timeout_ms` for the next line.
  std::optional<std::string> ReadLine(int timeout_ms);

 private:
  explicit Conn(int fd) : fd_(fd) {}

  /// Moves what the socket holds into rbuf_; false at EOF or on error.
  bool Fill();
  /// Pops one complete line off rbuf_.
  bool PopLine(std::string* line);

  int fd_ = -1;
  std::string rbuf_;
};

/// A reply as the load generator keeps it: a digest of the line with its
/// cache= flag blanked (the flag depends on how the server sliced the
/// requests). Keeping digests instead of lines keeps the checks' memory
/// out of peak_rss_mb, which would otherwise grow with throughput.
struct Reply {
  uint64_t digest = 0;  // 0: no reply arrived.
  bool ok = false;      // The line began with "OK ".
};
Reply Digest(std::string_view line);

/// What a load phase saw, per request it sent (indexed like the phase's
/// requests).
struct PhaseResult {
  std::vector<Reply> replies;
  std::vector<std::string> errors;  // The first few replies not "OK ...".
  std::vector<double> latency_ms;  // Request i: from due (or send) to reply.
  std::vector<double> late_ms;     // Open loop: send time minus due time.
  std::vector<double> done_s;      // Closed loop: each reply's arrival,
                                   // in seconds from the first send.
  double elapsed_s = 0.0;          // First send to last reply.

  /// Closed loop: replies per second over each run of `replies`
  /// consecutive replies. Their median is the phase's throughput, robust
  /// to a stall (or a burst of CPU steal) in a few windows.
  std::vector<double> WindowRates(size_t replies) const;
  /// Keeps the reply to request `index`.
  void Record(size_t index, const std::string& line);
  bool connection_failed = false;
};

/// Closed loop on one connection: keeps `window` requests in flight,
/// sending the next as each reply arrives, until every request in
/// `requests` has been sent or `seconds` have passed (then drains what is
/// in flight). `make(i)` renders request i. The result covers only the
/// requests actually sent. With a `tracer`, each request is recorded as
/// a "wire.request" span from send to reply.
PhaseResult ClosedLoop(Conn& conn, size_t count,
                       const std::function<std::string(size_t)>& make,
                       size_t window, double seconds,
                       Tracer* tracer = nullptr);

/// Open loop at a fixed offered rate: one sender thread puts request i on
/// connection i % 2 at time start + i / rate (whatever the replies do),
/// one reader thread collects replies from both; each request is timed
/// from when it was due. `make(i, c)` renders request i for connection c.
PhaseResult OpenLoop(Conn& a, Conn& b, size_t count,
                     const std::function<std::string(size_t, int)>& make,
                     double rate_per_s);

/// Sends one control line and waits for its reply.
std::optional<std::string> RoundTrip(Conn& conn, const std::string& line,
                                     int timeout_ms = 10000);

/// Parses the integer `key=` field of a STATS reply (-1 when absent).
int64_t StatsField(const std::string& stats_reply, const std::string& key);

}  // namespace perfbench

#endif  // SIGSUB_PERFBENCH_WIRE_H_
