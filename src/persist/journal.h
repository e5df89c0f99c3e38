#ifndef SIGSUB_PERSIST_JOURNAL_H_
#define SIGSUB_PERSIST_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/streaming.h"

namespace sigsub {
namespace persist {

/// Append-only write-ahead journal of stream mutations. The server
/// journals every acknowledged CREATE/APPEND/CLOSE *before* applying it
/// to the in-memory StreamManager, so after any crash the journal tail
/// replayed on top of the last snapshot reconstructs exactly the
/// acknowledged state: an op the client saw "OK" for is never lost, and
/// an op that failed to journal was never applied (the client saw
/// EPERSIST). A record half-written at the moment of a crash fails its
/// CRC and is truncated on the next open — torn tails are expected
/// wear, not corruption.

/// When the journal fsyncs.
enum class FsyncPolicy {
  /// Never explicitly — the OS flushes on its own schedule. An OS or
  /// power crash can lose the most recent acknowledged ops (a process
  /// crash cannot: the page cache survives the process).
  kNone,
  /// After every appended record: an acknowledged op survives power
  /// loss. The durable default; costs one fsync per executor slice op.
  kAlways,
};

/// "none" | "always" (the CLI `--fsync` vocabulary).
Result<FsyncPolicy> ParseFsyncPolicy(std::string_view text);

enum class JournalOp : uint8_t {
  kCreate = 1,
  kAppend = 2,
  kClose = 3,
};

/// One journaled stream mutation. `lsn` (log sequence number) is
/// assigned by the journal, strictly increasing across the journal's
/// lifetime — snapshots record the last LSN they contain so replay can
/// skip records the snapshot already reflects.
struct JournalRecord {
  uint64_t lsn = 0;
  JournalOp op = JournalOp::kAppend;
  std::string stream;
  // kCreate only:
  std::vector<double> probs;
  core::StreamingDetector::Options options;
  // kAppend only:
  std::vector<uint8_t> symbols;
};

std::string EncodeJournalRecord(const JournalRecord& record);
Result<JournalRecord> DecodeJournalRecord(std::span<const uint8_t> bytes);

/// What replay found in an existing journal.
struct JournalReplay {
  std::vector<JournalRecord> records;  // CRC-valid records, in order.
  uint64_t next_lsn = 1;               // One past the highest LSN seen.
  size_t valid_bytes = 0;     // File offset after the last good record.
  size_t truncated_bytes = 0;  // Torn/corrupt tail beyond valid_bytes.
};

/// Parses journal bytes in memory: header, then CRC frames to the first
/// torn or corrupt frame, which ends the replay (everything after a bad
/// record is unreachable wear). Fails only on a bad header — that is a
/// file-level identity problem, not crash damage. This is the reader
/// fuzz/persist_fuzz.cc drives with arbitrary bytes.
Result<JournalReplay> ParseJournal(std::span<const uint8_t> bytes);

/// The on-disk journal, opened for append. Not thread-safe: the server
/// writes it from the executor thread only.
class Journal {
 public:
  /// Opens (creating if absent) the journal at `path`: replays existing
  /// records into `*replay`, physically truncates any torn tail so the
  /// file ends at a record boundary, and positions for append with the
  /// LSN counter continuing where the file left off.
  static Result<Journal> Open(std::string path, FsyncPolicy policy,
                              JournalReplay* replay);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Appends one record (`record.lsn` is overwritten with the next LSN)
  /// and fsyncs per policy. Returns the assigned LSN. On a write error
  /// the journal truncates back to the last good record boundary so the
  /// file stays parseable; if even that fails, the journal is broken
  /// and every later Append fails fast with FailedPrecondition.
  Result<uint64_t> Append(JournalRecord record);

  /// Drops every record (after a snapshot made them redundant),
  /// keeping the file header. The LSN counter is NOT reset — LSNs stay
  /// unique across truncations, which is what snapshot reconciliation
  /// keys on.
  Status Reset();

  /// Last LSN handed out (0 if none yet).
  uint64_t last_lsn() const { return next_lsn_ - 1; }
  const std::string& path() const { return path_; }

 private:
  Journal(std::string path, int fd, FsyncPolicy policy, uint64_t next_lsn,
          size_t good_offset)
      : path_(std::move(path)),
        fd_(fd),
        policy_(policy),
        next_lsn_(next_lsn),
        good_offset_(good_offset) {}

  std::string path_;
  int fd_ = -1;
  FsyncPolicy policy_ = FsyncPolicy::kAlways;
  uint64_t next_lsn_ = 1;
  size_t good_offset_ = 0;  // File size through the last good record.
  bool broken_ = false;
};

}  // namespace persist
}  // namespace sigsub

#endif  // SIGSUB_PERSIST_JOURNAL_H_
