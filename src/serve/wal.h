// The write-ahead event log that makes the daemon crash-consistent. The
// drain checkpoint (serve/checkpoint.h) records the daemon's input
// history at one instant; the WAL extends that instant continuously:
// every id-consuming registration (accepted and rejected alike),
// Unsubscribe, FailPeer/CutLink, Reoptimize, and per-stream feed offset
// is appended as a CRC32-framed, length-prefixed record and fsync'd
// before the daemon's CONTROL ACK leaves the process — an acknowledged
// operation survives kill -9 by construction. Recovery scans checkpoint
// + WAL, stops at the first torn or CRC-corrupt record (the valid prefix
// is exactly the acknowledged history), truncates the tail, and replays
// through the same snapshot → catchup machinery a drain/restart uses.
//
// On-disk layout:
//   header   "SSWAL002" | 8B LE scenario fingerprint | 8B LE epoch |
//            8B LE base generation | 4B LE CRC32 of the 24 field bytes
//   record*  4B LE payload length | 4B LE CRC32(payload) | payload
//   payload  varint kind | kind body
//            kind 1 (event): serve/checkpoint.h LogEvent encoding
//            kind 2 (feed):  varint absolute items-per-stream offset
//
// `base generation` names the checkpoint generation this log extends: a
// log whose base is older than the on-disk checkpoint is stale (its
// records were already folded into that checkpoint by a compaction or a
// drain that died before truncating the log) and is discarded whole; a
// log whose base is newer means the checkpoint was lost — a decodable
// refusal, never a silent divergence.

#ifndef STREAMSHARE_SERVE_WAL_H_
#define STREAMSHARE_SERVE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serve/checkpoint.h"

namespace streamshare::serve {

/// CRC-32 (ISO-HDLC polynomial, the zlib one). Exposed so the torn-tail
/// tests can frame records and corrupt them deliberately.
uint32_t Crc32(std::string_view bytes);

/// The conventional WAL path riding beside a checkpoint.
std::string DefaultWalPath(const std::string& checkpoint_path);

struct WalHeader {
  uint64_t scenario_fingerprint = 0;
  /// Service life that wrote this log.
  uint64_t epoch = 0;
  /// Checkpoint generation the log extends (0 = no checkpoint existed).
  uint64_t base_generation = 0;
};

struct WalRecord {
  enum class Kind : uint8_t {
    kEvent = 1,  // one logged control mutation
    kFeed = 2,   // feed advanced to this absolute per-stream offset
  };
  Kind kind = Kind::kEvent;
  LogEvent event;          // kEvent
  uint64_t items_fed = 0;  // kFeed

  static WalRecord Event(LogEvent event) {
    WalRecord record;
    record.kind = Kind::kEvent;
    record.event = std::move(event);
    return record;
  }
  static WalRecord Feed(uint64_t items_fed) {
    WalRecord record;
    record.kind = Kind::kFeed;
    record.items_fed = items_fed;
    return record;
  }
};

/// Frames one record (length | CRC | payload) — shared by Append and the
/// tests that build corrupt logs byte by byte.
std::string EncodeWalRecord(const WalRecord& record);

struct WalCounters {
  uint64_t appends = 0;
  uint64_t bytes = 0;  // record bytes written (header excluded)
  uint64_t fsync_us = 0;
};

/// The writer. Raw fds and explicit fsync — Append returning Ok means
/// the record is on stable storage.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();
  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Truncates/creates `path`, writes the header, fsyncs file and
  /// directory. An existing log at the path is discarded (callers fold
  /// it into a checkpoint first).
  static Result<WriteAheadLog> Create(const std::string& path,
                                      const WalHeader& header);

  /// Appends one framed record and fsyncs before returning.
  Status Append(const WalRecord& record);

  bool open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  const WalCounters& counters() const { return counters_; }
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
  WalCounters counters_;
};

/// What a recovery scan found.
struct WalRecovery {
  WalHeader header;
  std::vector<WalRecord> records;
  /// Bytes of header + fully valid records (everything past this offset
  /// is the torn tail).
  uint64_t valid_bytes = 0;
  /// The file ended in a torn or CRC-corrupt record (dropped).
  bool torn_tail = false;
  uint64_t torn_bytes = 0;
  /// The header itself was torn (a crash during Create). The log carries
  /// no usable state — but that is fine: Create only ever runs right
  /// after the checkpoint was brought current, so the checkpoint alone
  /// is the complete durable history.
  bool torn_header = false;
};

/// Scans the log, stopping at the first invalid record. NotFound when no
/// file exists; ParseError only when the file is not a WAL at all (bad
/// magic) or is a WAL of another format version (the error names both)
/// — torn tails and torn headers are normal crash outcomes, not errors.
Result<WalRecovery> RecoverWal(const std::string& path);

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_WAL_H_
