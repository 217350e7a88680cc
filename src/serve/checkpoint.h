// The daemon's drain checkpoint: an event log in the pgcopydb sentinel
// spirit. Instead of serializing engine state (open windows, dictionary
// positions), the checkpoint records the *inputs* that produced it —
// every subscription registration (accepted or admission-rejected, so
// query-id assignment replays identically) with the plan choice its
// search made for each input, every unsubscribe, every FailPeer/CutLink,
// each positioned at the per-stream item offset it was applied at, plus
// how many items each stream had fed. Because stream items come from
// seeded deterministic generators, a restarted daemon can rebuild the
// exact pre-drain engine state by replaying the log interleaved with
// regenerated items (ResumeFlavor::kReplay) — rebuilding each logged
// plan from its choices rather than searching again — or skip the
// history and resume gap-not-garbage at the recorded offset
// (ResumeFlavor::kGap). Per-query delivered counts/hashes ride along as
// a consistency check on the replay. Files of an older format (no plan
// choices) are refused by name.

#ifndef STREAMSHARE_SERVE_CHECKPOINT_H_
#define STREAMSHARE_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/scenario.h"

namespace streamshare::serve {

struct LogEvent {
  enum class Kind : uint8_t {
    kSubscribe = 1,
    kUnsubscribe = 2,
    kFailPeer = 3,
    kCutLink = 4,
    kReoptimize = 5,
  };

  Kind kind = Kind::kSubscribe;
  /// Items per stream that had been fed when the event was applied.
  uint64_t at_items = 0;

  // kSubscribe
  std::string query_text;
  int64_t vq = 0;
  uint8_t strategy = 2;
  /// What the planner chose for each query input (stream sharing only;
  /// empty for the shipping baselines, which never search). A replay
  /// rebuilds the plan from these instead of searching again.
  std::vector<sharing::PlanChoice> choices;

  // kUnsubscribe
  int64_t query_id = -1;

  // kFailPeer / kCutLink
  int64_t peer = -1;
  int64_t link_a = -1, link_b = -1;

  // kReoptimize. A re-optimization pass is deterministic given the
  // system state it ran against, so logging (offset, cap) is enough for
  // a replay to reproduce the exact plan migrations.
  int64_t max_migrations = -1;
};

/// Delivered-output fingerprint of one query at drain time (replay
/// consistency check; not needed to rebuild state).
struct DeliverySnapshot {
  int64_t query_id = -1;
  uint64_t items = 0;
  uint64_t content_hash = 0;
};

struct Checkpoint {
  /// Guards against resuming a different scenario's checkpoint.
  uint64_t scenario_fingerprint = 0;
  /// Service life this checkpoint was written in (a restarted daemon
  /// runs at least epoch + 1).
  uint64_t epoch = 0;
  /// Monotonic write counter across the daemon's whole on-disk history
  /// (drain checkpoints and WAL compactions alike). The write-ahead log
  /// names the generation it extends, which disambiguates a crash that
  /// lands between "new checkpoint renamed into place" and "old WAL
  /// truncated": a WAL whose base generation is older than the
  /// checkpoint is stale — its records are already folded in.
  uint64_t generation = 0;
  /// Items per stream fed before the checkpoint was cut.
  uint64_t items_fed = 0;
  std::vector<LogEvent> events;
  std::vector<DeliverySnapshot> deliveries;
};

/// Stable hash of what determines the daemon's deterministic input:
/// topology shape, stream names/sources/generator seeds, capacities.
uint64_t ScenarioFingerprint(const workload::ScenarioSpec& scenario);

/// Event codec shared by the checkpoint body and the write-ahead log's
/// records (serve/wal.h), so the two planes can never drift apart.
void AppendLogEvent(std::string* out, const LogEvent& event);
/// Consumes one event off `data`; false on truncation or an unknown
/// kind (with `data` left mid-event — callers treat that as torn).
bool ParseLogEvent(std::string_view* data, LogEvent* event);

/// Writes crash-atomically: temp file in the same directory, fsync the
/// file, rename over the target, fsync the directory. A crash at any
/// instant leaves either the previous checkpoint or the new one — never
/// a torn hybrid (tests/test_wal.cc proves it with the fault seam
/// below).
Status SaveCheckpoint(const std::string& path,
                      const Checkpoint& checkpoint);
/// ParseError for a foreign file, a torn image, or a checkpoint of
/// another format version (the error names both versions).
Result<Checkpoint> LoadCheckpoint(const std::string& path);

/// Test seam: behaves like SaveCheckpoint up to `fail_after_bytes` of
/// the temp file, then returns an error without renaming — the unit-test
/// form of a crash mid-write, leaving the partial temp file behind.
Status SaveCheckpointFaulted(const std::string& path,
                             const Checkpoint& checkpoint,
                             size_t fail_after_bytes);

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_CHECKPOINT_H_
