// Runs a whole scenario end-to-end through a real daemon + client over
// localhost TCP and reports what each query delivered to the client —
// field-for-field comparable with a batch run's sinks (same counts, same
// bytes, same order-insensitive content hash). This is the harness the
// serve e2e tests, the serve_smoke CI job, and the fuzz oracle's serve
// arm all share: if the daemon's forwarding plane, codec handshake,
// admission control, churn verbs, or drain/resume logic drop, duplicate,
// or corrupt a single item, the report diverges from the serial
// reference.

#ifndef STREAMSHARE_SERVE_SERVE_ORACLE_H_
#define STREAMSHARE_SERVE_SERVE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/daemon.h"
#include "workload/scenario.h"

namespace streamshare::serve {

struct ServeRunOptions {
  size_t items_per_stream = 0;
  /// Fed in chunks of this many items per stream (exercises incremental
  /// forwarding; the last chunk may be smaller).
  size_t feed_chunk = 16;
  /// Failures applied at their offsets via the FailPeer/CutLink verbs.
  std::vector<workload::ChurnEvent> churn;
  /// Restartable-drain the daemon after this many items per stream,
  /// restart it from the checkpoint, re-attach, and keep going.
  /// 0 disables the drain/restart exercise.
  size_t drain_at = 0;
  /// Needed when drain_at > 0.
  std::string checkpoint_path;
  ResumeFlavor resume = ResumeFlavor::kReplay;
  /// Engine configuration for the hosted system (enforce_limits etc.).
  sharing::SystemConfig system;
  uint8_t strategy = 2;  // sharing::Strategy::kStreamSharing
};

/// What one scenario query delivered to the client, plus how its
/// registration went.
struct ServeQueryObservation {
  int64_t query_id = -1;
  bool accepted = false;
  std::string reject_reason;
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t content_hash = 0;
};

struct ServeRunReport {
  /// One entry per scenario query, in scenario order.
  std::vector<ServeQueryObservation> queries;
  /// Service lives the run spanned (1, or 2 with drain_at).
  uint64_t epochs = 1;
  uint64_t items_fed = 0;
  uint64_t results_forwarded = 0;
};

/// Starts a daemon on an ephemeral port, attaches a client, subscribes
/// every scenario query, feeds the full workload (churn and optional
/// drain/restart included), final-drains, and reports.
Result<ServeRunReport> RunScenarioThroughDaemon(
    const workload::ScenarioSpec& scenario, const ServeRunOptions& options);

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_SERVE_ORACLE_H_
