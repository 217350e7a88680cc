// streamshare_serve's core: a long-lived service hosting one
// StreamShareSystem with the engine running continuously, driven by a
// single-threaded poll loop that multiplexes the CONTROL plane (Hello /
// Subscribe / Unsubscribe / FailPeer / CutLink / Stats / Feed / Drain /
// Detach), the RESULTS plane (per-query sink deliveries forwarded to
// attached clients with latency stamps, straight from the system's store
// of self-contained encoded results), and the
// scenario's deterministic photon generators.
//
// Every state mutation — control verb or feed tick — happens on the loop
// thread between engine feeds, which is exactly the epoch-safe handover
// Subscribe already relies on, so the system needs no locking. Live
// Subscribe goes through the real planner with admission control: an E6
// overload rejection comes back to the client as a structured kOverload
// response (reject reason included) and leaves every installed
// subscription untouched. Unsubscribe — explicit, or implicit when a
// serving client's connection drops — triggers the refcounted stream GC.
//
// Graceful drain (SIGTERM via RequestDrain, or the Drain verb) stops
// admitting, then either checkpoints the registration/churn event log
// for a later restart (restartable drain; in-flight windows deliberately
// stay unflushed — they are reconstructed on resume) or flushes all
// in-flight windows and ends the service (final drain). A restarted
// daemon resumes per ResumeFlavor: kReplay rebuilds the exact pre-drain
// engine state by replaying the event log against regenerated items
// (pgcopydb's snapshot → catchup → live: re-attached clients catch up
// from their last seen sequence and total delivered output is
// byte-identical to an uninterrupted run), kGap skips the history and
// re-installs subscriptions in resume mode (windows re-anchor at the
// next boundary — gap, not garbage).

#ifndef STREAMSHARE_SERVE_DAEMON_H_
#define STREAMSHARE_SERVE_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "serve/checkpoint.h"
#include "serve/control.h"
#include "serve/net.h"
#include "serve/wal.h"
#include "sharing/system.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"

namespace streamshare::serve {

enum class ResumeFlavor {
  kReplay,  // rebuild exact pre-drain state from the event log
  kGap,     // resume at the checkpoint offset, windows re-anchor
};

struct DaemonOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read port()).
  int port = 0;
  /// Path of the drain checkpoint. Empty disables durability entirely:
  /// no checkpoint, no write-ahead log, and Drain with final=false is
  /// rejected. Set, the daemon is crash-consistent — every acknowledged
  /// control mutation is fsync'd to the WAL beside this path
  /// (DefaultWalPath(checkpoint_path)) before its ACK leaves the
  /// process, and startup recovers checkpoint + WAL tail (a torn final
  /// record is detected and truncated).
  std::string checkpoint_path;
  /// Compaction threshold: when the WAL exceeds this many record bytes,
  /// the loop folds it into a fresh checkpoint (write-temp → fsync →
  /// rename) and starts an empty log, keeping recovery cost bounded.
  uint64_t wal_compact_bytes = 1 << 20;
  ResumeFlavor resume = ResumeFlavor::kReplay;
  /// Engine configuration. keep_results is forced on (the kept encoded
  /// results are what RESULT forwarding ships).
  sharing::SystemConfig system;
  /// Poll granularity of the event loop; bounds drain-signal latency.
  int poll_interval_ms = 50;
};

/// Counters the serve.* gauges export (one coherent snapshot).
struct DaemonStats {
  uint64_t epoch = 0;
  bool draining = false;
  uint64_t attached_clients = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t unsubscribed = 0;
  uint64_t items_fed = 0;
  uint64_t results_forwarded = 0;
  uint64_t control_requests = 0;
  uint64_t unsupported_frames = 0;
  uint64_t drain_micros = 0;
  /// Durability plane (serve.wal.* metrics). Cumulative across the WAL
  /// resets a compaction or recovery fold performs.
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsync_us = 0;
  uint64_t wal_compactions = 0;
  uint64_t wal_recovered_records = 0;
  uint64_t wal_torn_tail_truncations = 0;
  /// This life's startup replay (serve.recovery.* metrics): items per
  /// stream regenerated and fed (0 under kGap, which only skips the
  /// generators), logged events re-applied, and the replay's wall time.
  uint64_t recovery_replay_items = 0;
  uint64_t recovery_replayed_events = 0;
  uint64_t recovery_replay_us = 0;
  /// Where startup recovery spent its time: reading the checkpoint,
  /// scanning the WAL, applying the logged control events (replay_us's
  /// registration share, unsubscribes and chaos events included),
  /// regenerating and feeding the logged item history (its feed share),
  /// and folding the result into a fresh checkpoint and an empty log.
  uint64_t recovery_checkpoint_load_us = 0;
  uint64_t recovery_wal_scan_us = 0;
  uint64_t recovery_replay_register_us = 0;
  uint64_t recovery_replay_feed_us = 0;
  uint64_t recovery_fold_us = 0;
  /// Logged Subscribe events the replay re-registered, and the planner
  /// candidates their registrations examined.
  uint64_t recovery_replayed_registrations = 0;
  uint64_t recovery_candidates_examined = 0;
  /// Serve plane sends to clients (serve.net.* metrics), summed over
  /// every connection: send() calls, frames queued, bytes written.
  uint64_t net_sends = 0;
  uint64_t net_frames_out = 0;
  uint64_t net_bytes_out = 0;
  /// Queries the daemon keeps forwarding state for: those some client
  /// has attached at some point and nobody has unsubscribed since — a
  /// detach keeps it (serve.forward.channels).
  uint64_t forward_channels = 0;
};

class ServeDaemon {
 public:
  ServeDaemon(workload::ScenarioSpec scenario, DaemonOptions options);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Builds (or restores from checkpoint) the system, binds the
  /// listener, and starts the loop thread. Synchronous: on return the
  /// daemon accepts connections (or the error says why not).
  Status Start();

  /// Bound port (valid after Start).
  int port() const { return listener_.port(); }

  /// Service life counter: 0 for a fresh start, checkpoint epoch + 1
  /// after a resume.
  uint64_t epoch() const { return epoch_; }

  /// Requests a graceful drain from any thread or a signal handler
  /// (atomic flag; the loop notices within poll_interval_ms). `final`
  /// flushes in-flight windows and ends the service; otherwise the
  /// daemon checkpoints for a restart.
  void RequestDrain(bool final_drain);

  /// Blocks until the loop thread exits (after a drain).
  void Join();

  /// Terminal status of the loop (valid after Join).
  Status loop_status() const;

  DaemonStats stats() const;

  /// Folds serve.* gauges plus the hosted system's metrics into
  /// `registry`.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  /// Per-query forwarding bookkeeping shared across client lives, for
  /// the queries some client has attached and nobody has unsubscribed.
  struct QueryChannel {
    /// One run per forwarding pass that observed new sink deliveries: the
    /// index of the first one and the pass's tick (NowUs). Deliveries
    /// from `first` up to the next run's `first` were observed at `tick`.
    struct TickRun {
      uint64_t first = 0;
      uint64_t tick = 0;
    };
    std::vector<TickRun> ticks;
    /// Deliveries observed so far.
    uint64_t observed = 0;
  };

  struct Attachment {
    /// Next sink-delivery index to forward to the attached client.
    uint64_t next_index = 0;
    /// The query's entry in channels_ (std::map nodes stay put).
    QueryChannel* channel = nullptr;
  };

  struct ClientState {
    FrameConn conn;
    std::string name;
    bool hello_done = false;
    /// query id -> forwarding cursor. A query is attached to at most one
    /// connection (the one that subscribed or re-attached it).
    std::map<int, Attachment> subs;
    uint64_t results_forwarded = 0;
    /// conn's counters as last folded into stats_ (NoteNetCounters).
    uint64_t noted_sends = 0;
    uint64_t noted_frames_out = 0;
    uint64_t noted_bytes_out = 0;
  };

  bool durable() const { return !options_.checkpoint_path.empty(); }
  /// Startup with durability on: load checkpoint + scan WAL, validate
  /// generations, replay both, fold into a fresh checkpoint when the WAL
  /// carried records, and open an empty log for this life.
  Status RecoverDurableState();
  /// Appends one record to the WAL and fsyncs; called before the ACK of
  /// the operation it records. A failure here is fatal to the loop (the
  /// mutation is applied but cannot be made durable, so no ACK may ever
  /// leave) — handlers return the error response, HandleRequest drops it
  /// and surfaces wal_error_ instead.
  void DurableAppend(const WalRecord& record);
  /// The one way an acknowledged control mutation is recorded: stamps
  /// `event` at the current feed offset, appends it to the event log and
  /// makes it durable.
  void LogMutation(LogEvent event);
  /// Folds the WAL into a fresh checkpoint and restarts the log.
  Status CompactWal();
  /// The one checkpoint save: bumps generation_ and writes the current
  /// state as that generation (fsync + rename, checkpoint.h).
  Status SaveNextCheckpoint();
  /// Replaces the WAL with an empty log extending generation_.
  Status ResetWal();

  Status BuildFreshSystem();
  Status RestoreFromCheckpoint(const Checkpoint& checkpoint);
  /// The one recovery replay, for the checkpoint's history and the WAL
  /// tail alike: applies `events` in order, each at its recorded feed
  /// offset, and brings the fed history up to `to` items per stream.
  /// kReplay feeds the regenerated items before each event (FeedRange:
  /// bounded chunks, never the whole history at once); kGap only skips
  /// the generators past them. Appends the events to event_log_ and
  /// leaves items_fed_ at `to`.
  Status ReplayHistory(const std::vector<LogEvent>& events, uint64_t to);
  /// kReplay's consistency check after a checkpoint restore: the
  /// replayed sinks reproduce the checkpoint's per-query counts and
  /// hashes exactly.
  Status VerifyDeliveries(const Checkpoint& checkpoint) const;
  Status ApplyLoggedEvent(const LogEvent& event);
  /// Feeds `count` freshly generated items per stream (advances
  /// items_fed_).
  Status FeedItems(uint64_t count);
  /// Generates and feeds items [from, to) per stream, at most
  /// kFeedChunkBatches full batches per stream at a time.
  Status FeedRange(uint64_t from, uint64_t to);

  void LoopMain();
  Status LoopOnce();
  Status HandleReadable(ClientState* client);
  Status HandleRequest(ClientState* client,
                       const transport::Frame& frame);
  ControlResponse Dispatch(ClientState* client,
                           const ControlRequest& request);
  ControlResponse DoHello(ClientState* client,
                          const ControlRequest& request);
  ControlResponse DoSubscribe(ClientState* client,
                              const ControlRequest& request);
  ControlResponse DoSubscribeBatch(ClientState* client,
                                   const ControlRequest& request);
  /// Subscribe's and the batch's one registration step: registers the
  /// query, logs the registration when it consumed a query id (accepted
  /// or admission-rejected) and attaches an accepted query to `client`.
  /// A parse or analysis error consumes no id and logs nothing.
  Result<SubscribeReply> RegisterAndAttach(ClientState* client,
                                           const std::string& query_text,
                                           int64_t vq, uint8_t strategy);
  ControlResponse DoReoptimize(const ControlRequest& request);
  ControlResponse DoUnsubscribe(ClientState* client,
                                const ControlRequest& request);
  /// Unsubscribes `query_id` from the system, logs it and drops its
  /// forwarding state; the caller drops the client attachments.
  Status UnsubscribeQuery(int query_id);
  ControlResponse DoFailPeer(const ControlRequest& request);
  ControlResponse DoCutLink(const ControlRequest& request);
  ControlResponse DoStats(const ControlRequest& request);
  ControlResponse DoFeed(const ControlRequest& request);
  ControlResponse DoDrain(ClientState* client,
                          const ControlRequest& request);
  ControlResponse DoDetach(ClientState* client);

  /// Scans the sinks of the attached queries for deliveries that appeared
  /// since the last scan and queues them as RESULT frames to their
  /// clients; they leave at the pass's flush point (LoopOnce) or with the
  /// drain's EOS.
  void ForwardNewResults();
  /// Notes one query's new deliveries as observed at `now` and queues
  /// `client`'s undelivered results of it, stamped `now`; `body` is the
  /// pass's reused scratch for one frame body. Returns the number of
  /// results queued.
  uint64_t ForwardTo(ClientState* client, int query_id,
                     Attachment* attachment, uint64_t now,
                     std::string* body);
  /// Attaches `query_id` to `client`, forwarding from delivery
  /// `next_index`.
  void Attach(ClientState* client, int query_id, uint64_t next_index);
  /// Drops a client's attachments; with `unsubscribe` the queries leave
  /// the system too (refcounted GC) — the implicit-disconnect semantics.
  void DetachClient(ClientState* client, bool unsubscribe);
  /// A failed client: detached with unsubscribe and closed. LoopOnce
  /// erases closed clients at the end of the pass.
  void DropClient(ClientState* client);
  /// Folds every client's send counters since the last call into stats_.
  void NoteNetCounters();
  Status PerformDrain(bool final_drain);
  Checkpoint BuildCheckpoint() const;

  workload::ScenarioSpec scenario_;
  DaemonOptions options_;
  uint64_t epoch_ = 0;
  /// Generation of the checkpoint currently on disk (see
  /// Checkpoint::generation); the open WAL extends exactly this one.
  uint64_t generation_ = 0;

  std::unique_ptr<sharing::StreamShareSystem> system_;
  std::vector<workload::PhotonGenerator> generators_;
  uint64_t items_fed_ = 0;
  std::vector<LogEvent> event_log_;
  std::map<int, QueryChannel> channels_;

  WriteAheadLog wal_;
  /// First WAL append failure; fatal to the loop (no ACK may follow an
  /// operation that could not be made durable).
  Status wal_error_;

  Listener listener_;
  std::vector<std::unique_ptr<ClientState>> clients_;

  std::thread loop_thread_;
  std::atomic<int> drain_request_{0};  // 0 none, 1 restartable, 2 final
  std::atomic<bool> draining_{false};
  Status loop_status_;

  mutable std::mutex stats_mutex_;
  DaemonStats stats_;
};

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_DAEMON_H_
