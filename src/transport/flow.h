// Credit-based flow control over one transport pipe, plus deterministic
// fault injection. The protocol (see docs/TRANSPORT.md):
//
//   sender                                receiver
//     credits := initial_credits
//     loop: wait for credit ───DATA(seq,target,item)──▶ check seq,
//           (timeout → bounded                          deliver to the
//            retries w/ backoff)  ◀───CREDIT(n)──────── worker's bounded
//     after last item ──────EOS(total)───────▶          LinkQueue, then
//                                                       grant credit
//
// Credits bridge remote backpressure into the executor's LinkQueue: the
// receiver grants a credit only after the entry went into the bounded
// queue, so a slow consumer stalls the remote sender exactly like a full
// queue stalls a local producer. Cross-worker channels follow the
// partition plan's acyclic worker DAG, so this blocking cannot deadlock.
//
// Sequence numbers make injected faults observable: a dropped frame is a
// gap (surfaced as a data-loss error at the gap or at EOS), a duplicated
// frame is discarded and counted, a delayed frame is just late.

#ifndef STREAMSHARE_TRANSPORT_FLOW_H_
#define STREAMSHARE_TRANSPORT_FLOW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "engine/latency.h"
#include "transport/transport.h"
#include "transport/wire.h"

namespace streamshare::transport {

struct FlowOptions {
  /// DATA frames the sender may have in flight before the first grant.
  uint64_t initial_credits = 256;
  /// How long one wait for credit (or one send) may block.
  int send_timeout_ms = 2000;
  /// Credit-wait retries after the first timeout before giving up with
  /// DeadlineExceeded.
  int max_retries = 3;
  /// Backoff added per retry: retry k waits send_timeout_ms + k*this.
  int retry_backoff_ms = 50;
};

/// Deterministic fault plan. The sender-side faults apply to DATA frames
/// only; credit_drop_period is the one receiver-side fault — it swallows
/// CREDIT frames, starving the sender so the timeout/retry path (and its
/// DeadlineExceeded escape) is testable. Periods count frames of the
/// faulted type on the channel, 0 disables a fault.
struct FaultPlan {
  uint64_t drop_period = 0;       ///< drop every Nth DATA frame
  uint64_t duplicate_period = 0;  ///< send every Nth DATA frame twice
  uint64_t delay_period = 0;      ///< delay every Nth DATA frame …
  int delay_ms = 0;               ///< … by this much
  uint64_t credit_drop_period = 0;  ///< receiver drops every Nth CREDIT

  bool any() const {
    return drop_period != 0 || duplicate_period != 0 ||
           delay_period != 0 || credit_drop_period != 0;
  }
};

struct ChannelStats {
  uint64_t frames_sent = 0;    ///< DATA frames handed to the pipe
  uint64_t bytes_sent = 0;     ///< wire bytes, all frame types
  uint64_t items_delivered = 0;
  uint64_t credit_stalls = 0;  ///< times the sender ran out of credit
  uint64_t credit_stall_ns = 0;
  uint64_t retries = 0;        ///< credit waits that timed out and retried
  uint64_t faults_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_delayed = 0;
  uint64_t duplicates_discarded = 0;   ///< receiver-side
  uint64_t faults_credits_dropped = 0;  ///< receiver-side
  /// Credit waits that exhausted every retry — the sender gave up with
  /// DeadlineExceeded. The liveness symptom the system promotes into
  /// peer suspicion (network::PeerStatus::kSuspect).
  uint64_t deadline_failures = 0;
};

/// Sending half of one channel. Single-threaded (the producing worker).
class ChannelSender {
 public:
  ChannelSender(std::string label, std::unique_ptr<PipeEnd> end,
                FlowOptions options, FaultPlan faults);

  /// Sends one encoded item to operator `target` on the receiving
  /// worker. Waits for credit first; a stall past the timeout budget
  /// (max_retries retries with backoff) fails with DeadlineExceeded.
  /// A stamped `stamp` rides along as the v2 frame extension (the
  /// receiver rebuilds it, transport time credited); an unstamped one
  /// keeps the frame at the v1 layout, byte-identical to the old wire.
  Status SendItem(uint64_t target, std::string_view encoded_item,
                  const engine::latency::ItemStamp& stamp);
  Status SendItem(uint64_t target, std::string_view encoded_item) {
    return SendItem(target, encoded_item, engine::latency::ItemStamp{});
  }

  /// Sends EOS carrying the total DATA count; the receiver uses it to
  /// detect tail loss. Call exactly once, after the last item.
  Status SendEos();

  /// Forwards a failure downstream so remote workers stop cleanly.
  Status SendError(std::string_view message);

  /// Call after SendEos/SendError, before the channel's fds can close:
  /// consumes whatever CREDIT frames are still in flight until the peer
  /// closes its end (bounded by the send timeout). This leaves the pipe's
  /// receive buffer empty at close time — a TCP socket closed with unread
  /// data aborts the connection (RST) and can destroy the peer's
  /// still-buffered EOS; tests/regression/repro_tcp_teardown.cc covers
  /// that race.
  void DrainUntilPeerClose();

  const ChannelStats& stats() const { return stats_; }
  const std::string& label() const { return label_; }

 private:
  /// Ensures at least one credit, consuming CREDIT frames from the pipe
  /// (this is the only frame type flowing sender-ward).
  Status AwaitCredit();

  std::string label_;
  std::unique_ptr<PipeEnd> end_;
  FlowOptions options_;
  FaultPlan faults_;
  uint64_t credits_ = 0;
  uint64_t next_seq_ = 0;
  ChannelStats stats_;
};

/// Receiving half of one channel. Single-threaded (the channel's
/// receiver thread).
class ChannelReceiver {
 public:
  /// What one Recv produced.
  struct Incoming {
    FrameType type = FrameType::kError;
    uint64_t target = 0;     ///< DATA: operator index on this worker
    std::string item_bytes;  ///< DATA: encoded item
    std::string error;       ///< ERROR: the sender's message
    /// DATA: the item's latency stamp, rebuilt from the v2 frame
    /// extension with this hop's wire time added; unstamped for v1
    /// frames and unstamped senders.
    engine::latency::ItemStamp stamp;
  };

  ChannelReceiver(std::string label, std::unique_ptr<PipeEnd> end,
                  FlowOptions options, FaultPlan faults = {});

  /// Blocks for the next DATA / EOS / ERROR. Duplicates are discarded
  /// internally; a sequence gap or short EOS total fails with
  /// Unavailable("…data loss…"). After EOS or ERROR the channel is done.
  Status Recv(Incoming* out);

  /// Grants `count` credits back to the sender. Call after the received
  /// entry cleared the bounded LinkQueue — that is what extends the
  /// queue's backpressure across the wire.
  void GrantCredit(uint64_t count);

  void Close() { end_->Close(); }

  const ChannelStats& stats() const { return stats_; }
  const std::string& label() const { return label_; }

 private:
  std::string label_;
  std::unique_ptr<PipeEnd> end_;
  FlowOptions options_;
  FaultPlan faults_;
  uint64_t expected_seq_ = 0;
  uint64_t credit_frames_ = 0;
  ChannelStats stats_;
};

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_FLOW_H_
