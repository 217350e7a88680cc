// The attach/subscribe side of the serve plane. A ServeClient owns one
// FrameConn to a daemon and exposes the control verbs as blocking
// request/response calls; RESULT frames that interleave with an ACK are
// accumulated on the fly into per-query observations (count, bytes,
// order-insensitive content hash — computed exactly like engine::SinkOp
// so a client-side observation is directly comparable to a batch run's
// sink). Every RESULT body is self-contained (protocol 3): the client
// decodes each one on its own, so it holds no codec state across frames
// or connections.

#ifndef STREAMSHARE_SERVE_CLIENT_H_
#define STREAMSHARE_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/control.h"
#include "serve/net.h"

namespace streamshare::serve {

/// What one query delivered to this client, accumulated from RESULT
/// frames. Comparable field-for-field with a batch run's SinkOp.
struct ClientQueryResults {
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t content_hash = 0;
  /// Highest delivery sequence received plus one (== the daemon-side
  /// sink index to resume_from after a reconnect).
  uint64_t next_seq = 0;
  /// Measured per-delivery latencies (µs), from the RESULT stamps:
  /// daemon residency and total (residency + client-measured wire hop).
  std::vector<uint64_t> residency_us;
  std::vector<uint64_t> total_us;
};

/// Redial policy for Reconnect / RunWithReconnect: exponential backoff
/// with multiplicative jitter so a herd of clients does not redial a
/// restarting daemon in lockstep.
struct ReconnectOptions {
  /// Redial attempts per Reconnect (and op retries per RunWithReconnect).
  int max_attempts = 8;
  int initial_backoff_ms = 25;
  int max_backoff_ms = 2000;
  /// Each sleep is backoff × uniform[1 − jitter, 1].
  double jitter = 0.5;
  /// Seed of the deterministic jitter PRNG (tests pin it).
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string name = "streamshare_client";
  /// Per-request reply deadline (also the dial deadline).
  int timeout_ms = 30000;
  /// Connect-loop tuning (timeout_ms above overrides dial.timeout_ms).
  DialOptions dial;
  ReconnectOptions reconnect;
};

class ServeClient {
 public:
  explicit ServeClient(ClientOptions options);
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects and performs the Hello handshake. Reconnecting (after a
  /// daemon restart) keeps the accumulated results.
  Status Connect();
  void Close();

  /// Points the next Connect at a different port (a restarted daemon
  /// binds a fresh ephemeral port).
  void set_port(int port) { options_.port = port; }

  const HelloReply& hello() const { return hello_; }

  /// Registers a fresh continuous query. On Ok, the reply says whether
  /// admission control accepted it (`accepted` false = structured E6
  /// rejection, reject_reason says why — the connection stays usable).
  Result<SubscribeReply> Subscribe(const std::string& query_text,
                                   int64_t vq, uint8_t strategy = 2);

  /// Re-attaches to an already-installed query, resuming delivery at
  /// `resume_from` (use results(query_id).next_seq after a reconnect).
  Result<SubscribeReply> Attach(int64_t query_id, uint64_t resume_from);

  /// Registers a batch of fresh queries in one round trip: the daemon
  /// runs one Subscribe per entry, in order, and the reply carries the
  /// per-entry outcomes. A hard error (say, a parse error) fails the call;
  /// the entries before it stay installed.
  Result<SubscribeBatchReply> SubscribeBatch(
      const std::vector<ControlRequest::BatchEntry>& entries);

  /// Runs one background re-optimization pass on the daemon (at most
  /// `max_migrations` plan migrations; -1 = unbounded).
  Result<ReoptimizeReply> Reoptimize(int64_t max_migrations = -1);

  Status Unsubscribe(int64_t query_id);
  Result<RecoveryReply> FailPeer(int64_t peer);
  Result<RecoveryReply> CutLink(int64_t link_a, int64_t link_b);
  Result<StatsReply> Stats();
  /// Asks the daemon to feed `count` freshly generated items per stream
  /// and forward the resulting deliveries.
  Result<FeedReply> Feed(uint64_t count);
  Result<DrainReply> Drain(bool final_drain);
  /// Drops this connection's attachments but keeps the subscriptions
  /// installed server-side.
  Status Detach();

  /// Redials a daemon that dropped the connection (crash, restartable
  /// drain): closes, retries Connect under the ReconnectOptions backoff
  /// schedule, then re-attaches every query this client was serving at
  /// its results(id).next_seq — deliveries resume exactly where the
  /// accumulated observation ends. A query the recovered daemon no
  /// longer knows (NotFound) is dropped from the attachment set, not an
  /// error: the daemon's durable history is authoritative.
  Status Reconnect();

  /// Runs `op`, and on a connection-loss failure reconnects (with
  /// re-attachment) and retries it, up to reconnect.max_attempts times.
  /// Non-connection errors (rejections, invalid arguments) surface
  /// immediately. The op must be idempotent under retry — the verbs here
  /// are: re-attach resumes at next_seq, and AccumulateResult drops
  /// deliveries below it, so a retried call never double-counts.
  Status RunWithReconnect(const std::function<Status()>& op);

  /// Drains buffered RESULT frames without issuing a request (useful
  /// after Feed when deliveries may still be in flight). Waits up to
  /// `timeout_ms` for the first frame, then keeps reading while more
  /// arrive back-to-back.
  Status PollResults(int timeout_ms);

  /// Reads until the daemon's EOS (sent at drain), accumulating any
  /// remaining RESULT frames.
  Result<ServeEos> WaitEos(int timeout_ms);

  /// Accumulated deliveries of one query (zero observation if none).
  ClientQueryResults results(int64_t query_id) const;
  const std::map<int64_t, ClientQueryResults>& all_results() const {
    return results_;
  }

  /// Query ids this connection is serving (accepted Subscribe/Attach,
  /// minus Unsubscribe/Detach) — what Reconnect re-attaches.
  const std::set<int64_t>& attached() const { return attached_; }

 private:
  /// Sends one request and reads frames until its ACK, folding RESULT
  /// frames into results_ along the way.
  Result<ControlResponse> Call(const ControlRequest& request);
  Status AccumulateResult(const transport::Frame& frame);
  /// Next jittered sleep of the backoff schedule (deterministic PRNG).
  int NextBackoffMs(int* backoff_ms);

  ClientOptions options_;
  FrameConn conn_;
  HelloReply hello_;
  uint64_t next_request_id_ = 1;
  std::map<int64_t, ClientQueryResults> results_;
  std::set<int64_t> attached_;
  uint64_t jitter_state_ = 0;
};

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_CLIENT_H_
