#include "serve/client.h"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "engine/codec.h"
#include "engine/latency.h"
#include "engine/operator.h"
#include "xml/xml_node.h"

namespace streamshare::serve {

namespace {

using engine::latency::NowUs;

// The failures a reconnect can heal: the peer vanished (EOF, refused,
// reset — Unavailable) or the socket broke mid-request (errno paths
// surface as Internal). Structured rejections keep their codes and are
// never retried.
bool IsConnectionLoss(const Status& status) {
  return status.IsUnavailable() || status.IsInternal();
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

ServeClient::ServeClient(ClientOptions options)
    : options_(std::move(options)) {
  jitter_state_ = options_.reconnect.jitter_seed;
}

Status ServeClient::Connect() {
  DialOptions dial = options_.dial;
  dial.timeout_ms = options_.timeout_ms;
  SS_ASSIGN_OR_RETURN(conn_, ConnectTcp(options_.host, options_.port, dial));
  ControlRequest hello;
  hello.verb = Verb::kHello;
  hello.protocol = kServeProtocolVersion;
  hello.client_name = options_.name;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(hello));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  SS_ASSIGN_OR_RETURN(hello_, DecodeHelloReply(response.payload));
  return Status::Ok();
}

void ServeClient::Close() { conn_.Close(); }

Result<SubscribeReply> ServeClient::Subscribe(const std::string& query_text,
                                              int64_t vq,
                                              uint8_t strategy) {
  ControlRequest request;
  request.verb = Verb::kSubscribe;
  request.query_text = query_text;
  request.vq = vq;
  request.strategy = strategy;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  SS_ASSIGN_OR_RETURN(SubscribeReply reply,
                      DecodeSubscribeReply(response.payload));
  if (reply.accepted) attached_.insert(reply.query_id);
  return reply;
}

Result<SubscribeReply> ServeClient::Attach(int64_t query_id,
                                           uint64_t resume_from) {
  ControlRequest request;
  request.verb = Verb::kSubscribe;
  request.attach_query_plus1 = static_cast<uint64_t>(query_id) + 1;
  request.resume_from = resume_from;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  SS_ASSIGN_OR_RETURN(SubscribeReply reply,
                      DecodeSubscribeReply(response.payload));
  if (reply.accepted) attached_.insert(reply.query_id);
  return reply;
}

Result<SubscribeBatchReply> ServeClient::SubscribeBatch(
    const std::vector<ControlRequest::BatchEntry>& entries) {
  ControlRequest request;
  request.verb = Verb::kSubscribeBatch;
  request.batch = entries;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  SS_ASSIGN_OR_RETURN(SubscribeBatchReply reply,
                      DecodeSubscribeBatchReply(response.payload));
  for (const SubscribeReply& entry : reply.entries) {
    if (entry.accepted) attached_.insert(entry.query_id);
  }
  return reply;
}

Result<ReoptimizeReply> ServeClient::Reoptimize(int64_t max_migrations) {
  ControlRequest request;
  request.verb = Verb::kReoptimize;
  request.max_migrations = max_migrations;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  return DecodeReoptimizeReply(response.payload);
}

Status ServeClient::Unsubscribe(int64_t query_id) {
  ControlRequest request;
  request.verb = Verb::kUnsubscribe;
  request.query_id = query_id;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  Status acked = ResponseStatus(response);
  if (acked.ok()) attached_.erase(query_id);
  return acked;
}

Result<RecoveryReply> ServeClient::FailPeer(int64_t peer) {
  ControlRequest request;
  request.verb = Verb::kFailPeer;
  request.peer = peer;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  return DecodeRecoveryReply(response.payload);
}

Result<RecoveryReply> ServeClient::CutLink(int64_t link_a, int64_t link_b) {
  ControlRequest request;
  request.verb = Verb::kCutLink;
  request.link_a = link_a;
  request.link_b = link_b;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  return DecodeRecoveryReply(response.payload);
}

Result<StatsReply> ServeClient::Stats() {
  ControlRequest request;
  request.verb = Verb::kStats;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  return DecodeStatsReply(response.payload);
}

Result<FeedReply> ServeClient::Feed(uint64_t count) {
  ControlRequest request;
  request.verb = Verb::kFeed;
  request.feed_items = count;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  return DecodeFeedReply(response.payload);
}

Result<DrainReply> ServeClient::Drain(bool final_drain) {
  ControlRequest request;
  request.verb = Verb::kDrain;
  request.final_drain = final_drain;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  return DecodeDrainReply(response.payload);
}

Status ServeClient::Detach() {
  ControlRequest request;
  request.verb = Verb::kDetach;
  SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
  Status acked = ResponseStatus(response);
  if (acked.ok()) attached_.clear();
  return acked;
}

int ServeClient::NextBackoffMs(int* backoff_ms) {
  const ReconnectOptions& r = options_.reconnect;
  int base = *backoff_ms;
  *backoff_ms = std::min(base * 2, std::max(1, r.max_backoff_ms));
  double jitter = std::min(std::max(r.jitter, 0.0), 1.0);
  // uniform in [1 - jitter, 1]
  double u = static_cast<double>(SplitMix64(&jitter_state_) >> 11) /
             static_cast<double>(1ull << 53);
  double scale = 1.0 - jitter * u;
  return std::max(1, static_cast<int>(base * scale));
}

Status ServeClient::Reconnect() {
  Close();
  int backoff_ms = std::max(1, options_.reconnect.initial_backoff_ms);
  Status last = Status::Unavailable("reconnect never attempted");
  for (int attempt = 0; attempt < options_.reconnect.max_attempts;
       ++attempt) {
    if (attempt > 0) ::poll(nullptr, 0, NextBackoffMs(&backoff_ms));
    last = Connect();
    if (!last.ok()) {
      if (IsConnectionLoss(last)) continue;
      return last;
    }
    // Re-attach everything this client was serving, each resuming at
    // the first delivery the accumulated observation does not hold.
    std::set<int64_t> attached = attached_;
    bool lost_mid_attach = false;
    for (int64_t query_id : attached) {
      Result<SubscribeReply> reply =
          Attach(query_id, results(query_id).next_seq);
      if (reply.ok()) continue;
      if (reply.status().IsNotFound()) {
        // The recovered daemon has no such query (it was never acked
        // durable); our attachment claim is stale, not the daemon.
        attached_.erase(query_id);
        continue;
      }
      last = reply.status();
      if (IsConnectionLoss(last)) {
        lost_mid_attach = true;
        break;
      }
      return last;
    }
    if (lost_mid_attach) {
      Close();
      continue;
    }
    return Status::Ok();
  }
  return Status::Unavailable(
      "reconnect gave up after " +
      std::to_string(options_.reconnect.max_attempts) +
      " attempts: " + last.message());
}

Status ServeClient::RunWithReconnect(const std::function<Status()>& op) {
  Status last = op();
  for (int attempt = 0;
       !last.ok() && IsConnectionLoss(last) &&
       attempt < options_.reconnect.max_attempts;
       ++attempt) {
    SS_RETURN_IF_ERROR(Reconnect());
    last = op();
  }
  return last;
}

Status ServeClient::PollResults(int timeout_ms) {
  int wait_ms = timeout_ms;
  while (true) {
    transport::Frame frame;
    Result<ConnEvent> event = conn_.RecvFrame(&frame, wait_ms);
    if (!event.ok()) {
      // Silence means everything in flight has arrived.
      if (event.status().IsDeadlineExceeded()) return Status::Ok();
      return event.status();
    }
    if (*event == ConnEvent::kUnsupported) continue;
    if (frame.type == transport::FrameType::kResult) {
      SS_RETURN_IF_ERROR(AccumulateResult(frame));
      // Once deliveries are flowing, the rest follow back-to-back.
      wait_ms = 50;
      continue;
    }
    return Status::Internal("unexpected frame type " +
                            std::to_string(frame.raw_type) +
                            " while polling results");
  }
}

Result<ServeEos> ServeClient::WaitEos(int timeout_ms) {
  while (true) {
    transport::Frame frame;
    SS_ASSIGN_OR_RETURN(ConnEvent event,
                        conn_.RecvFrame(&frame, timeout_ms));
    if (event == ConnEvent::kUnsupported) continue;
    if (frame.type == transport::FrameType::kResult) {
      SS_RETURN_IF_ERROR(AccumulateResult(frame));
      continue;
    }
    if (frame.type == transport::FrameType::kEos) {
      return DecodeServeEos(frame.body);
    }
    return Status::Internal("unexpected frame type " +
                            std::to_string(frame.raw_type) +
                            " while waiting for EOS");
  }
}

ClientQueryResults ServeClient::results(int64_t query_id) const {
  auto it = results_.find(query_id);
  return it == results_.end() ? ClientQueryResults() : it->second;
}

Result<ControlResponse> ServeClient::Call(const ControlRequest& request) {
  ControlRequest stamped = request;
  stamped.request_id = next_request_id_++;
  SS_RETURN_IF_ERROR(conn_.QueueFrame(transport::FrameType::kControl,
                                      EncodeRequest(stamped)));
  SS_RETURN_IF_ERROR(conn_.FlushAll(options_.timeout_ms));
  while (true) {
    transport::Frame frame;
    SS_ASSIGN_OR_RETURN(ConnEvent event,
                        conn_.RecvFrame(&frame, options_.timeout_ms));
    if (event == ConnEvent::kUnsupported) {
      // A daemon never initiates traffic we can't decode; drop it.
      continue;
    }
    if (frame.type == transport::FrameType::kResult) {
      // Deliveries interleave freely with the ACK we are waiting for.
      SS_RETURN_IF_ERROR(AccumulateResult(frame));
      continue;
    }
    if (frame.type == transport::FrameType::kControlAck) {
      SS_ASSIGN_OR_RETURN(ControlResponse response,
                          DecodeResponse(frame.body));
      if (response.request_id != 0 &&
          response.request_id != stamped.request_id) {
        return Status::Internal(
            "response for request " +
            std::to_string(response.request_id) + " while waiting on " +
            std::to_string(stamped.request_id));
      }
      return response;
    }
    if (frame.type == transport::FrameType::kEos) {
      SS_ASSIGN_OR_RETURN(ServeEos eos, DecodeServeEos(frame.body));
      return Status::Unavailable(
          eos.final_drain ? "daemon drained (final)"
                          : "daemon drained (restartable)");
    }
    return Status::Internal("unexpected frame type " +
                            std::to_string(frame.raw_type) +
                            " while waiting for an ACK");
  }
}

Status ServeClient::AccumulateResult(const transport::Frame& frame) {
  uint64_t received_us = NowUs();
  SS_ASSIGN_OR_RETURN(ResultFrame result, DecodeResultFrame(frame.body));
  ClientQueryResults& query = results_[result.query_id];
  if (result.seq < query.next_seq) {
    // Re-delivery of a sequence this observation already holds (a
    // reconnect that resumed below next_seq). The sink history is
    // deterministic and append-only, so the bytes are identical to what
    // was counted the first time.
    return Status::Ok();
  }
  // Every RESULT body is self-contained: it decodes on its own.
  engine::ItemDecoder decoder;
  std::unique_ptr<xml::XmlNode> item;
  SS_RETURN_IF_ERROR(decoder.Decode(result.item, &item));
  // Mirror SinkOp::ProcessBatch exactly so live observations diff cleanly
  // against a batch run's sink.
  query.items += 1;
  query.bytes += item->SerializedSize();
  query.content_hash += engine::HashItemContent(*item);
  if (result.seq + 1 > query.next_seq) query.next_seq = result.seq + 1;
  if (result.stamped) {
    uint64_t wire_us =
        received_us > result.send_us ? received_us - result.send_us : 0;
    query.residency_us.push_back(result.residency_us);
    query.total_us.push_back(result.residency_us + result.transport_us +
                             wire_us);
  }
  return Status::Ok();
}

}  // namespace streamshare::serve
