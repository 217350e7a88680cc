#include "transport/flow.h"

#include <chrono>
#include <thread>

namespace streamshare::transport {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

}  // namespace

ChannelSender::ChannelSender(std::string label,
                             std::unique_ptr<PipeEnd> end,
                             FlowOptions options, FaultPlan faults)
    : label_(std::move(label)),
      end_(std::move(end)),
      options_(options),
      faults_(faults),
      credits_(options.initial_credits == 0 ? 1
                                            : options.initial_credits) {}

Status ChannelSender::AwaitCredit() {
  if (credits_ > 0) return Status::Ok();
  ++stats_.credit_stalls;
  Clock::time_point stall_start = Clock::now();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    int timeout_ms =
        options_.send_timeout_ms + attempt * options_.retry_backoff_ms;
    FrameType type;
    std::string body;
    Status status = end_->RecvFrame(&type, &body, timeout_ms);
    if (status.IsDeadlineExceeded()) {
      ++stats_.retries;
      continue;
    }
    if (!status.ok()) {
      stats_.credit_stall_ns += ElapsedNs(stall_start);
      return status.WithContext("channel " + label_);
    }
    if (type != FrameType::kCredit) {
      stats_.credit_stall_ns += ElapsedNs(stall_start);
      return Status::Internal("channel " + label_ +
                              ": non-CREDIT frame on the reverse path");
    }
    std::string_view view = body;
    uint64_t amount = 0;
    if (!GetVarint(&view, &amount) || amount == 0) {
      stats_.credit_stall_ns += ElapsedNs(stall_start);
      return Status::ParseError("channel " + label_ +
                                ": malformed CREDIT frame");
    }
    credits_ += amount;
    stats_.credit_stall_ns += ElapsedNs(stall_start);
    return Status::Ok();
  }
  stats_.credit_stall_ns += ElapsedNs(stall_start);
  ++stats_.deadline_failures;
  return Status::DeadlineExceeded(
      "channel " + label_ + ": no credit after " +
      std::to_string(options_.max_retries + 1) + " waits of " +
      std::to_string(options_.send_timeout_ms) +
      "ms+ — receiver stalled or gone");
}

Status ChannelSender::SendItem(uint64_t target,
                               std::string_view encoded_item,
                               const engine::latency::ItemStamp& stamp) {
  SS_RETURN_IF_ERROR(AwaitCredit());
  --credits_;
  uint64_t seq = next_seq_++;

  // Fault injection (DATA frames only); periods count from frame 1.
  if (faults_.drop_period != 0 && (seq + 1) % faults_.drop_period == 0) {
    ++stats_.faults_dropped;  // seq advanced: the receiver sees a gap
    return Status::Ok();
  }
  if (faults_.delay_period != 0 && (seq + 1) % faults_.delay_period == 0) {
    ++stats_.faults_delayed;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(faults_.delay_ms));
  }

  uint8_t version = kBaseWireVersion;
  std::string body;
  body.reserve(encoded_item.size() + 48);
  PutVarint(&body, seq);
  PutVarint(&body, target);
  if (stamp.stamped()) {
    // The v2 stamp extension, stateless per frame: the ingress tick is
    // delta-encoded against this frame's own send tick (small varint),
    // so an injected duplicate or drop cannot desynchronize decoding.
    version = kWireVersion;
    uint64_t send_tick = engine::latency::NowUs();
    uint64_t ingress_delta =
        send_tick > stamp.ingress_us ? send_tick - stamp.ingress_us : 0;
    PutVarint(&body, 1);  // flags, bit 0 = stamped
    PutVarint(&body, send_tick);
    PutVarint(&body, ingress_delta);
    PutVarint(&body, stamp.queue_us);
    PutVarint(&body, stamp.transport_us);
  }
  body.append(encoded_item);
  Status status = end_->SendFrame(FrameType::kData, body, version);
  if (!status.ok()) return status.WithContext("channel " + label_);
  ++stats_.frames_sent;
  if (faults_.duplicate_period != 0 &&
      (seq + 1) % faults_.duplicate_period == 0) {
    ++stats_.faults_duplicated;
    status = end_->SendFrame(FrameType::kData, body, version);
    if (!status.ok()) return status.WithContext("channel " + label_);
    ++stats_.frames_sent;
  }
  stats_.bytes_sent = end_->wire_bytes_sent();
  return Status::Ok();
}

Status ChannelSender::SendEos() {
  std::string body;
  PutVarint(&body, next_seq_);
  Status status = end_->SendFrame(FrameType::kEos, body);
  stats_.bytes_sent = end_->wire_bytes_sent();
  if (!status.ok()) return status.WithContext("channel " + label_);
  return Status::Ok();
}

Status ChannelSender::SendError(std::string_view message) {
  Status status = end_->SendFrame(FrameType::kError, message);
  stats_.bytes_sent = end_->wire_bytes_sent();
  if (!status.ok()) return status.WithContext("channel " + label_);
  return Status::Ok();
}

void ChannelSender::DrainUntilPeerClose() {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.send_timeout_ms);
  while (true) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return;
    FrameType type;
    std::string body;
    Status status =
        end_->RecvFrame(&type, &body, static_cast<int>(left.count()));
    if (!status.ok()) return;  // peer closed (the goal) or timed out
  }
}

ChannelReceiver::ChannelReceiver(std::string label,
                                 std::unique_ptr<PipeEnd> end,
                                 FlowOptions options, FaultPlan faults)
    : label_(std::move(label)),
      end_(std::move(end)),
      options_(options),
      faults_(faults) {}

Status ChannelReceiver::Recv(Incoming* out) {
  while (true) {
    FrameType type;
    std::string body;
    uint8_t version = kBaseWireVersion;
    Status status =
        end_->RecvFrame(&type, &body, /*timeout_ms=*/-1, &version);
    if (!status.ok()) return status.WithContext("channel " + label_);
    std::string_view view = body;
    switch (type) {
      case FrameType::kData: {
        uint64_t seq = 0, target = 0;
        if (!GetVarint(&view, &seq) || !GetVarint(&view, &target)) {
          return Status::ParseError("channel " + label_ +
                                    ": malformed DATA frame");
        }
        if (seq < expected_seq_) {  // retransmit or injected duplicate
          ++stats_.duplicates_discarded;
          continue;
        }
        if (seq > expected_seq_) {
          return Status::Unavailable(
              "channel " + label_ + ": frame loss detected (expected seq " +
              std::to_string(expected_seq_) + ", got " +
              std::to_string(seq) + ")");
        }
        out->stamp = engine::latency::ItemStamp{};
        if (version >= kWireVersion) {
          uint64_t flags = 0, send_tick = 0, ingress_delta = 0;
          uint64_t queue_us = 0, transport_us = 0;
          if (!GetVarint(&view, &flags) || !GetVarint(&view, &send_tick) ||
              !GetVarint(&view, &ingress_delta) ||
              !GetVarint(&view, &queue_us) ||
              !GetVarint(&view, &transport_us)) {
            return Status::ParseError("channel " + label_ +
                                      ": malformed DATA stamp extension");
          }
          if ((flags & 1) != 0) {
            uint64_t now = engine::latency::NowUs();
            out->stamp.ingress_us =
                send_tick > ingress_delta ? send_tick - ingress_delta : 1;
            out->stamp.queue_us = queue_us;
            // This hop's wire time; both ends read the one steady
            // clock, so the send tick compares directly.
            out->stamp.transport_us =
                transport_us + (now > send_tick ? now - send_tick : 0);
          }
        }
        ++expected_seq_;
        ++stats_.items_delivered;
        out->type = FrameType::kData;
        out->target = target;
        out->item_bytes.assign(view);
        return Status::Ok();
      }
      case FrameType::kEos: {
        uint64_t total = 0;
        if (!GetVarint(&view, &total)) {
          return Status::ParseError("channel " + label_ +
                                    ": malformed EOS frame");
        }
        if (total != expected_seq_) {
          return Status::Unavailable(
              "channel " + label_ + ": frame loss detected (" +
              std::to_string(expected_seq_) + " of " +
              std::to_string(total) + " DATA frames arrived)");
        }
        out->type = FrameType::kEos;
        return Status::Ok();
      }
      case FrameType::kError: {
        out->type = FrameType::kError;
        out->error.assign(body);
        return Status::Ok();
      }
      case FrameType::kCredit:
        return Status::Internal("channel " + label_ +
                                ": CREDIT frame on the forward path");
      case FrameType::kControl:
      case FrameType::kControlAck:
      case FrameType::kResult:
        // Serve-plane frames never flow on a data channel.
        return Status::Internal("channel " + label_ +
                                ": serve-plane frame on a data channel");
    }
  }
}

void ChannelReceiver::GrantCredit(uint64_t count) {
  ++credit_frames_;
  if (faults_.credit_drop_period != 0 &&
      credit_frames_ % faults_.credit_drop_period == 0) {
    // Swallow the grant: the sender must survive via timeout/retry and,
    // when no later grant arrives, fail with DeadlineExceeded — not hang.
    ++stats_.faults_credits_dropped;
    return;
  }
  std::string body;
  PutVarint(&body, count);
  // A failed grant means the sender is gone; it has its own error path.
  end_->SendFrame(FrameType::kCredit, body).ok();
}

}  // namespace streamshare::transport
