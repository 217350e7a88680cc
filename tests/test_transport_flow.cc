// Transport pipes and the credit-based flow-control protocol: basic
// send/recv and close semantics on localhost TCP, in-order delivery
// between two threads, credit starvation surfacing as DeadlineExceeded,
// and each injected fault producing its documented symptom (drop → data
// loss error, duplicate → discarded and counted, delay → just late).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "transport/flow.h"
#include "transport/tcp.h"
#include "transport/wire.h"

namespace streamshare {
namespace {

using transport::ChannelReceiver;
using transport::ChannelSender;
using transport::FaultPlan;
using transport::FlowOptions;
using transport::FrameType;
using transport::PipePair;
using transport::TcpTransport;
using transport::Transport;

// --- PipeEnd basics --------------------------------------------------------

TEST(PipeEndTest, FramesCrossInBothDirections) {
  TcpTransport transport;
  PipePair pair;
  ASSERT_TRUE(transport.CreatePipe("t", &pair).ok());

  ASSERT_TRUE(pair.ends[0]->SendFrame(FrameType::kData, "ping").ok());
  FrameType type;
  std::string body;
  ASSERT_TRUE(pair.ends[1]->RecvFrame(&type, &body, 2000).ok());
  EXPECT_EQ(type, FrameType::kData);
  EXPECT_EQ(body, "ping");

  ASSERT_TRUE(pair.ends[1]->SendFrame(FrameType::kCredit, "pong").ok());
  ASSERT_TRUE(pair.ends[0]->RecvFrame(&type, &body, 2000).ok());
  EXPECT_EQ(type, FrameType::kCredit);
  EXPECT_EQ(body, "pong");
}

TEST(PipeEndTest, RecvTimesOutOnSilence) {
  TcpTransport transport;
  PipePair pair;
  ASSERT_TRUE(transport.CreatePipe("t", &pair).ok());
  FrameType type;
  std::string body;
  Status status = pair.ends[1]->RecvFrame(&type, &body, 20);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
}

TEST(PipeEndTest, PeerCloseDrainsThenReportsUnavailable) {
  TcpTransport transport;
  PipePair pair;
  ASSERT_TRUE(transport.CreatePipe("t", &pair).ok());
  ASSERT_TRUE(pair.ends[0]->SendFrame(FrameType::kData, "last").ok());
  pair.ends[0]->Close();

  // The queued frame still arrives, then the close is visible.
  FrameType type;
  std::string body;
  ASSERT_TRUE(pair.ends[1]->RecvFrame(&type, &body, 2000).ok());
  EXPECT_EQ(body, "last");
  Status status = pair.ends[1]->RecvFrame(&type, &body, 2000);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
}

TEST(TcpPipeTest, ReportsWireBytes) {
  TcpTransport transport;
  PipePair pair;
  ASSERT_TRUE(transport.CreatePipe("t", &pair).ok());
  ASSERT_TRUE(pair.ends[0]->SendFrame(FrameType::kData, "0123456789").ok());
  FrameType type;
  std::string body;
  ASSERT_TRUE(pair.ends[1]->RecvFrame(&type, &body, 2000).ok());
  // length prefix (1) + version (1) + type (1) + 10 body bytes.
  EXPECT_EQ(pair.ends[0]->wire_bytes_sent(), 13u);
  EXPECT_EQ(pair.ends[1]->wire_bytes_sent(), 0u);
}

// --- Credit protocol ------------------------------------------------------

struct Channel {
  std::unique_ptr<ChannelSender> sender;
  std::unique_ptr<ChannelReceiver> receiver;
};

Channel MakeChannel(Transport* transport, FlowOptions options,
                    FaultPlan faults = {}) {
  PipePair pair;
  Status status = transport->CreatePipe("chan", &pair);
  EXPECT_TRUE(status.ok()) << status.ToString();
  Channel channel;
  channel.sender = std::make_unique<ChannelSender>(
      "chan", std::move(pair.ends[0]), options, faults);
  channel.receiver = std::make_unique<ChannelReceiver>(
      "chan", std::move(pair.ends[1]), options);
  return channel;
}

/// Runs the receive loop until EOS/ERROR, granting one credit per item —
/// the same cadence the runner uses after a LinkQueue push.
struct ReceiveResult {
  std::vector<std::pair<uint64_t, std::string>> items;
  Status final_status = Status::Ok();
};

ReceiveResult DrainChannel(ChannelReceiver* receiver) {
  ReceiveResult result;
  for (;;) {
    ChannelReceiver::Incoming incoming;
    Status status = receiver->Recv(&incoming);
    if (!status.ok()) {
      result.final_status = status;
      return result;
    }
    if (incoming.type == FrameType::kEos) return result;
    if (incoming.type == FrameType::kError) {
      result.final_status = Status::Internal(incoming.error);
      return result;
    }
    result.items.emplace_back(incoming.target, incoming.item_bytes);
    receiver->GrantCredit(1);
  }
}

TEST(FlowControlTest, DeliversInOrderWithSmallCreditWindow) {
  TcpTransport transport;
  FlowOptions options;
  options.initial_credits = 4;  // force many credit round trips
  Channel channel = MakeChannel(&transport, options);

  constexpr int kItems = 200;
  ReceiveResult result;
  std::thread receiver_thread(
      [&] { result = DrainChannel(channel.receiver.get()); });
  for (int i = 0; i < kItems; ++i) {
    Status status = channel.sender->SendItem(
        static_cast<uint64_t>(i % 7), "item-" + std::to_string(i));
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  ASSERT_TRUE(channel.sender->SendEos().ok());
  receiver_thread.join();

  ASSERT_TRUE(result.final_status.ok()) << result.final_status.ToString();
  ASSERT_EQ(result.items.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(result.items[i].first, static_cast<uint64_t>(i % 7));
    EXPECT_EQ(result.items[i].second, "item-" + std::to_string(i));
  }
  const transport::ChannelStats& sent = channel.sender->stats();
  EXPECT_EQ(sent.frames_sent, static_cast<uint64_t>(kItems));
  EXPECT_GT(sent.credit_stalls, 0u);  // window of 4 over 200 items
  EXPECT_GT(sent.bytes_sent, 0u);
  EXPECT_EQ(channel.receiver->stats().items_delivered,
            static_cast<uint64_t>(kItems));
}

TEST(FlowControlTest, CreditStarvationHitsDeadline) {
  TcpTransport transport;
  FlowOptions options;
  options.initial_credits = 1;
  options.send_timeout_ms = 10;
  options.max_retries = 1;
  options.retry_backoff_ms = 1;
  Channel channel = MakeChannel(&transport, options);

  // Nobody is receiving, so the second item never gets a credit.
  ASSERT_TRUE(channel.sender->SendItem(0, "first").ok());
  Status status = channel.sender->SendItem(0, "second");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_GE(channel.sender->stats().retries, 1u);
}

TEST(FlowControlTest, DroppedFrameSurfacesAsDataLoss) {
  TcpTransport transport;
  FaultPlan faults;
  faults.drop_period = 3;  // drop every 3rd DATA frame
  Channel channel = MakeChannel(&transport, {}, faults);

  ReceiveResult result;
  std::thread receiver_thread(
      [&] { result = DrainChannel(channel.receiver.get()); });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(channel.sender->SendItem(0, "x").ok());
  }
  ASSERT_TRUE(channel.sender->SendEos().ok());
  receiver_thread.join();

  EXPECT_EQ(result.final_status.code(), StatusCode::kUnavailable)
      << result.final_status.ToString();
  EXPECT_GT(channel.sender->stats().faults_dropped, 0u);
}

TEST(FlowControlTest, DuplicatesAreDiscardedAndCounted) {
  TcpTransport transport;
  FaultPlan faults;
  faults.duplicate_period = 2;  // every 2nd DATA frame goes out twice
  Channel channel = MakeChannel(&transport, {}, faults);

  constexpr int kItems = 20;
  ReceiveResult result;
  std::thread receiver_thread(
      [&] { result = DrainChannel(channel.receiver.get()); });
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(
        channel.sender->SendItem(0, "item-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(channel.sender->SendEos().ok());
  receiver_thread.join();

  ASSERT_TRUE(result.final_status.ok()) << result.final_status.ToString();
  ASSERT_EQ(result.items.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(result.items[i].second, "item-" + std::to_string(i));
  }
  EXPECT_EQ(channel.sender->stats().faults_duplicated,
            static_cast<uint64_t>(kItems / 2));
  EXPECT_EQ(channel.receiver->stats().duplicates_discarded,
            static_cast<uint64_t>(kItems / 2));
}

TEST(FlowControlTest, DelayedFramesStillArrive) {
  TcpTransport transport;
  FaultPlan faults;
  faults.delay_period = 4;
  faults.delay_ms = 5;
  Channel channel = MakeChannel(&transport, {}, faults);

  constexpr int kItems = 12;
  ReceiveResult result;
  std::thread receiver_thread(
      [&] { result = DrainChannel(channel.receiver.get()); });
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(
        channel.sender->SendItem(0, "item-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(channel.sender->SendEos().ok());
  receiver_thread.join();

  ASSERT_TRUE(result.final_status.ok()) << result.final_status.ToString();
  ASSERT_EQ(result.items.size(), static_cast<size_t>(kItems));
  EXPECT_EQ(channel.sender->stats().faults_delayed,
            static_cast<uint64_t>(kItems / 4));
}

TEST(FlowControlTest, ErrorFramePropagatesMessage) {
  TcpTransport transport;
  Channel channel = MakeChannel(&transport, {});
  ASSERT_TRUE(channel.sender->SendItem(2, "payload").ok());
  ASSERT_TRUE(channel.sender->SendError("upstream exploded").ok());

  ChannelReceiver::Incoming incoming;
  ASSERT_TRUE(channel.receiver->Recv(&incoming).ok());
  EXPECT_EQ(incoming.type, FrameType::kData);
  EXPECT_EQ(incoming.target, 2u);
  channel.receiver->GrantCredit(1);
  ASSERT_TRUE(channel.receiver->Recv(&incoming).ok());
  EXPECT_EQ(incoming.type, FrameType::kError);
  EXPECT_EQ(incoming.error, "upstream exploded");
}

}  // namespace
}  // namespace streamshare
