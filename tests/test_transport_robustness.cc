// Transport robustness: codec round-trips on adversarial item shapes
// (deep nesting, empty text, many distinct names past the dictionary cap,
// large payloads), the decoder's depth safety rail, and flow control when
// a FaultPlan swallows CREDIT frames — including the dropped-final-CREDIT
// case, where the sender must fail with DeadlineExceeded, not hang.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/codec.h"
#include "transport/flow.h"
#include "transport/tcp.h"
#include "xml/xml_node.h"

namespace streamshare {
namespace {

using transport::ChannelReceiver;
using transport::ChannelSender;
using transport::FaultPlan;
using transport::FlowOptions;
using transport::FrameType;
using engine::ItemDecoder;
using engine::ItemEncoder;
using transport::PipePair;
using transport::TcpTransport;

std::unique_ptr<xml::XmlNode> RoundTrip(const xml::XmlNode& node,
                                        ItemEncoder* encoder,
                                        ItemDecoder* decoder) {
  std::string wire;
  encoder->Encode(node, &wire);
  std::unique_ptr<xml::XmlNode> decoded;
  Status status = decoder->Decode(wire, &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return decoded;
}

// --- Codec round-trips on adversarial shapes ------------------------------

TEST(CodecRobustnessTest, DeeplyNestedItemRoundTrips) {
  // A chain nested well past any realistic schema but inside the decoder's
  // safety rail.
  constexpr size_t kDepth = engine::kMaxDecodeDepth - 1;
  xml::XmlNode root("d0");
  xml::XmlNode* tip = &root;
  for (size_t i = 1; i < kDepth; ++i) {
    tip = tip->AddChild("d" + std::to_string(i % 7));
  }
  tip->set_text("bottom");

  ItemEncoder encoder;
  ItemDecoder decoder;
  auto decoded = RoundTrip(root, &encoder, &decoder);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->Equals(root));
}

TEST(CodecRobustnessTest, OverDeepItemFailsToDecodeCleanly) {
  constexpr size_t kDepth = engine::kMaxDecodeDepth + 8;
  xml::XmlNode root("d");
  xml::XmlNode* tip = &root;
  for (size_t i = 1; i < kDepth; ++i) tip = tip->AddChild("d");

  ItemEncoder encoder;
  std::string wire;
  encoder.Encode(root, &wire);
  ItemDecoder decoder;
  std::unique_ptr<xml::XmlNode> decoded;
  Status status = decoder.Decode(wire, &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

TEST(CodecRobustnessTest, EmptyTextAndEmptyElementsRoundTrip) {
  xml::XmlNode root("photon");
  root.AddChild("empty");                     // no text, no children
  root.AddChild("blank")->set_text("");       // explicitly empty text
  root.AddChild("en")->set_text("1.25");
  xml::XmlNode* nested = root.AddChild("coord");
  nested->AddChild("cel");                    // empty interior node

  ItemEncoder encoder;
  ItemDecoder decoder;
  auto decoded = RoundTrip(root, &encoder, &decoder);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->Equals(root));
}

TEST(CodecRobustnessTest, NamesPastDictionaryCapStillRoundTrip) {
  // More distinct names than the per-link dictionary holds: the overflow
  // names travel literally every time, but stay correct, and both ends
  // agree on the dictionary size.
  constexpr size_t kNames = engine::kMaxDictionaryNames + 64;
  ItemEncoder encoder;
  ItemDecoder decoder;

  // Spread the names over several items so the cap is crossed mid-stream.
  constexpr size_t kPerItem = 512;
  size_t next_name = 0;
  while (next_name < kNames) {
    xml::XmlNode item("batch");
    for (size_t i = 0; i < kPerItem && next_name < kNames; ++i) {
      item.AddChild("name_" + std::to_string(next_name++))
          ->set_text(std::to_string(next_name));
    }
    auto decoded = RoundTrip(item, &encoder, &decoder);
    ASSERT_NE(decoded, nullptr);
    ASSERT_TRUE(decoded->Equals(item));
  }
  EXPECT_EQ(encoder.dictionary_size(), engine::kMaxDictionaryNames);
  EXPECT_EQ(decoder.dictionary_size(), engine::kMaxDictionaryNames);

  // Repeats of both dictionary and overflow names still decode.
  xml::XmlNode again("batch");
  again.AddChild("name_0")->set_text("in-dictionary");
  again.AddChild("name_" + std::to_string(kNames - 1))
      ->set_text("overflowed");
  auto decoded = RoundTrip(again, &encoder, &decoder);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->Equals(again));
}

TEST(CodecRobustnessTest, LargePayloadRoundTripsOverChannel) {
  // A maximal single item — megabyte text blob plus a wide fanout —
  // through encode → flow control → decode, end to end.
  xml::XmlNode big("blob");
  std::string text(1 << 20, 'x');
  for (size_t i = 0; i < text.size(); i += 4096) text[i] = 'y';
  big.AddChild("payload")->set_text(text);
  for (int i = 0; i < 1000; ++i) {
    big.AddChild("row")->set_text(std::to_string(i));
  }

  TcpTransport transport;
  PipePair pair;
  ASSERT_TRUE(transport.CreatePipe("big", &pair).ok());
  ChannelSender sender("big", std::move(pair.ends[0]), FlowOptions{}, {});
  ChannelReceiver receiver("big", std::move(pair.ends[1]), FlowOptions{});

  ItemEncoder encoder;
  std::string wire;
  encoder.Encode(big, &wire);
  // The frame outgrows the socket buffers, so it is sent from its own
  // thread while this one receives.
  Status send_status;
  std::thread sender_thread([&] {
    send_status = sender.SendItem(3, wire);
    if (send_status.ok()) send_status = sender.SendEos();
  });
  ChannelReceiver::Incoming incoming;
  ChannelReceiver::Incoming eos;
  Status recv_status = receiver.Recv(&incoming);
  Status eos_status = recv_status.ok() ? receiver.Recv(&eos) : recv_status;
  sender_thread.join();

  ASSERT_TRUE(send_status.ok()) << send_status.ToString();
  ASSERT_TRUE(recv_status.ok()) << recv_status.ToString();
  ASSERT_EQ(incoming.type, FrameType::kData);
  EXPECT_EQ(incoming.target, 3u);
  ItemDecoder decoder;
  std::unique_ptr<xml::XmlNode> decoded;
  Status status = decoder.Decode(incoming.item_bytes, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(decoded->Equals(big));
  ASSERT_TRUE(eos_status.ok()) << eos_status.ToString();
  EXPECT_EQ(eos.type, FrameType::kEos);
}

// --- Credit-drop fault ----------------------------------------------------

TEST(CreditFaultTest, DroppedFinalCreditFailsWithDeadlineNotHang) {
  // Credit window of 1: every item needs the credit from its predecessor.
  // The receiver drops the grant for the final in-flight item, so the
  // sender's next SendItem must exhaust its retries and fail with
  // DeadlineExceeded — bounded, visible, no hang.
  TcpTransport transport;
  PipePair pair;
  ASSERT_TRUE(transport.CreatePipe("fault", &pair).ok());
  FlowOptions options;
  options.initial_credits = 1;
  options.send_timeout_ms = 20;
  options.max_retries = 2;
  options.retry_backoff_ms = 1;
  FaultPlan faults;
  faults.credit_drop_period = 3;  // grants 1, 2 pass; grant 3 vanishes
  ChannelSender sender("fault", std::move(pair.ends[0]), options, {});
  ChannelReceiver receiver("fault", std::move(pair.ends[1]), options,
                           faults);

  std::vector<Status> send_status(4);
  std::thread sender_thread([&] {
    for (int i = 0; i < 4; ++i) {
      send_status[i] = sender.SendItem(0, "item-" + std::to_string(i));
    }
  });
  // Receive the three items that can arrive, granting after each — the
  // third grant is the one the fault swallows.
  for (int i = 0; i < 3; ++i) {
    ChannelReceiver::Incoming incoming;
    Status status = receiver.Recv(&incoming);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(incoming.type, FrameType::kData);
    receiver.GrantCredit(1);
  }
  sender_thread.join();

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(send_status[i].ok()) << send_status[i].ToString();
  }
  EXPECT_EQ(send_status[3].code(), StatusCode::kDeadlineExceeded)
      << send_status[3].ToString();
  EXPECT_EQ(receiver.stats().faults_credits_dropped, 1u);
  EXPECT_GE(sender.stats().retries, 1u);
}

TEST(CreditFaultTest, OccasionalCreditLossIsAbsorbedByLaterGrants) {
  // With a wider window, a periodically dropped CREDIT only thins the
  // window; later grants keep the stream moving and everything arrives.
  TcpTransport transport;
  PipePair pair;
  ASSERT_TRUE(transport.CreatePipe("thin", &pair).ok());
  FlowOptions options;
  options.initial_credits = 8;
  FaultPlan faults;
  faults.credit_drop_period = 5;
  ChannelSender sender("thin", std::move(pair.ends[0]), options, {});
  ChannelReceiver receiver("thin", std::move(pair.ends[1]), options, faults);

  constexpr int kItems = 40;
  std::vector<std::string> received;
  Status final_status;
  std::thread receiver_thread([&] {
    for (;;) {
      ChannelReceiver::Incoming incoming;
      Status status = receiver.Recv(&incoming);
      if (!status.ok()) {
        final_status = status;
        return;
      }
      if (incoming.type != FrameType::kData) return;
      received.push_back(incoming.item_bytes);
      receiver.GrantCredit(1);
    }
  });
  for (int i = 0; i < kItems; ++i) {
    Status status = sender.SendItem(0, "item-" + std::to_string(i));
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  ASSERT_TRUE(sender.SendEos().ok());
  receiver_thread.join();

  ASSERT_TRUE(final_status.ok()) << final_status.ToString();
  ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
  EXPECT_EQ(receiver.stats().faults_credits_dropped,
            static_cast<uint64_t>(kItems / 5));
}

}  // namespace
}  // namespace streamshare
