// Wire primitives and the binary item codec: varint and frame round
// trips, malformed-input rejection, dictionary behavior (repeats shrink,
// lockstep reset, one-sided reset detected), a property-style sweep of
// randomized trees — deep nesting, empty elements, many distinct names,
// large text — that must round-trip to byte-identical XML text, and
// round trips of adversarial item shapes (deep nesting up to the
// decoder's safety rail, names past the dictionary cap, a megabyte
// payload).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/codec.h"
#include "transport/wire.h"
#include "xml/xml_node.h"
#include "xml/xml_writer.h"

namespace streamshare {
namespace {

using transport::FrameType;
using engine::ItemDecoder;
using engine::ItemEncoder;

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             300,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             UINT64_MAX};
  for (uint64_t value : values) {
    std::string buffer;
    transport::PutVarint(&buffer, value);
    EXPECT_LE(buffer.size(), 10u);
    std::string_view view = buffer;
    uint64_t decoded = 0;
    ASSERT_TRUE(transport::GetVarint(&view, &decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(view.empty());
  }
}

TEST(VarintTest, RejectsTruncatedAndOverlongInput) {
  std::string buffer;
  transport::PutVarint(&buffer, UINT64_MAX);
  std::string_view truncated(buffer.data(), buffer.size() - 1);
  uint64_t value = 0;
  EXPECT_FALSE(transport::GetVarint(&truncated, &value));

  // Eleven continuation bytes cannot be a valid 64-bit varint.
  std::string overlong(11, '\x80');
  std::string_view view = overlong;
  EXPECT_FALSE(transport::GetVarint(&view, &value));
}

TEST(FrameTest, RoundTripsEveryType) {
  for (FrameType type : {FrameType::kEos, FrameType::kControl,
                         FrameType::kControlAck, FrameType::kResult}) {
    std::string buffer;
    transport::AppendFrame(&buffer, type, "payload");
    transport::Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(transport::ParseFrame(buffer, &frame, &consumed),
              transport::ParseResult::kFrame);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.body, "payload");
    EXPECT_EQ(consumed, buffer.size());
  }
}

TEST(FrameTest, PartialBufferNeedsMore) {
  std::string buffer;
  transport::AppendFrame(&buffer, FrameType::kResult, "some item bytes");
  transport::Frame frame;
  size_t consumed = 0;
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    EXPECT_EQ(transport::ParseFrame(std::string_view(buffer.data(), cut),
                                    &frame, &consumed),
              transport::ParseResult::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FrameTest, UnknownVersionOrTypeIsSkippableNotFatal) {
  // A well-framed frame we cannot dispatch (newer peer) must come back
  // kUnsupported with `consumed` covering the whole frame, so a receiver
  // can skip it, answer with a decodable error, and keep the connection.
  std::string good;
  transport::AppendFrame(&good, FrameType::kControl, "x");
  transport::Frame frame;
  size_t consumed = 0;

  std::string bad_version = good;
  bad_version[1] = static_cast<char>(transport::kWireVersion + 1);
  EXPECT_EQ(transport::ParseFrame(bad_version, &frame, &consumed),
            transport::ParseResult::kUnsupported);
  EXPECT_EQ(consumed, bad_version.size());
  EXPECT_EQ(frame.version, transport::kWireVersion + 1);

  std::string bad_type = good;
  bad_type[2] = 0x7f;
  consumed = 0;
  EXPECT_EQ(transport::ParseFrame(bad_type, &frame, &consumed),
            transport::ParseResult::kUnsupported);
  EXPECT_EQ(consumed, bad_type.size());
  EXPECT_EQ(frame.raw_type, 0x7f);

  // The type bytes of the retired DATA, CREDIT and ERROR frames are as
  // unknown as any other, and so is 0.
  for (uint8_t retired : {0, 1, 3, 4}) {
    std::string old_type = good;
    old_type[2] = static_cast<char>(retired);
    EXPECT_EQ(transport::ParseFrame(old_type, &frame, &consumed),
              transport::ParseResult::kUnsupported)
        << "type " << int{retired};
    EXPECT_EQ(frame.raw_type, retired);
  }

  // A frame following the unsupported one must still parse: the stream
  // survives the vocabulary mismatch.
  std::string mixed = bad_type + good;
  ASSERT_EQ(transport::ParseFrame(mixed, &frame, &consumed),
            transport::ParseResult::kUnsupported);
  mixed.erase(0, consumed);
  ASSERT_EQ(transport::ParseFrame(mixed, &frame, &consumed),
            transport::ParseResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kControl);
  EXPECT_EQ(frame.body, "x");
}

TEST(FrameTest, RejectsOversizedLength) {
  // A length prefix beyond the payload cap must be rejected before any
  // allocation happens.
  transport::Frame frame;
  size_t consumed = 0;
  std::string huge;
  transport::PutVarint(&huge, transport::kMaxFramePayload + 3);
  EXPECT_EQ(transport::ParseFrame(huge, &frame, &consumed),
            transport::ParseResult::kMalformed);
}

// --- Wire-format versioning (the v2 latency-stamp extension) ------------

TEST(FrameVersionTest, DefaultFramesAreByteIdenticalToPriorWire) {
  // A frame without the stamp extension must serialize exactly as wire
  // version 1 did before the extension existed: len varint, version byte
  // 1, type byte, body. Old decoders keep working on every frame the new
  // code emits without the extension (CONTROL, CONTROL_ACK, EOS).
  std::string frame;
  transport::AppendFrame(&frame, FrameType::kControl, "abc");
  std::string expected;
  transport::PutVarint(&expected, 3 + 2);
  expected.push_back(static_cast<char>(transport::kBaseWireVersion));
  expected.push_back(static_cast<char>(FrameType::kControl));
  expected += "abc";
  EXPECT_EQ(frame, expected);

  std::string explicit_v1;
  transport::AppendFrame(&explicit_v1, FrameType::kControl, "abc",
                         transport::kBaseWireVersion);
  EXPECT_EQ(explicit_v1, frame);
}

TEST(FrameVersionTest, BothVersionsRoundTripAndReportTheirVersion) {
  for (uint8_t version :
       {transport::kBaseWireVersion, transport::kWireVersion}) {
    std::string buffer;
    transport::AppendFrame(&buffer, FrameType::kResult, "payload", version);
    transport::Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(transport::ParseFrame(buffer, &frame, &consumed),
              transport::ParseResult::kFrame)
        << "version " << int{version};
    EXPECT_EQ(frame.version, version);
    EXPECT_EQ(frame.body, "payload");
    EXPECT_EQ(consumed, buffer.size());
  }
}

TEST(FrameVersionTest, PriorVersionFrameStillDecodes) {
  // A byte stream captured from the pre-extension wire (version byte 1)
  // must parse unchanged — mixed-version peers interoperate.
  std::string old_wire;
  transport::PutVarint(&old_wire, 2 + 7);
  old_wire.push_back(1);  // the literal pre-extension version byte
  old_wire.push_back(static_cast<char>(FrameType::kEos));
  old_wire += "oh dear";
  transport::Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(transport::ParseFrame(old_wire, &frame, &consumed),
            transport::ParseResult::kFrame);
  EXPECT_EQ(frame.version, transport::kBaseWireVersion);
  EXPECT_EQ(frame.type, FrameType::kEos);
  EXPECT_EQ(frame.body, "oh dear");
}

// --- Item codec ---------------------------------------------------------

std::unique_ptr<xml::XmlNode> Photon(int id) {
  auto photon = std::make_unique<xml::XmlNode>("photon");
  photon->AddLeaf("ra", std::to_string(180.0 + id));
  photon->AddLeaf("decl", std::to_string(-30.0 + id));
  photon->AddLeaf("energy", std::to_string(1000 + id));
  auto* obs = photon->AddChild("observation");
  obs->AddLeaf("telescope", "HESS");
  obs->AddLeaf("time", std::to_string(1234567 + id));
  return photon;
}

/// Round-trips one tree through the given encoder/decoder pair and
/// demands structural equality plus byte-identical compact XML text.
void ExpectRoundTrip(ItemEncoder* encoder, ItemDecoder* decoder,
                     const xml::XmlNode& tree) {
  std::string encoded;
  encoder->Encode(tree, &encoded);
  std::unique_ptr<xml::XmlNode> back;
  Status status = decoder->Decode(encoded, &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(tree.Equals(*back));
  EXPECT_EQ(xml::WriteCompact(tree), xml::WriteCompact(*back));
}

TEST(ItemCodecTest, RoundTripsTypicalItem) {
  ItemEncoder encoder;
  ItemDecoder decoder;
  ExpectRoundTrip(&encoder, &decoder, *Photon(1));
  EXPECT_EQ(encoder.dictionary_size(), decoder.dictionary_size());
  EXPECT_EQ(encoder.dictionary_size(), 7u);  // distinct names registered
}

TEST(ItemCodecTest, DictionaryShrinksRepeatedItems) {
  ItemEncoder encoder;
  ItemDecoder decoder;
  std::string first, second;
  encoder.Encode(*Photon(1), &first);
  encoder.Encode(*Photon(2), &second);
  // Same shape, same-length values: the second item references every
  // name by id (~1 byte each) instead of spelling it out.
  EXPECT_LT(second.size(), first.size());
  // And both stay decodable in order.
  std::unique_ptr<xml::XmlNode> a, b;
  ASSERT_TRUE(decoder.Decode(first, &a).ok());
  ASSERT_TRUE(decoder.Decode(second, &b).ok());
  EXPECT_TRUE(Photon(1)->Equals(*a));
  EXPECT_TRUE(Photon(2)->Equals(*b));
  // Binary form beats the XML text form even on the first item (no
  // closing tags, no entity escaping).
  EXPECT_LT(first.size(), xml::WriteCompact(*Photon(1)).size());
}

TEST(ItemCodecTest, LockstepResetWorksOneSidedResetFails) {
  ItemEncoder encoder;
  ItemDecoder decoder;
  ExpectRoundTrip(&encoder, &decoder, *Photon(1));

  // Link restart: both ends reset together, the stream continues.
  encoder.Reset();
  decoder.Reset();
  EXPECT_EQ(encoder.dictionary_size(), 0u);
  EXPECT_EQ(decoder.dictionary_size(), 0u);
  ExpectRoundTrip(&encoder, &decoder, *Photon(2));

  // One-sided reset: the encoder still references dictionary ids the
  // decoder no longer has — a decode error, not silent corruption.
  decoder.Reset();
  std::string encoded;
  encoder.Encode(*Photon(3), &encoded);
  std::unique_ptr<xml::XmlNode> out;
  Status status = decoder.Decode(encoded, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("dictionary"), std::string::npos)
      << status.ToString();
}

TEST(ItemCodecTest, RejectsTrailingBytesAndTruncation) {
  ItemEncoder encoder;
  ItemDecoder decoder;
  std::string encoded;
  encoder.Encode(*Photon(1), &encoded);

  std::unique_ptr<xml::XmlNode> out;
  std::string trailing = encoded + "junk";
  EXPECT_FALSE(decoder.Decode(trailing, &out).ok());

  ItemDecoder fresh;
  std::string truncated = encoded.substr(0, encoded.size() / 2);
  EXPECT_FALSE(fresh.Decode(truncated, &out).ok());
}

TEST(ItemCodecTest, RejectsOverDeepNesting) {
  auto root = std::make_unique<xml::XmlNode>("n");
  xml::XmlNode* tip = root.get();
  for (size_t i = 0; i < engine::kMaxDecodeDepth + 10; ++i) {
    tip = tip->AddChild("n");
  }
  ItemEncoder encoder;
  ItemDecoder decoder;
  std::string encoded;
  encoder.Encode(*root, &encoded);
  std::unique_ptr<xml::XmlNode> out;
  Status status = decoder.Decode(encoded, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("deep"), std::string::npos)
      << status.ToString();
}

// --- Property-style randomized sweep ------------------------------------

/// Random tree generator exercising the codec's edge shapes: deep chains,
/// wide fan-out, empty elements, empty and large text, names drawn from a
/// small pool (dictionary hits) and fresh names (literals).
class TreeGen {
 public:
  explicit TreeGen(uint64_t seed) : rng_(seed) {}

  std::unique_ptr<xml::XmlNode> Tree() {
    int shape = Pick(4);
    if (shape == 0) return Chain(Pick(60) + 1);
    return Random(/*depth=*/0, /*max_depth=*/2 + Pick(5));
  }

 private:
  int Pick(int bound) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(bound));
  }

  std::string Name() {
    // Mostly from a pool (repeats), sometimes brand new.
    static const char* kPool[] = {"photon", "ra",   "decl", "energy",
                                  "obs",    "time", "id",   "flux"};
    if (Pick(5) != 0) return kPool[Pick(8)];
    return "name" + std::to_string(next_fresh_++);
  }

  std::string Text() {
    switch (Pick(5)) {
      case 0:
        return "";
      case 1: {  // characters the XML form must escape, raw here
        return "a<b&c>d";
      }
      case 2: {  // large text payload
        return std::string(static_cast<size_t>(512 + Pick(4096)), 'x');
      }
      default:
        return std::to_string(rng_());
    }
  }

  std::unique_ptr<xml::XmlNode> Chain(int depth) {
    auto root = std::make_unique<xml::XmlNode>(Name());
    xml::XmlNode* tip = root.get();
    for (int i = 0; i < depth; ++i) tip = tip->AddChild(Name());
    tip->set_text(Text());
    return root;
  }

  std::unique_ptr<xml::XmlNode> Random(int depth, int max_depth) {
    auto node = std::make_unique<xml::XmlNode>(Name());
    if (Pick(3) != 0) node->set_text(Text());
    if (depth < max_depth) {
      int children = Pick(depth == 0 ? 6 : 4);
      for (int i = 0; i < children; ++i) {
        node->AddChild(Random(depth + 1, max_depth));
      }
    }
    return node;
  }

  std::mt19937_64 rng_;
  int next_fresh_ = 0;
};

TEST(ItemCodecPropertyTest, RandomizedTreesRoundTripByteIdentically) {
  TreeGen gen(/*seed=*/20260807);
  ItemEncoder encoder;
  ItemDecoder decoder;
  for (int i = 0; i < 300; ++i) {
    std::unique_ptr<xml::XmlNode> tree = gen.Tree();
    SCOPED_TRACE("tree " + std::to_string(i));
    ExpectRoundTrip(&encoder, &decoder, *tree);
    // Dictionaries stay in lockstep across the whole stream.
    ASSERT_EQ(encoder.dictionary_size(), decoder.dictionary_size());
  }
}

TEST(ItemCodecPropertyTest, FreshDecoderPerItemAlsoWorksAfterReset) {
  // The same stream with a reset between every item: no state may leak.
  TreeGen gen(/*seed=*/7);
  ItemEncoder encoder;
  ItemDecoder decoder;
  for (int i = 0; i < 50; ++i) {
    encoder.Reset();
    decoder.Reset();
    std::unique_ptr<xml::XmlNode> tree = gen.Tree();
    SCOPED_TRACE("tree " + std::to_string(i));
    ExpectRoundTrip(&encoder, &decoder, *tree);
  }
}

TEST(ItemCodecTest, EncodeReservesFromSerializedSize) {
  // The binary form never exceeds the compact XML text form (that bound
  // is what Encode's reserve call relies on).
  TreeGen gen(/*seed=*/99);
  for (int i = 0; i < 100; ++i) {
    ItemEncoder encoder;  // fresh dictionary: worst case, all literals
    std::unique_ptr<xml::XmlNode> tree = gen.Tree();
    std::string encoded;
    encoder.Encode(*tree, &encoded);
    EXPECT_LE(encoded.size(), tree->SerializedSize())
        << xml::WriteCompact(*tree).substr(0, 200);
  }
}

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
      item.AddChild("name_" + std::to_string(next_name))
          ->set_text(std::to_string(next_name + 1));
      ++next_name;
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

TEST(CodecRobustnessTest, LargePayloadRoundTrips) {
  // A maximal single item — megabyte text blob plus a wide fanout —
  // through encode → decode.
  xml::XmlNode big("blob");
  std::string text(1 << 20, 'x');
  for (size_t i = 0; i < text.size(); i += 4096) text[i] = 'y';
  big.AddChild("payload")->set_text(text);
  for (int i = 0; i < 1000; ++i) {
    big.AddChild("row")->set_text(std::to_string(i));
  }

  ItemEncoder encoder;
  ItemDecoder decoder;
  auto decoded = RoundTrip(big, &encoder, &decoder);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->Equals(big));
}

}  // namespace
}  // namespace streamshare
