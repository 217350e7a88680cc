// M5 — transport codec throughput and bytes-on-wire: encodes/decodes a
// photon stream with the per-link dictionary codec and compares the
// wire size against the compact XML text form the links would otherwise
// carry. Output is `key=value` lines (codec_-prefixed so the perf
// trajectory can fold them into BENCH_engine.json next to the engine
// numbers); `#` lines are commentary.
//
//   ./bench/bench_codec [items] | ./tools/bench_to_json BENCH_codec.json

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/codec.h"
#include "transport/wire.h"
#include "workload/photon_gen.h"
#include "xml/xml_writer.h"

using namespace streamshare;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  size_t item_count = 5000;
  if (argc > 1) item_count = static_cast<size_t>(std::atoll(argv[1]));
  constexpr int kPasses = 20;  // re-encode the stream this many times

  workload::PhotonGenerator generator(workload::PhotonGenConfig{});
  std::vector<engine::ItemPtr> photons = generator.Generate(item_count);

  // Baseline: the XML text form (what a link carries without the codec).
  uint64_t text_bytes = 0;
  for (const engine::ItemPtr& photon : photons) {
    text_bytes += photon->SerializedSize();
  }

  // Encode passes. A fresh encoder per pass mirrors a link (re)start:
  // the first items pay literal names, the rest hit the dictionary.
  std::vector<std::string> encoded(photons.size());
  uint64_t encoded_bytes = 0;
  auto encode_start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    engine::ItemEncoder encoder;
    encoded_bytes = 0;
    for (size_t i = 0; i < photons.size(); ++i) {
      encoded[i].clear();
      encoder.Encode(*photons[i], &encoded[i]);
      encoded_bytes += encoded[i].size();
    }
  }
  double encode_s = SecondsSince(encode_start) / kPasses;

  // Decode passes over the last pass's frames.
  bool identical = true;
  auto decode_start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    engine::ItemDecoder decoder;
    for (size_t i = 0; i < encoded.size(); ++i) {
      std::unique_ptr<xml::XmlNode> node;
      Status status = decoder.Decode(encoded[i], &node);
      if (!status.ok()) {
        std::fprintf(stderr, "decode failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      if (pass == 0 && !node->Equals(*photons[i])) identical = false;
    }
  }
  double decode_s = SecondsSince(decode_start) / kPasses;

  // Text-serialization pass for the throughput comparison.
  auto text_start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    uint64_t sink = 0;
    for (const engine::ItemPtr& photon : photons) {
      sink += xml::WriteCompact(*photon).size();
    }
    if (sink != text_bytes) identical = false;
  }
  double text_s = SecondsSince(text_start) / kPasses;

  double items = static_cast<double>(photons.size());
  std::printf("# codec on %zu photons, %d passes each\n", photons.size(),
              kPasses);
  std::printf("codec_items=%zu\n", photons.size());
  std::printf("codec_text_bytes=%llu\n",
              static_cast<unsigned long long>(text_bytes));
  std::printf("codec_encoded_bytes=%llu\n",
              static_cast<unsigned long long>(encoded_bytes));
  std::printf("codec_bytes_ratio=%.3f\n",
              static_cast<double>(encoded_bytes) /
                  static_cast<double>(text_bytes));
  std::printf("codec_encode_items_per_s=%.1f\n", items / encode_s);
  std::printf("codec_decode_items_per_s=%.1f\n", items / decode_s);
  std::printf("codec_text_serialize_items_per_s=%.1f\n", items / text_s);
  std::printf("codec_encode_mb_per_s=%.1f\n",
              static_cast<double>(encoded_bytes) / encode_s / 1e6);
  std::printf("codec_decode_mb_per_s=%.1f\n",
              static_cast<double>(encoded_bytes) / decode_s / 1e6);
  std::printf("codec_roundtrip_identical=%d\n", identical ? 1 : 0);
  if (!identical) {
    std::fprintf(stderr, "round trip diverged\n");
    return 1;
  }
  return 0;
}
