// The measured-latency plane. Every item is stamped with an ingress tick
// when it enters the system (one clock read per fed batch), and the stamp
// rides with the item — in its batch slot between operators (an output
// slot inherits the stamp of the input slot that produced it) and as a
// varint frame extension on the transport wire — accumulating
// queue-residency and transport time along the way. Sinks turn arriving
// stamps into per-query end-to-end histograms with stage attribution
// (pipeline / queue-wait / transport).
//
// Stamping is decided once, by whoever feeds: engine::RunBatchStreams
// and the partitioned runner take a `stamp` argument, which
// StreamShareSystem sets from SystemConfig::measure_latency. Every later
// stage acts only on stamped slots, so an unstamped run takes no further
// clock reads.
//
// Stamps are metrics only: they are excluded from content hashes and
// never change what a query outputs (an ARCHITECTURE invariant the fuzz
// oracle enforces by diffing a stamped run against an unstamped one).

#ifndef STREAMSHARE_ENGINE_LATENCY_H_
#define STREAMSHARE_ENGINE_LATENCY_H_

#include <cstdint>

namespace streamshare::engine::latency {

/// The per-item stamp. `ingress_us == 0` means "unstamped" — items that
/// predate stamping (old wire frames, runs with stamping off) and
/// operator outputs with no single originating item flow unstamped and
/// are simply skipped by sink recording.
struct ItemStamp {
  /// NowUs() at the moment the item entered the system.
  uint64_t ingress_us = 0;
  /// Accumulated residency in bounded LinkQueues (parallel / transport
  /// workers), µs.
  uint64_t queue_us = 0;
  /// Accumulated time on transport wires (send tick to receive tick,
  /// summed over hops), µs.
  uint64_t transport_us = 0;

  bool stamped() const { return ingress_us != 0; }
};

/// Microseconds on the steady clock (CLOCK_MONOTONIC on Linux), so ticks
/// taken on different worker threads compare directly. Never returns 0.
uint64_t NowUs();

}  // namespace streamshare::engine::latency

#endif  // STREAMSHARE_ENGINE_LATENCY_H_
