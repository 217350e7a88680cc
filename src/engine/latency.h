// The measured-latency plane. Every item is stamped with an ingress tick
// when it enters the system (one clock read per fed batch), and the stamp
// rides with the item in its batch slot between operators (an output
// slot inherits the stamp of the input slot that produced it). Sinks turn
// arriving stamps into per-query end-to-end latency histograms.
//
// Stamping is decided once, by whoever feeds: engine::RunBatchStreams
// takes a `stamp` argument, which StreamShareSystem sets from
// SystemConfig::measure_latency. Sinks act only on stamped slots, so an
// unstamped run takes no further clock reads.
//
// Stamps are metrics only: they are excluded from content hashes and
// never change what a query outputs (an ARCHITECTURE invariant the fuzz
// oracle enforces by diffing a stamped run against an unstamped one).

#ifndef STREAMSHARE_ENGINE_LATENCY_H_
#define STREAMSHARE_ENGINE_LATENCY_H_

#include <cstdint>

namespace streamshare::engine::latency {

/// The per-item stamp. `ingress_us == 0` means "unstamped" — items fed
/// with stamping off and operator outputs with no single originating
/// item flow unstamped and are simply skipped by sink recording.
struct ItemStamp {
  /// NowUs() at the moment the item entered the system.
  uint64_t ingress_us = 0;

  bool stamped() const { return ingress_us != 0; }
};

/// Microseconds on the steady clock (CLOCK_MONOTONIC on Linux), so ticks
/// taken on different threads compare directly. Never returns 0.
uint64_t NowUs();

}  // namespace streamshare::engine::latency

#endif  // STREAMSHARE_ENGINE_LATENCY_H_
