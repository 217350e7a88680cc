// Measured (not estimated) resource consumption of a running deployment:
// bytes actually transmitted per network connection and work units actually
// spent per peer. The figure benches derive the paper's kbps / CPU-%
// series from these counters and the simulated stream duration.

#ifndef STREAMSHARE_ENGINE_METRICS_H_
#define STREAMSHARE_ENGINE_METRICS_H_

#include <cstdint>
#include <vector>

#include "network/topology.h"

namespace streamshare::engine {

class Metrics {
 public:
  Metrics() = default;
  explicit Metrics(const network::Topology& topology)
      : bytes_per_link_(topology.link_count(), 0),
        work_per_peer_(topology.peer_count(), 0.0),
        items_per_peer_(topology.peer_count(), 0) {}
  void AddBytes(network::LinkId link, uint64_t bytes) {
    bytes_per_link_[link] += bytes;
  }
  /// Bills `n` operator invocations of `work_units` each (a pushed batch
  /// of n items). Loops the floating-point adds instead of multiplying,
  /// so a batch of n items bills bit-identically to n one-item batches.
  void AddWorkN(network::NodeId peer, double work_units, size_t n) {
    double& work = work_per_peer_[peer];
    for (size_t i = 0; i < n; ++i) work += work_units;
    items_per_peer_[peer] += n;
  }

  uint64_t BytesOnLink(network::LinkId link) const {
    return bytes_per_link_[link];
  }
  double WorkAtPeer(network::NodeId peer) const {
    return work_per_peer_[peer];
  }
  uint64_t OperatorInvocationsAtPeer(network::NodeId peer) const {
    return items_per_peer_[peer];
  }

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (uint64_t bytes : bytes_per_link_) total += bytes;
    return total;
  }
  double TotalWork() const {
    double total = 0.0;
    for (double work : work_per_peer_) total += work;
    return total;
  }

  size_t link_count() const { return bytes_per_link_.size(); }
  size_t peer_count() const { return work_per_peer_.size(); }

  /// Average traffic on a connection in kbit/s given the simulated stream
  /// duration.
  double LinkKbps(network::LinkId link, double duration_s) const {
    return duration_s > 0.0
               ? static_cast<double>(bytes_per_link_[link]) * 8.0 /
                     1000.0 / duration_s
               : 0.0;
  }

  /// Average CPU load of a peer in percent of its capacity.
  double PeerCpuPercent(network::NodeId peer, double duration_s,
                        double max_load) const {
    if (duration_s <= 0.0 || max_load <= 0.0) return 0.0;
    return work_per_peer_[peer] / duration_s / max_load * 100.0;
  }

 private:
  std::vector<uint64_t> bytes_per_link_;
  std::vector<double> work_per_peer_;
  std::vector<uint64_t> items_per_peer_;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_METRICS_H_
