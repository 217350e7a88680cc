// Mutable utilization state of the network: how much bandwidth each
// connection and how much computational load each peer currently carries.
// The cost function reads availabilities a_b(e) / a_l(v) from here; plan
// deployment commits the plan's additional usage.

#ifndef STREAMSHARE_NETWORK_STATE_H_
#define STREAMSHARE_NETWORK_STATE_H_

#include <vector>

#include "network/health.h"
#include "network/topology.h"

namespace streamshare::network {

class NetworkState {
 public:
  explicit NetworkState(const Topology* topology);

  const Topology& topology() const { return *topology_; }

  /// Liveness overlay: which peers are dead, which links are
  /// down. The planner routes around anything marked dead here.
  const PeerHealth& health() const { return health_; }
  PeerHealth& mutable_health() { return health_; }

  /// Absolute bandwidth in use on a connection, kbit/s.
  double UsedBandwidthKbps(LinkId link) const {
    return used_bandwidth_[link];
  }
  /// Absolute load in use on a peer, work units / s.
  double UsedLoad(NodeId peer) const { return used_load_[peer]; }

  /// Relative utilization u ∈ [0, ∞).
  double RelativeBandwidthUse(LinkId link) const;
  double RelativeLoadUse(NodeId peer) const;

  /// Remaining relative capacity a = max(0, 1 − u).
  double AvailableBandwidth(LinkId link) const;
  double AvailableLoad(NodeId peer) const;

  /// Commits additional usage (deploying a plan). Negative deltas release.
  void AddBandwidth(LinkId link, double kbps);
  void AddLoad(NodeId peer, double work_units_per_s);

  /// High-water marks of absolute usage over the state's lifetime —
  /// releases (query deregistration) do not lower them, so they show the
  /// most the system ever committed.
  double PeakBandwidthKbps(LinkId link) const {
    return peak_bandwidth_[link];
  }
  double PeakLoad(NodeId peer) const { return peak_load_[peer]; }

 private:
  const Topology* topology_;
  PeerHealth health_;
  std::vector<double> used_bandwidth_;
  std::vector<double> used_load_;
  std::vector<double> peak_bandwidth_;
  std::vector<double> peak_load_;
};

}  // namespace streamshare::network

#endif  // STREAMSHARE_NETWORK_STATE_H_
