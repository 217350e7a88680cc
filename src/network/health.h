// Liveness view of the super-peer network. The base Topology is
// immutable — peers and links never disappear from it — so failure is an
// overlay: PeerHealth records which peers are confirmed dead and which
// links are down, and routing (Topology::ShortestPath with predicates,
// driven by the planner) excludes them.
//
// A peer is alive until System::FailPeer marks it dead; death is
// terminal and cuts every incident link. A link goes down on its own
// through System::CutLink (both peers stay alive).

#ifndef STREAMSHARE_NETWORK_HEALTH_H_
#define STREAMSHARE_NETWORK_HEALTH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "network/topology.h"

namespace streamshare::network {

class PeerHealth {
 public:
  /// All peers alive, all links up. The topology must outlive the view.
  explicit PeerHealth(const Topology* topology);

  bool IsDead(NodeId peer) const { return dead_[peer]; }
  /// Whether traffic may route through the peer (it is not dead).
  bool RoutesThrough(NodeId peer) const { return !IsDead(peer); }

  bool LinkUp(LinkId link) const { return link_up_[link]; }

  /// Alive → dead; cuts every link incident to the peer. Returns true
  /// when the transition happened (false when already dead: death is
  /// terminal within one System lifetime).
  bool MarkDead(NodeId peer, std::string reason);

  /// Cuts one link. Idempotent; returns true when the link went down now.
  bool CutLink(LinkId link);

  /// The reason recorded when the peer died ("" while alive).
  const std::string& reason(NodeId peer) const { return reason_[peer]; }

  size_t dead_peer_count() const { return dead_peers_; }
  size_t down_link_count() const { return down_links_; }

  /// True when no peer is dead and no link is down.
  bool AllHealthy() const { return dead_peers_ == 0 && down_links_ == 0; }

 private:
  const Topology* topology_;
  std::vector<bool> dead_;
  std::vector<std::string> reason_;
  std::vector<bool> link_up_;
  size_t dead_peers_ = 0;
  size_t down_links_ = 0;
};

}  // namespace streamshare::network

#endif  // STREAMSHARE_NETWORK_HEALTH_H_
