#include "network/health.h"

namespace streamshare::network {

PeerHealth::PeerHealth(const Topology* topology)
    : topology_(topology),
      dead_(topology->peer_count(), false),
      reason_(topology->peer_count()),
      link_up_(topology->link_count(), true) {}

bool PeerHealth::MarkDead(NodeId peer, std::string reason) {
  if (dead_[peer]) return false;
  dead_[peer] = true;
  reason_[peer] = std::move(reason);
  ++dead_peers_;
  // A dead peer takes its links with it: nothing can route over an edge
  // whose endpoint no longer exists.
  for (size_t l = 0; l < topology_->link_count(); ++l) {
    const Link& link = topology_->link(static_cast<LinkId>(l));
    if (link.a == peer || link.b == peer) {
      CutLink(static_cast<LinkId>(l));
    }
  }
  return true;
}

bool PeerHealth::CutLink(LinkId link) {
  if (!link_up_[link]) return false;
  link_up_[link] = false;
  ++down_links_;
  return true;
}

}  // namespace streamshare::network
