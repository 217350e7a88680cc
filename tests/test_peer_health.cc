// PeerHealth tests: terminal death, link cuts (explicit and via
// MarkDead), and the aggregate counters routing relies on.

#include <gtest/gtest.h>

#include "network/health.h"
#include "network/topology.h"

namespace streamshare::network {
namespace {

class PeerHealthTest : public ::testing::Test {
 protected:
  PeerHealthTest()
      : topology_(Topology::ExtendedExample()), health_(&topology_) {}

  /// Index of the first link incident to `peer`.
  LinkId IncidentLink(NodeId peer) {
    for (size_t link = 0; link < topology_.link_count(); ++link) {
      const Link& l = topology_.link(link);
      if (l.a == peer || l.b == peer) return static_cast<LinkId>(link);
    }
    ADD_FAILURE() << "peer " << peer << " has no links";
    return 0;
  }

  Topology topology_;
  PeerHealth health_;
};

TEST_F(PeerHealthTest, StartsAllHealthy) {
  EXPECT_TRUE(health_.AllHealthy());
  EXPECT_EQ(health_.dead_peer_count(), 0u);
  EXPECT_EQ(health_.down_link_count(), 0u);
  for (size_t peer = 0; peer < topology_.peer_count(); ++peer) {
    EXPECT_FALSE(health_.IsDead(static_cast<NodeId>(peer)));
    EXPECT_TRUE(health_.RoutesThrough(static_cast<NodeId>(peer)));
    EXPECT_EQ(health_.reason(static_cast<NodeId>(peer)), "");
  }
  for (size_t link = 0; link < topology_.link_count(); ++link) {
    EXPECT_TRUE(health_.LinkUp(static_cast<LinkId>(link)));
  }
}

TEST_F(PeerHealthTest, DeadCutsIncidentLinks) {
  size_t incident = 0;
  for (size_t link = 0; link < topology_.link_count(); ++link) {
    const Link& l = topology_.link(link);
    if (l.a == 4 || l.b == 4) ++incident;
  }
  ASSERT_GT(incident, 0u);

  EXPECT_TRUE(health_.MarkDead(4, "operator"));
  EXPECT_TRUE(health_.IsDead(4));
  EXPECT_FALSE(health_.RoutesThrough(4));
  EXPECT_EQ(health_.reason(4), "operator");
  EXPECT_EQ(health_.dead_peer_count(), 1u);
  EXPECT_EQ(health_.down_link_count(), incident);
  for (size_t link = 0; link < topology_.link_count(); ++link) {
    const Link& l = topology_.link(link);
    EXPECT_EQ(health_.LinkUp(static_cast<LinkId>(link)),
              l.a != 4 && l.b != 4);
  }
}

TEST_F(PeerHealthTest, DeadIsTerminal) {
  ASSERT_TRUE(health_.MarkDead(4, "operator"));
  EXPECT_FALSE(health_.MarkDead(4, "again"));
  EXPECT_TRUE(health_.IsDead(4));
  EXPECT_EQ(health_.reason(4), "operator");
  EXPECT_EQ(health_.dead_peer_count(), 1u);
}

TEST_F(PeerHealthTest, CutLinkIsIdempotent) {
  LinkId link = IncidentLink(2);
  EXPECT_TRUE(health_.CutLink(link));
  EXPECT_FALSE(health_.LinkUp(link));
  EXPECT_EQ(health_.down_link_count(), 1u);
  EXPECT_FALSE(health_.CutLink(link));
  EXPECT_EQ(health_.down_link_count(), 1u);
  // Both endpoints stay alive — a cut link is not a dead peer.
  const Link& l = topology_.link(link);
  EXPECT_FALSE(health_.IsDead(l.a));
  EXPECT_FALSE(health_.IsDead(l.b));
}

TEST_F(PeerHealthTest, MarkDeadAfterManualCutCountsLinksOnce) {
  LinkId link = IncidentLink(4);
  ASSERT_TRUE(health_.CutLink(link));
  size_t incident = 0;
  for (size_t i = 0; i < topology_.link_count(); ++i) {
    const Link& l = topology_.link(i);
    if (l.a == 4 || l.b == 4) ++incident;
  }
  ASSERT_TRUE(health_.MarkDead(4, "operator"));
  // The pre-cut link must not be double-counted.
  EXPECT_EQ(health_.down_link_count(), incident);
}

}  // namespace
}  // namespace streamshare::network
