// Failure-and-recovery tests: refcounted Unsubscribe (shared streams
// survive while consumers remain, are garbage-collected after the last
// one leaves), FailPeer / CutLink recovery reports, dead-target teardown,
// and the gap-not-garbage guarantee — a re-planned subscription's
// post-recovery output is item-identical to a fresh resume-mode run over
// the same damaged topology.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sharing/system.h"
#include "workload/paper_queries.h"
#include "workload/photon_gen.h"

namespace streamshare {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

Status InstallPhotonStatistics(sharing::StreamShareSystem* system) {
  SS_RETURN_IF_ERROR(
      system->SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}));
  SS_RETURN_IF_ERROR(
      system->SetRange("photons", P("coord/cel/dec"), {-90.0, 90.0}));
  SS_RETURN_IF_ERROR(system->SetRange("photons", P("en"), {0.1, 2.4}));
  return system->SetAvgIncrement("photons", P("det_time"), 0.5);
}

std::vector<engine::ItemPtr> GeneratePhotons(size_t count) {
  workload::PhotonGenConfig config;
  config.hot_regions = {{120.0, 138.0, -49.0, -40.0}};
  config.hot_weights = {2.0};
  workload::PhotonGenerator generator(config);
  return generator.Generate(count);
}

std::map<std::string, std::vector<engine::ItemPtr>> Slice(
    const std::vector<engine::ItemPtr>& items, size_t from, size_t to) {
  std::map<std::string, std::vector<engine::ItemPtr>> batch;
  batch["photons"].assign(items.begin() + from, items.begin() + to);
  return batch;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild({}); }

  void Rebuild(sharing::SystemConfig config) {
    system_ = std::make_unique<sharing::StreamShareSystem>(
        network::Topology::ExtendedExample(), config);
    ASSERT_TRUE(system_
                    ->RegisterStream("photons",
                                     workload::PhotonGenerator::Schema(),
                                     100.0, 4)
                    .ok());
    ASSERT_TRUE(InstallPhotonStatistics(system_.get()).ok());
  }

  sharing::RegistrationResult Register(const char* query,
                                       network::NodeId target) {
    Result<sharing::RegistrationResult> result = system_->RegisterQuery(
        query, target, sharing::Strategy::kStreamSharing);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->accepted);
    return *result;
  }

  double TotalBandwidth() {
    double total = 0.0;
    for (size_t link = 0; link < system_->topology().link_count(); ++link) {
      total += system_->state().UsedBandwidthKbps(static_cast<int>(link));
    }
    return total;
  }

  std::unique_ptr<sharing::StreamShareSystem> system_;
};

// --- Refcounted Unsubscribe ---------------------------------------------

TEST_F(RecoveryTest, SharedStreamSurvivesFirstUnsubscribe) {
  sharing::RegistrationResult q1 = Register(workload::kQuery1, 1);
  sharing::RegistrationResult q2 = Register(workload::kQuery2, 7);
  ASSERT_GT(q2.plan.inputs[0].reused_stream, 0);  // q2 consumes q1's

  // The producer may leave first.
  ASSERT_TRUE(system_->Unsubscribe(q1.query_id).ok());
  EXPECT_FALSE(system_->IsActive(q1.query_id));
  EXPECT_TRUE(system_->IsActive(q2.query_id));

  // The shared stream keeps flowing for the surviving consumer; the
  // departed query's private tail is gone.
  std::vector<engine::ItemPtr> items = GeneratePhotons(1500);
  ASSERT_TRUE(system_->Feed(Slice(items, 0, 1500)).ok());
  ASSERT_TRUE(system_->Shutdown().ok());
  EXPECT_GT(q2.sink->item_count(), 0u);
  EXPECT_EQ(q1.sink->item_count(), 0u);
}

TEST_F(RecoveryTest, LastUnsubscribeGarbageCollects) {
  sharing::RegistrationResult q1 = Register(workload::kQuery1, 1);
  sharing::RegistrationResult q2 = Register(workload::kQuery2, 7);
  ASSERT_GT(q2.plan.inputs[0].reused_stream, 0);
  ASSERT_GT(TotalBandwidth(), 0.0);

  ASSERT_TRUE(system_->Unsubscribe(q1.query_id).ok());
  ASSERT_GT(TotalBandwidth(), 0.0);  // q2 still holds the chain

  ASSERT_TRUE(system_->Unsubscribe(q2.query_id).ok());
  EXPECT_NEAR(TotalBandwidth(), 0.0, 1e-9);

  // The GC'd stream is retired: a fresh identical query cannot reuse it
  // and taps the original instead.
  sharing::RegistrationResult again = Register(workload::kQuery1, 1);
  EXPECT_EQ(again.plan.inputs[0].reused_stream, 0);
}

TEST_F(RecoveryTest, UnsubscribeInvalidIdRejected) {
  EXPECT_TRUE(system_->Unsubscribe(-1).IsNotFound());
  EXPECT_TRUE(system_->Unsubscribe(99).IsNotFound());
  sharing::RegistrationResult q1 = Register(workload::kQuery1, 1);
  ASSERT_TRUE(system_->Unsubscribe(q1.query_id).ok());
  EXPECT_TRUE(system_->Unsubscribe(q1.query_id).IsNotFound());
}

// --- FailPeer ------------------------------------------------------------

TEST_F(RecoveryTest, FailPeerReplansSurvivorsAndTearsDownTargets) {
  sharing::RegistrationResult q1 = Register(workload::kQuery1, 1);
  sharing::RegistrationResult q2 = Register(workload::kQuery2, 7);
  sharing::RegistrationResult q3 = Register(workload::kQuery3, 3);
  sharing::RegistrationResult q4 = Register(workload::kQuery4, 0);

  std::vector<engine::ItemPtr> items = GeneratePhotons(1000);
  ASSERT_TRUE(system_->Feed(Slice(items, 0, 500)).ok());
  uint64_t q1_before = q1.sink->item_count();

  Result<recover::RecoveryReport> report = system_->FailPeer(1);
  ASSERT_TRUE(report.ok()) << report.status();
  // SP1 hosted q1: torn down. The others lose their shared chain (it ran
  // through the severed region) and are re-planned onto survivors.
  EXPECT_EQ(report->dead_targets, 1u);
  EXPECT_GE(report->replans, 1u);
  EXPECT_EQ(report->lost_queries, 0u);
  bool q1_reported = false;
  for (const recover::QueryRecovery& rec : report->queries) {
    if (rec.query_id == q1.query_id) {
      q1_reported = true;
      EXPECT_EQ(rec.outcome, recover::QueryRecovery::Outcome::kDeadTarget);
    }
  }
  EXPECT_TRUE(q1_reported);
  // Torn-down queries have no epoch snapshot — they are gone.
  EXPECT_EQ(report->snapshots.count(q1.query_id), 0u);
  EXPECT_FALSE(system_->IsActive(q1.query_id));

  // Post-recovery feeding reaches the re-planned queries; the dead
  // target's sink is frozen at its pre-failure state.
  ASSERT_TRUE(system_->Feed(Slice(items, 500, 1000)).ok());
  ASSERT_TRUE(system_->Shutdown().ok());
  EXPECT_EQ(q1.sink->item_count(), q1_before);
  ASSERT_EQ(report->snapshots.count(q2.query_id), 1u);
  EXPECT_GE(q2.sink->item_count(),
            report->snapshots.at(q2.query_id).items);

  // recovery_reports() retains the event; the obs counters fold it in.
  ASSERT_EQ(system_->recovery_reports().size(), 1u);
  EXPECT_EQ(system_->recovery_reports()[0].trigger, "fail-peer SP1");
  (void)q3;
  (void)q4;
}

TEST_F(RecoveryTest, FailPeerIsTerminalPerPeer) {
  Register(workload::kQuery1, 1);
  ASSERT_TRUE(system_->FailPeer(1).ok());
  EXPECT_FALSE(system_->FailPeer(1).ok());          // already dead
  EXPECT_FALSE(system_->FailPeer("SP1").ok());      // by name, same peer
  EXPECT_FALSE(system_->FailPeer("nope").ok());     // unknown name
  EXPECT_TRUE(system_->FailPeer(7).ok());           // others still fail
}

// --- CutLink and gap-not-garbage ----------------------------------------

network::Topology Triangle() {
  network::Topology topology;
  topology.AddPeer("SP0", 100000.0);
  topology.AddPeer("SP1", 100000.0);
  topology.AddPeer("SP2", 100000.0);
  EXPECT_TRUE(topology.AddLink(0, 1, 100000.0).ok());
  EXPECT_TRUE(topology.AddLink(1, 2, 100000.0).ok());
  EXPECT_TRUE(topology.AddLink(0, 2, 100000.0).ok());
  return topology;
}

constexpr const char* kCountWindowQuery =
    "<photons> { for $w in stream(\"photons\")/photons/photon "
    "|count 10 step 10| let $a := sum($w/en) "
    "return <agg_en> { $a } </agg_en> } </photons>";

/// Builds a triangle system with the photon stream at SP0 and the
/// count-window query at SP2, content hashing enabled.
sharing::RegistrationResult SetUpTriangle(
    std::unique_ptr<sharing::StreamShareSystem>* system,
    sharing::SystemConfig config) {
  *system = std::make_unique<sharing::StreamShareSystem>(Triangle(),
                                                         config);
  EXPECT_TRUE((*system)
                  ->RegisterStream("photons",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 0)
                  .ok());
  EXPECT_TRUE(InstallPhotonStatistics(system->get()).ok());
  Result<sharing::RegistrationResult> query = (*system)->RegisterQuery(
      kCountWindowQuery, 2, sharing::Strategy::kStreamSharing);
  EXPECT_TRUE(query.ok()) << query.status();
  query->sink->EnableContentHash();
  return *query;
}

TEST(RecoveryGapTest, ReplannedQueryResumesAtWindowBoundary) {
  std::vector<engine::ItemPtr> items = GeneratePhotons(50);

  // Churned run: 25 items, cut the direct SP0-SP2 link (the detour over
  // SP1 survives), 25 more items.
  std::unique_ptr<sharing::StreamShareSystem> churned;
  sharing::RegistrationResult query = SetUpTriangle(&churned, {});
  ASSERT_TRUE(churned->Feed(Slice(items, 0, 25)).ok());
  Result<recover::RecoveryReport> report = churned->CutLink(0, 2);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->replans, 1u);
  ASSERT_EQ(report->queries.size(), 1u);
  EXPECT_EQ(report->queries[0].outcome,
            recover::QueryRecovery::Outcome::kReplanned);
  // 25 items into size-10 windows: [0,10) and [10,20) closed and
  // delivered, the open [20,30) window died with the old plan.
  EXPECT_GE(report->queries[0].lost_windows, 1u);
  ASSERT_TRUE(churned->Feed(Slice(items, 25, 50)).ok());
  ASSERT_TRUE(churned->Shutdown().ok());

  // Fresh restricted run: same damaged topology from the start, resume
  // mode, fed only the post-recovery items.
  sharing::SystemConfig resume_config;
  resume_config.resume_mode = true;
  std::unique_ptr<sharing::StreamShareSystem> restricted;
  sharing::RegistrationResult fresh =
      SetUpTriangle(&restricted, resume_config);
  ASSERT_TRUE(restricted->CutLink(0, 2).ok());
  ASSERT_TRUE(restricted->Feed(Slice(items, 25, 50)).ok());
  ASSERT_TRUE(restricted->Shutdown().ok());

  // Gap, not garbage: everything the churned run produced after the
  // epoch boundary is item-identical to the fresh run — no partially
  // aggregated window crossed the failure.
  ASSERT_EQ(report->snapshots.count(query.query_id), 1u);
  const recover::SinkSnapshot& epoch =
      report->snapshots.at(query.query_id);
  EXPECT_EQ(query.sink->item_count() - epoch.items,
            fresh.sink->item_count());
  EXPECT_EQ(query.sink->total_bytes() - epoch.bytes,
            fresh.sink->total_bytes());
  // The content hash folds additively, so the epoch delta subtracts out.
  EXPECT_EQ(query.sink->content_hash() - epoch.content_hash,
            fresh.sink->content_hash());
  EXPECT_GT(fresh.sink->item_count(), 0u);
}

TEST(RecoveryGapTest, CutLinkIsTerminalPerLink) {
  std::unique_ptr<sharing::StreamShareSystem> system;
  SetUpTriangle(&system, {});
  ASSERT_TRUE(system->CutLink(0, 2).ok());
  EXPECT_FALSE(system->CutLink(0, 2).ok());  // already down
  EXPECT_FALSE(system->CutLink(2, 0).ok());  // same link, either order
  EXPECT_FALSE(system->CutLink(0, 0).ok());  // no such link
  EXPECT_TRUE(system->CutLink(0, 1).ok());
}

TEST(RecoveryGapTest, DisconnectionLosesTheQuery) {
  // Path topology SP0—SP1—SP2 with the query at SP2: cutting SP1-SP2
  // leaves no surviving route, so the query is lost, not re-planned.
  network::Topology topology;
  topology.AddPeer("SP0", 100000.0);
  topology.AddPeer("SP1", 100000.0);
  topology.AddPeer("SP2", 100000.0);
  ASSERT_TRUE(topology.AddLink(0, 1, 100000.0).ok());
  ASSERT_TRUE(topology.AddLink(1, 2, 100000.0).ok());
  auto system = std::make_unique<sharing::StreamShareSystem>(
      topology, sharing::SystemConfig{});
  ASSERT_TRUE(system
                  ->RegisterStream("photons",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 0)
                  .ok());
  ASSERT_TRUE(InstallPhotonStatistics(system.get()).ok());
  Result<sharing::RegistrationResult> query = system->RegisterQuery(
      kCountWindowQuery, 2, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(query.ok());

  std::vector<engine::ItemPtr> items = GeneratePhotons(50);
  ASSERT_TRUE(system->Feed(Slice(items, 0, 25)).ok());
  uint64_t before = query->sink->item_count();
  Result<recover::RecoveryReport> report = system->CutLink(1, 2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replans, 0u);
  EXPECT_EQ(report->lost_queries, 1u);
  ASSERT_EQ(report->queries.size(), 1u);
  EXPECT_EQ(report->queries[0].outcome,
            recover::QueryRecovery::Outcome::kLost);
  EXPECT_FALSE(system->IsActive(query->query_id));

  // A lost query's sink freezes — nothing arrives past the cut.
  ASSERT_TRUE(system->Feed(Slice(items, 25, 50)).ok());
  ASSERT_TRUE(system->Shutdown().ok());
  EXPECT_EQ(query->sink->item_count(), before);
}

}  // namespace
}  // namespace streamshare
