// Unit/integration tests for the StreamShareSystem facade: stream and
// query registration, strategy behaviour, admission control under capacity
// limits, error paths, and metrics plumbing.

#include "sharing/system.h"

#include <gtest/gtest.h>

#include "workload/paper_queries.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"

namespace streamshare::sharing {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild(SystemConfig{}); }

  void Rebuild(SystemConfig config) {
    config.keep_results = true;
    system_ = std::make_unique<StreamShareSystem>(
        network::Topology::ExtendedExample(), config);
    ASSERT_TRUE(system_
                    ->RegisterStream("photons",
                                     workload::PhotonGenerator::Schema(),
                                     100.0, 4)
                    .ok());
    ASSERT_TRUE(
        system_->SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}).ok());
    ASSERT_TRUE(
        system_->SetRange("photons", P("coord/cel/dec"), {-90.0, 90.0})
            .ok());
    ASSERT_TRUE(system_->SetRange("photons", P("en"), {0.1, 2.4}).ok());
    ASSERT_TRUE(
        system_->SetAvgIncrement("photons", P("det_time"), 0.5).ok());
  }

  std::unique_ptr<StreamShareSystem> system_;
};

TEST_F(SystemTest, DuplicateStreamRejected) {
  EXPECT_TRUE(system_
                  ->RegisterStream("photons",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 4)
                  .IsAlreadyExists());
  EXPECT_TRUE(system_
                  ->RegisterStream("other",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 99)
                  .IsInvalidArgument());
}

TEST_F(SystemTest, StatisticsForUnknownStreamFail) {
  EXPECT_TRUE(
      system_->SetRange("nope", P("x"), {0, 1}).IsNotFound());
  EXPECT_TRUE(system_->SetAvgIncrement("nope", P("x"), 1.0).IsNotFound());
}

TEST_F(SystemTest, QueryRegistrationErrors) {
  // Parse error.
  EXPECT_TRUE(system_->RegisterQuery("not a query", 1,
                                     Strategy::kStreamSharing)
                  .status()
                  .IsParseError());
  // Unknown stream.
  EXPECT_TRUE(system_
                  ->RegisterQuery(
                      "<o> { for $p in stream(\"nope\")/r/i "
                      "where $p/x >= 1 return <y> { $p/x } </y> } </o>",
                      1, Strategy::kStreamSharing)
                  .status()
                  .IsNotFound());
  // Bad target peer.
  EXPECT_TRUE(system_
                  ->RegisterQuery(workload::kQuery1, 99,
                                  Strategy::kStreamSharing)
                  .status()
                  .IsInvalidArgument());
  // Unsatisfiable predicate.
  EXPECT_TRUE(system_
                  ->RegisterQuery(
                      "<o> { for $p in stream(\"photons\")/photons/photon "
                      "where $p/en >= 2 and $p/en <= 1 "
                      "return <y> { $p/en } </y> } </o>",
                      1, Strategy::kStreamSharing)
                  .status()
                  .IsUnsatisfiable());
}

TEST_F(SystemTest, RegistrationBookkeeping) {
  ASSERT_TRUE(
      system_->RegisterQuery(workload::kQuery1, 1, Strategy::kStreamSharing)
          .ok());
  ASSERT_TRUE(
      system_->RegisterQuery(workload::kQuery2, 7, Strategy::kStreamSharing)
          .ok());
  EXPECT_EQ(system_->registrations().size(), 2u);
  EXPECT_EQ(system_->accepted_count(), 2);
  EXPECT_EQ(system_->rejected_count(), 0);
  EXPECT_GT(system_->registrations()[0].registration_micros, 0.0);
  // The registry now holds: original + Q1's stream + Q2's stream.
  EXPECT_EQ(system_->registry().streams().size(), 3u);
}

TEST_F(SystemTest, BaselinesDoNotRegisterReusableStreams) {
  ASSERT_TRUE(
      system_->RegisterQuery(workload::kQuery1, 1, Strategy::kDataShipping)
          .ok());
  EXPECT_EQ(system_->registry().streams().size(), 1u);  // original only
  ASSERT_TRUE(
      system_->RegisterQuery(workload::kQuery1, 1, Strategy::kQueryShipping)
          .ok());
  EXPECT_EQ(system_->registry().streams().size(), 1u);
}

TEST_F(SystemTest, StateTracksDeployedUsage) {
  double before_total = 0.0;
  for (size_t link = 0; link < system_->topology().link_count(); ++link) {
    before_total +=
        system_->state().UsedBandwidthKbps(static_cast<int>(link));
  }
  EXPECT_DOUBLE_EQ(before_total, 0.0);
  ASSERT_TRUE(
      system_->RegisterQuery(workload::kQuery1, 1, Strategy::kStreamSharing)
          .ok());
  double after_total = 0.0;
  for (size_t link = 0; link < system_->topology().link_count(); ++link) {
    after_total +=
        system_->state().UsedBandwidthKbps(static_cast<int>(link));
  }
  EXPECT_GT(after_total, 0.0);
}

TEST_F(SystemTest, EnforceLimitsRejectsOverloadingQueries) {
  SystemConfig config;
  config.enforce_limits = true;
  Rebuild(config);
  // Shrink capacities: the raw stream rate is ~140 kbps; make links carry
  // at most one such flow and peers very weak.
  // (Rebuild with a capacity-limited topology instead.)
  network::Topology tiny =
      network::Topology::ExtendedExample(/*bandwidth_kbps=*/150.0,
                                         /*max_load=*/60.0);
  system_ = std::make_unique<StreamShareSystem>(tiny, config);
  ASSERT_TRUE(system_
                  ->RegisterStream("photons",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 4)
                  .ok());
  ASSERT_TRUE(
      system_->SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}).ok());
  ASSERT_TRUE(
      system_->SetRange("photons", P("coord/cel/dec"), {-90.0, 90.0}).ok());
  ASSERT_TRUE(system_->SetRange("photons", P("en"), {0.1, 2.4}).ok());

  // Data shipping the raw stream repeatedly must eventually overload.
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    Result<RegistrationResult> result = system_->RegisterQuery(
        workload::kQuery1, 3, Strategy::kDataShipping);
    ASSERT_TRUE(result.ok()) << result.status();
    if (!result->accepted) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(system_->rejected_count(), rejected);
  // Rejected queries have a reason and no sink.
  for (const RegistrationResult& r : system_->registrations()) {
    if (!r.accepted) {
      EXPECT_FALSE(r.reject_reason.empty());
      EXPECT_EQ(r.sink, nullptr);
    }
  }
}

TEST_F(SystemTest, AdmissionRejectionLeavesDeploymentUntouched) {
  SystemConfig config;
  config.enforce_limits = true;
  config.keep_results = true;
  network::Topology tiny =
      network::Topology::ExtendedExample(/*bandwidth_kbps=*/150.0,
                                         /*max_load=*/60.0);
  system_ = std::make_unique<StreamShareSystem>(tiny, config);
  ASSERT_TRUE(system_
                  ->RegisterStream("photons",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 4)
                  .ok());
  ASSERT_TRUE(
      system_->SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}).ok());
  ASSERT_TRUE(
      system_->SetRange("photons", P("coord/cel/dec"), {-90.0, 90.0}).ok());
  ASSERT_TRUE(system_->SetRange("photons", P("en"), {0.1, 2.4}).ok());

  Result<RegistrationResult> first = system_->RegisterQuery(
      workload::kQuery1, 3, Strategy::kDataShipping);
  ASSERT_TRUE(first.ok() && first->accepted);
  first->sink->EnableContentHash();

  double used_before = 0.0;
  for (size_t link = 0; link < system_->topology().link_count(); ++link) {
    used_before +=
        system_->state().UsedBandwidthKbps(static_cast<int>(link));
  }

  // Push past the bandwidth/load cap: the E6 path must return a
  // structured rejection, not an error, not a process exit.
  Result<RegistrationResult> rejected(Status::Internal("unset"));
  bool saw_rejection = false;
  for (int i = 0; i < 6 && !saw_rejection; ++i) {
    rejected = system_->RegisterQuery(workload::kQuery1, 3,
                                      Strategy::kDataShipping);
    ASSERT_TRUE(rejected.ok()) << rejected.status();
    saw_rejection = !rejected->accepted;
  }
  ASSERT_TRUE(saw_rejection);
  EXPECT_FALSE(rejected->reject_reason.empty());
  EXPECT_EQ(rejected->sink, nullptr);

  // Installed population untouched: same committed resources, the first
  // query still active and still delivering.
  double used_after = 0.0;
  for (size_t link = 0; link < system_->topology().link_count(); ++link) {
    used_after +=
        system_->state().UsedBandwidthKbps(static_cast<int>(link));
  }
  EXPECT_DOUBLE_EQ(used_before, used_after);
  EXPECT_TRUE(system_->IsActive(first->query_id));
  EXPECT_FALSE(system_->IsActive(rejected->query_id));

  workload::PhotonGenConfig gen;
  gen.hot_regions = {{120.0, 138.0, -49.0, -40.0}};
  gen.hot_weights = {2.0};
  workload::PhotonGenerator generator(gen);
  std::map<std::string, std::vector<engine::ItemPtr>> items;
  items["photons"] = generator.Generate(500);
  ASSERT_TRUE(system_->Run(items).ok());
  EXPECT_GT(first->sink->item_count(), 0u);

  // A rejected query was never deployed: unsubscribing it is NotFound
  // with the admission story in the message.
  Status unsub = system_->Unsubscribe(rejected->query_id);
  EXPECT_TRUE(unsub.IsNotFound()) << unsub;
  EXPECT_NE(unsub.message().find("rejected at admission"),
            std::string::npos)
      << unsub.message();
}

TEST_F(SystemTest, StreamSharingSurvivesLimitsThatKillDataShipping) {
  SystemConfig config;
  config.enforce_limits = true;
  // Capacity fits exactly one full evaluation of Q1 (the selection alone
  // costs ~100 work units at 100 items/s) and one raw-stream flow per
  // link — the second data-shipped copy overloads, shared copies do not.
  network::Topology tiny =
      network::Topology::ExtendedExample(/*bandwidth_kbps=*/150.0,
                                         /*max_load=*/130.0);

  auto build = [&](Strategy strategy) {
    StreamShareSystem system(tiny, config);
    EXPECT_TRUE(system
                    .RegisterStream("photons",
                                    workload::PhotonGenerator::Schema(),
                                    100.0, 4)
                    .ok());
    EXPECT_TRUE(
        system.SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}).ok());
    EXPECT_TRUE(
        system.SetRange("photons", P("coord/cel/dec"), {-90.0, 90.0}).ok());
    EXPECT_TRUE(system.SetRange("photons", P("en"), {0.1, 2.4}).ok());
    int rejected = 0;
    for (int i = 0; i < 8; ++i) {
      Result<RegistrationResult> result =
          system.RegisterQuery(workload::kQuery1, 3, strategy);
      EXPECT_TRUE(result.ok());
      if (result.ok() && !result->accepted) ++rejected;
    }
    return rejected;
  };

  int data_rejected = build(Strategy::kDataShipping);
  int sharing_rejected = build(Strategy::kStreamSharing);
  EXPECT_GT(data_rejected, 0);
  // Identical queries share one stream: nothing new to overload.
  EXPECT_EQ(sharing_rejected, 0);
}

TEST_F(SystemTest, RunFailsForUnknownStream) {
  std::map<std::string, std::vector<engine::ItemPtr>> items;
  items["nope"] = {};
  EXPECT_TRUE(system_->Run(items).IsNotFound());
}

TEST_F(SystemTest, MultiInputQueriesDeployAndPlanPerInput) {
  ASSERT_TRUE(system_
                  ->RegisterStream("photons2",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 2)
                  .ok());
  Result<RegistrationResult> result = system_->RegisterQuery(
      "<o> { for $p in stream(\"photons\")/photons/photon "
      "for $q in stream(\"photons2\")/photons/photon "
      "where $p/en >= 1 and $q/en >= 1 "
      "return ( $p/en, $q/en ) } </o>",
      1, Strategy::kStreamSharing);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->accepted);
  ASSERT_EQ(result->plan.inputs.size(), 2u);
  EXPECT_EQ(result->plan.inputs[0].input_stream_name, "photons");
  EXPECT_EQ(result->plan.inputs[1].input_stream_name, "photons2");
}

TEST_F(SystemTest, DescribeDeploymentSnapshots) {
  ASSERT_TRUE(
      system_->RegisterQuery(workload::kQuery1, 1, Strategy::kStreamSharing)
          .ok());
  ASSERT_TRUE(
      system_->RegisterQuery(workload::kQuery2, 7, Strategy::kStreamSharing)
          .ok());
  std::string report = system_->DescribeDeployment();
  EXPECT_NE(report.find("original 'photons'"), std::string::npos);
  EXPECT_NE(report.find("consumers"), std::string::npos);
  EXPECT_NE(report.find("q0 [active]"), std::string::npos);
  EXPECT_NE(report.find("q1 [active]"), std::string::npos);
  ASSERT_TRUE(system_->Unsubscribe(1).ok());
  report = system_->DescribeDeployment();
  EXPECT_NE(report.find("q1 [deregistered]"), std::string::npos);
  EXPECT_NE(report.find("[retired]"), std::string::npos);
}

TEST_F(SystemTest, StrategyNames) {
  EXPECT_EQ(StrategyToString(Strategy::kDataShipping), "data shipping");
  EXPECT_EQ(StrategyToString(Strategy::kQueryShipping), "query shipping");
  EXPECT_EQ(StrategyToString(Strategy::kStreamSharing), "stream sharing");
}

}  // namespace
}  // namespace streamshare::sharing
