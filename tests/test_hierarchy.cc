// Tests for the hierarchical-subnet extension (paper §6): subnet
// partitions, gateway detection, subnet-restricted Subscribe, and the
// correctness guarantee that hierarchical registration still delivers
// exactly the same results.

#include "sharing/hierarchy.h"

#include <gtest/gtest.h>

#include "network/subnet.h"
#include "workload/scenario.h"

namespace streamshare {
namespace {

using network::SubnetPartition;
using network::Topology;

TEST(SubnetPartitionTest, CreateValidatesAssignment) {
  Topology grid = Topology::Grid(2, 2);
  EXPECT_FALSE(SubnetPartition::Create(&grid, {0, 1}).ok());  // short
  EXPECT_FALSE(SubnetPartition::Create(&grid, {0, -1, 0, 0}).ok());
  EXPECT_FALSE(
      SubnetPartition::Create(&grid, {0, 0, 2, 2}).ok());  // gap (no 1)
  Result<SubnetPartition> ok = SubnetPartition::Create(&grid, {0, 0, 1, 1});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->subnet_count(), 2);
  EXPECT_EQ(ok->subnet_of(0), 0);
  EXPECT_EQ(ok->subnet_of(3), 1);
}

TEST(SubnetPartitionTest, GatewaysCrossSubnetLinks) {
  // 2x2 grid: 0-1 horizontal, 0-2, 1-3 vertical, 2-3 horizontal.
  Topology grid = Topology::Grid(2, 2);
  SubnetPartition partition =
      SubnetPartition::Create(&grid, {0, 0, 1, 1}).value();
  // Links 0-2 and 1-3 cross; all four nodes are gateways here.
  EXPECT_TRUE(partition.IsGateway(0));
  EXPECT_TRUE(partition.IsGateway(2));
  EXPECT_EQ(partition.GatewaysOf(0).size(), 2u);

  // A line of 4: 0-1-2-3 split {0,1} | {2,3}: only 1 and 2 are gateways.
  Topology line = Topology::Grid(1, 4);
  SubnetPartition line_partition =
      SubnetPartition::Create(&line, {0, 0, 1, 1}).value();
  EXPECT_FALSE(line_partition.IsGateway(0));
  EXPECT_TRUE(line_partition.IsGateway(1));
  EXPECT_TRUE(line_partition.IsGateway(2));
  EXPECT_FALSE(line_partition.IsGateway(3));
}

TEST(SubnetPartitionTest, GridQuadrants) {
  Topology grid = Topology::Grid(4, 4);
  Result<SubnetPartition> partition =
      SubnetPartition::GridQuadrants(&grid, 4, 4);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->subnet_count(), 4);
  EXPECT_EQ(partition->nodes_in(0).size(), 4u);
  EXPECT_EQ(partition->subnet_of(0), 0);   // top-left
  EXPECT_EQ(partition->subnet_of(3), 1);   // top-right
  EXPECT_EQ(partition->subnet_of(12), 2);  // bottom-left
  EXPECT_EQ(partition->subnet_of(15), 3);  // bottom-right
  EXPECT_FALSE(SubnetPartition::GridQuadrants(&grid, 3, 3).ok());
}

TEST(HierarchyTest, SubnetSearchVisitsFewerNodes) {
  workload::ScenarioSpec scenario = workload::GridScenario(17, 60);

  auto run = [&](bool hierarchical) -> Result<std::pair<long, double>> {
    sharing::SystemConfig config;
    if (hierarchical) {
      config.subnet_assignment.resize(16);
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          config.subnet_assignment[r * 4 + c] =
              (r >= 2 ? 2 : 0) + (c >= 2 ? 1 : 0);
        }
      }
    }
    SS_ASSIGN_OR_RETURN(auto system,
                        workload::BuildSystem(scenario, config));
    long nodes = 0;
    double cost = 0.0;
    for (const workload::QuerySpec& query : scenario.queries) {
      SS_ASSIGN_OR_RETURN(
          sharing::RegistrationResult result,
          system->RegisterQuery(query.text, query.target,
                                sharing::Strategy::kStreamSharing));
      nodes += result.search.nodes_visited;
      cost += result.plan.TotalCost();
    }
    return std::make_pair(nodes, cost);
  };

  Result<std::pair<long, double>> flat = run(false);
  Result<std::pair<long, double>> hierarchical = run(true);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(hierarchical.ok()) << hierarchical.status();
  // The subnet-restricted search does less work...
  EXPECT_LT(hierarchical->first, flat->first);
  // ...at a bounded plan-quality loss (fallback keeps it close).
  EXPECT_LT(hierarchical->second, flat->second * 1.5 + 0.1);
}

TEST(HierarchyTest, HierarchicalResultsStillCorrect) {
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(23, 10);

  auto run = [&](bool hierarchical)
      -> Result<std::unique_ptr<sharing::StreamShareSystem>> {
    sharing::SystemConfig config;
    config.keep_results = true;
    if (hierarchical) {
      // Split the 2x4 example: left half subnet 0, right half subnet 1.
      config.subnet_assignment = {0, 1, 1, 1, 0, 0, 0, 1};
    }
    SS_ASSIGN_OR_RETURN(auto system,
                        workload::BuildSystem(scenario, config));
    for (const workload::QuerySpec& query : scenario.queries) {
      SS_ASSIGN_OR_RETURN(
          sharing::RegistrationResult result,
          system->RegisterQuery(query.text, query.target,
                                sharing::Strategy::kStreamSharing));
      EXPECT_TRUE(result.accepted);
    }
    workload::PhotonGenerator generator(scenario.streams[0].gen);
    std::map<std::string, std::vector<engine::ItemPtr>> items;
    items["photons"] = generator.Generate(800);
    SS_RETURN_IF_ERROR(system->Run(items));
    return system;
  };

  auto flat = run(false);
  auto hierarchical = run(true);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(hierarchical.ok()) << hierarchical.status();
  const auto& flat_regs = (*flat)->registrations();
  const auto& hier_regs = (*hierarchical)->registrations();
  ASSERT_EQ(flat_regs.size(), hier_regs.size());
  for (size_t q = 0; q < flat_regs.size(); ++q) {
    ASSERT_EQ(flat_regs[q].sink->item_count(),
              hier_regs[q].sink->item_count())
        << "query " << q;
    for (size_t i = 0; i < flat_regs[q].sink->items().size(); ++i) {
      EXPECT_TRUE(flat_regs[q].sink->items()[i]->Equals(
          *hier_regs[q].sink->items()[i]));
    }
  }
}

}  // namespace
}  // namespace streamshare
