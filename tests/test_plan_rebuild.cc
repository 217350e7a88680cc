// ARCHITECTURE.md invariant 12, "replay never searches": recovery
// rebuilds every logged registration from the plan choices its search
// made (Planner::Build) instead of searching again. The property: walked
// through one history — registrations interleaved with unsubscribes, item
// feeds, a peer failure and a link cut (workload::ChurnWalk) — a system
// that searches and a system that rebuilds from the searcher's choices
// agree at every registration: same admission, C(P), feasibility and
// per-input InputPlan::ToString(), with no candidate examined by the
// rebuild, and their deployments deliver the same results. Swept over the
// grid and extended scenarios, widening off and on, and once under a
// subnet assignment (the hierarchical planner searches twice; the rebuild
// takes its final choice).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sharing/system.h"
#include "workload/scenario.h"

namespace streamshare {
namespace {

using sharing::PlanChoice;
using sharing::RegistrationResult;

struct RebuildCase {
  const char* name;
  bool grid;
  bool widening;
  bool subnets;
};

class PlanRebuildWalk : public ::testing::TestWithParam<RebuildCase> {};

TEST_P(PlanRebuildWalk, RebuiltPlanEqualsSearchedPlanAtEveryRegistration) {
  const RebuildCase& param = GetParam();
  constexpr size_t kItemsPerStream = 240;
  const workload::ScenarioSpec scenario =
      param.grid
          ? workload::GridScenario(/*seed=*/29, /*query_count=*/60)
          : workload::ExtendedExampleScenario(/*seed=*/29,
                                              /*query_count=*/30);
  sharing::SystemConfig config;
  config.keep_results = true;
  config.planner.enable_widening = param.widening;
  // The extended example's two subnets (tests/test_hierarchy.cc).
  if (param.subnets) config.subnet_assignment = {0, 1, 1, 1, 0, 0, 0, 1};
  // One failure and one cut mid-history: the registrations after them
  // plan against the recovered deployment.
  std::vector<workload::ChurnEvent> churn(2);
  churn[0].at_offset = kItemsPerStream / 3;
  churn[1].at_offset = 2 * kItemsPerStream / 3;
  churn[0].kind = workload::ChurnEvent::Kind::kFailPeer;
  churn[1].kind = workload::ChurnEvent::Kind::kCutLink;
  if (param.grid) {
    churn[0].peer = 5;
    churn[1].link_a = 9;
    churn[1].link_b = 10;
  } else {
    churn[0].peer = 6;
    churn[1].link_a = 0;
    churn[1].link_b = 1;
  }

  auto searched = workload::BuildSystem(scenario, config);
  auto rebuilt = workload::BuildSystem(scenario, config);
  ASSERT_TRUE(searched.ok()) << searched.status();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  const workload::StreamItems items =
      workload::GenerateItems(scenario, kItemsPerStream);
  workload::ChurnWalk walk(churn, kItemsPerStream);
  auto feed = [&](size_t from, size_t to) -> Status {
    const workload::StreamItems slice =
        workload::SliceItems(items, from, to);
    SS_RETURN_IF_ERROR((*searched)->Feed(slice));
    return (*rebuilt)->Feed(slice);
  };
  auto apply = [&](const workload::ChurnEvent& event) -> Status {
    SS_RETURN_IF_ERROR(workload::ApplyChurn(searched->get(), event));
    return workload::ApplyChurn(rebuilt->get(), event);
  };

  int compared = 0, derived_taps = 0, widenings = 0, raw = 0;
  std::vector<int> ids;
  const size_t n = scenario.queries.size();
  for (size_t q = 0; q < n; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    Status walked = walk.RunTo(q * kItemsPerStream / n, feed, apply);
    ASSERT_TRUE(walked.ok()) << walked;
    const workload::QuerySpec& query = scenario.queries[q];
    Result<RegistrationResult> want = (*searched)->RegisterQuery(
        query.text, query.target, sharing::Strategy::kStreamSharing);
    // A query at the failed peer cannot register; nothing was logged.
    if (!want.ok()) continue;
    const std::vector<PlanChoice> choices = want->plan.Choices();
    Result<RegistrationResult> got = (*rebuilt)->RegisterQuery(
        query.text, query.target, sharing::Strategy::kStreamSharing,
        &choices);
    ASSERT_TRUE(got.ok()) << got.status();
    ++compared;
    EXPECT_EQ(got->query_id, want->query_id);
    EXPECT_EQ(got->accepted, want->accepted);
    EXPECT_EQ(got->search.candidates_examined, 0);
    EXPECT_EQ(got->plan.TotalCost(), want->plan.TotalCost());
    EXPECT_EQ(got->plan.Feasible(), want->plan.Feasible());
    ASSERT_EQ(got->plan.inputs.size(), want->plan.inputs.size());
    for (size_t i = 0; i < want->plan.inputs.size(); ++i) {
      const sharing::InputPlan& a = got->plan.inputs[i];
      const sharing::InputPlan& b = want->plan.inputs[i];
      EXPECT_EQ(a.ToString(), b.ToString());
      EXPECT_EQ(a.cost, b.cost);  // to the bit, not to six decimals
      EXPECT_EQ(a.feasible, b.feasible);
      EXPECT_EQ(a.Choice(), b.Choice());
      switch (b.Choice().kind) {
        case PlanChoice::Kind::kShipRaw:
          ++raw;
          break;
        case PlanChoice::Kind::kTap:
          derived_taps += (*searched)
                              ->registry()
                              .stream(b.reused_stream)
                              .IsOriginal()
                              ? 0
                              : 1;
          break;
        case PlanChoice::Kind::kWiden:
          ++widenings;
          break;
      }
    }
    for (auto* system : {searched->get(), rebuilt->get()}) {
      engine::SinkOp* sink = system->registrations().back().sink;
      if (sink != nullptr) sink->EnableContentHash();
    }
    ids.push_back(want->query_id);
    // Churn the population too: every fourth registration retires the
    // one three before it (refused alike for a query that widened).
    if (ids.size() % 4 == 0) {
      const int leaving = ids[ids.size() - 4];
      Status left = (*searched)->Unsubscribe(leaving);
      EXPECT_EQ((*rebuilt)->Unsubscribe(leaving).code(), left.code());
    }
  }
  Status finished = walk.RunToEnd(feed, apply);
  ASSERT_TRUE(finished.ok()) << finished;
  ASSERT_TRUE((*searched)->Shutdown().ok());
  ASSERT_TRUE((*rebuilt)->Shutdown().ok());

  // The history exercised the kinds of choice the case can make. On the
  // extended example tapping the one stream at its source always beats
  // shipping it raw; the grid's far-corner queries ship raw.
  EXPECT_GE(compared, static_cast<int>(n) * 2 / 3);
  if (param.grid) {
    EXPECT_GT(raw, 0);
  }
  EXPECT_GT(derived_taps, 0);
  if (param.widening) {
    EXPECT_GT(widenings, 0);
  }
  EXPECT_EQ((*searched)->recovery_reports().size(), 2u);

  // The rebuilt deployment delivered exactly what the searched one did.
  const auto& want_regs = (*searched)->registrations();
  const auto& got_regs = (*rebuilt)->registrations();
  ASSERT_EQ(got_regs.size(), want_regs.size());
  for (size_t q = 0; q < want_regs.size(); ++q) {
    const engine::SinkOp* a = got_regs[q].sink;
    const engine::SinkOp* b = want_regs[q].sink;
    ASSERT_EQ(a == nullptr, b == nullptr) << "query " << q;
    if (b == nullptr) continue;
    EXPECT_EQ(a->item_count(), b->item_count()) << "query " << q;
    EXPECT_EQ(a->content_hash(), b->content_hash()) << "query " << q;
  }
  EXPECT_EQ((*rebuilt)->DescribeDeployment(),
            (*searched)->DescribeDeployment());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PlanRebuildWalk,
    ::testing::Values(RebuildCase{"grid", true, false, false},
                      RebuildCase{"grid_widening", true, true, false},
                      RebuildCase{"extended", false, false, false},
                      RebuildCase{"extended_widening", false, true, false},
                      RebuildCase{"extended_subnets", false, false, true}),
    [](const ::testing::TestParamInfo<RebuildCase>& info) {
      return std::string(info.param.name);
    });

// A choice that does not fit the system state — the wrong number of
// inputs, a stream the registry never held, a tap off the stream's route
// — is refused, never built into some other plan.
TEST(PlanRebuild, ChoicesThatDoNotFitAreRefused) {
  const workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/29, /*query_count=*/4);
  auto system = workload::BuildSystem(scenario, sharing::SystemConfig{});
  ASSERT_TRUE(system.ok()) << system.status();
  const workload::QuerySpec& query = scenario.queries[0];
  auto refused = [&](std::vector<PlanChoice> choices) {
    return (*system)
        ->RegisterQuery(query.text, query.target,
                        sharing::Strategy::kStreamSharing, &choices)
        .status();
  };
  EXPECT_TRUE(refused({}).IsInvalidArgument());
  EXPECT_TRUE(
      refused({{PlanChoice::Kind::kTap, 99, 4}}).IsInvalidArgument());
  EXPECT_TRUE(
      refused({{PlanChoice::Kind::kTap, 0, 1}}).IsInvalidArgument());
  EXPECT_TRUE(
      refused({{PlanChoice::Kind::kShipRaw, 0, 1}}).IsInvalidArgument());
  std::vector<PlanChoice> shipping = {{PlanChoice::Kind::kShipRaw, 0, 4}};
  EXPECT_TRUE((*system)
                  ->RegisterQuery(query.text, query.target,
                                  sharing::Strategy::kDataShipping,
                                  &shipping)
                  .status()
                  .IsInvalidArgument());
  // None of the refusals consumed a query id; the fitting choice builds.
  Result<RegistrationResult> built = (*system)->RegisterQuery(
      query.text, query.target, sharing::Strategy::kStreamSharing,
      &shipping);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->query_id, 0);
  EXPECT_TRUE(built->accepted);
}

}  // namespace
}  // namespace streamshare
