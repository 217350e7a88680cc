// The index-vs-BFS differential tier (ARCHITECTURE.md invariant 10): the
// candidate index must never change planning outcomes, only the set of
// candidates examined. Every sweep seed generates one randomized scenario
// and registers it twice — once on a system with the candidate index
// (the default), once with the flat per-node registry walk (the oracle
// form of Algorithm 1) — and demands, per query:
//
//   * identical registration outcome and admission decision,
//   * the identical chosen plan per input — same reused stream, same
//     reuse node, same widening decision, bit-identical C(P),
//   * the indexed search examined no more candidates than the flat walk,
//   * every plan the indexed search generated corresponds to a candidate
//     the flat walk also generated (index candidates ⊆ BFS candidates).
//
// Scenarios that carry churn events then push both systems through the
// same failures, an unsubscribe (refcounted stream GC), and a second
// registration wave — the incremental index maintenance on install, GC,
// and recovery has to keep the two planners in lockstep throughout.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "network/stream_registry.h"
#include "sharing/candidate_index.h"
#include "sharing/system.h"
#include "testing/fuzz_scenario.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"

namespace streamshare {
namespace {

using sharing::RegistrationResult;
using sharing::StreamShareSystem;
using sharing::SystemConfig;
using workload::ChurnEvent;
using testing::FuzzScenario;
using testing::FuzzStreamSpec;

Result<std::unique_ptr<StreamShareSystem>> BuildScenarioSystem(
    const FuzzScenario& scenario, bool indexed) {
  SS_ASSIGN_OR_RETURN(network::Topology topology,
                      scenario.topology.Build());
  SystemConfig config;
  config.candidate_index = indexed;
  auto system = std::make_unique<StreamShareSystem>(std::move(topology),
                                                    config);
  for (const FuzzStreamSpec& stream : scenario.streams) {
    workload::PhotonGenConfig gen =
        testing::StreamGenConfig(scenario, stream);
    SS_RETURN_IF_ERROR(system->RegisterStream(
        stream.name, workload::PhotonGenerator::Schema(),
        gen.frequency_hz, stream.source));
  }
  return system;
}

/// (input stream, reused stream, reuse node, widening) of one generated
/// candidate plan — the identity the subset check compares on.
using CandidateKey =
    std::tuple<std::string, network::StreamId, network::NodeId, bool>;

/// Registers one query on both systems and cross-checks every piece of
/// invariant 10. Returns the (identical) acceptance so callers can drive
/// unsubscribes.
void RegisterAndCompare(StreamShareSystem* with_index,
                        StreamShareSystem* flat_walk,
                        const std::string& text, network::NodeId target,
                        const std::string& label, bool* accepted_out) {
  SCOPED_TRACE(label + " [" + text + "]");
  Result<RegistrationResult> indexed = with_index->RegisterQuery(
      text, target, sharing::Strategy::kStreamSharing);
  Result<RegistrationResult> walked = flat_walk->RegisterQuery(
      text, target, sharing::Strategy::kStreamSharing);
  ASSERT_EQ(indexed.ok(), walked.ok())
      << "indexed: " << indexed.status()
      << " flat: " << walked.status();
  if (accepted_out != nullptr) *accepted_out = false;
  if (!indexed.ok()) return;

  ASSERT_EQ(indexed->accepted, walked->accepted)
      << "indexed reject: " << indexed->reject_reason
      << " flat reject: " << walked->reject_reason;
  if (accepted_out != nullptr) *accepted_out = indexed->accepted;

  // The chosen plan must be the same plan, not merely an equally priced
  // one: same reuse decisions and bit-identical C(P) per input (both
  // arms cost identical plans with identical arithmetic).
  ASSERT_EQ(indexed->plan.inputs.size(), walked->plan.inputs.size());
  for (size_t i = 0; i < indexed->plan.inputs.size(); ++i) {
    const sharing::InputPlan& a = indexed->plan.inputs[i];
    const sharing::InputPlan& b = walked->plan.inputs[i];
    EXPECT_EQ(a.reused_stream, b.reused_stream) << "input " << i;
    EXPECT_EQ(a.reuse_node, b.reuse_node) << "input " << i;
    EXPECT_EQ(a.widening.has_value(), b.widening.has_value())
        << "input " << i;
    EXPECT_EQ(a.cost, b.cost) << "input " << i;
    EXPECT_EQ(a.feasible, b.feasible) << "input " << i;
    EXPECT_EQ(a.ships_raw_stream, b.ships_raw_stream) << "input " << i;
  }

  // Effort: the index consults a narrower candidate set, never a wider
  // one...
  EXPECT_LE(indexed->search.candidates_examined,
            walked->search.candidates_examined);
  // ...and everything it did generate, the flat walk generated too.
  std::set<CandidateKey> flat_candidates;
  for (const sharing::CandidatePlanInfo& candidate :
       walked->search.candidates) {
    flat_candidates.emplace(candidate.input_stream,
                            candidate.reused_stream, candidate.reuse_node,
                            candidate.widening);
  }
  for (const sharing::CandidatePlanInfo& candidate :
       indexed->search.candidates) {
    EXPECT_EQ(flat_candidates.count({candidate.input_stream,
                                     candidate.reused_stream,
                                     candidate.reuse_node,
                                     candidate.widening}),
              1u)
        << "indexed-only candidate: stream " << candidate.reused_stream
        << " at node " << candidate.reuse_node;
  }
}

/// The index's live-stream census must agree with the registry after any
/// mutation sequence (install, widening update, GC, recovery retirement).
void ExpectIndexMatchesRegistry(const StreamShareSystem& system) {
  const sharing::CandidateIndex* index = system.candidate_index();
  ASSERT_NE(index, nullptr);
  size_t live = 0;
  for (const network::RegisteredStream& stream :
       system.registry().streams()) {
    if (!stream.retired) ++live;
  }
  EXPECT_EQ(index->live_count(), live);
}

class CandidateIndexSweep : public ::testing::TestWithParam<int> {};

TEST_P(CandidateIndexSweep, IndexedAndFlatPlanIdentically) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  testing::GeneratorOptions options;
  options.churn_probability = 0.5;
  FuzzScenario scenario = testing::GenerateScenario(seed, options);

  Result<std::unique_ptr<StreamShareSystem>> indexed =
      BuildScenarioSystem(scenario, /*indexed=*/true);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  Result<std::unique_ptr<StreamShareSystem>> flat =
      BuildScenarioSystem(scenario, /*indexed=*/false);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_NE((*indexed)->candidate_index(), nullptr);
  ASSERT_EQ((*flat)->candidate_index(), nullptr);

  // Wave 1: the scenario's subscriptions, in order.
  std::vector<bool> accepted(scenario.queries.size(), false);
  for (size_t q = 0; q < scenario.queries.size(); ++q) {
    bool ok = false;
    RegisterAndCompare(indexed->get(), flat->get(),
                       scenario.queries[q].ToQueryText(),
                       scenario.queries[q].target,
                       "wave1 q" + std::to_string(q), &ok);
    accepted[q] = ok;
  }
  ExpectIndexMatchesRegistry(**indexed);

  // Churn: both systems take the same failures; recovery retires severed
  // streams and re-registers replanned ones, and the index must track
  // every one of those mutations.
  for (const ChurnEvent& event : scenario.churn) {
    if (event.kind == ChurnEvent::Kind::kFailPeer) {
      auto a = (*indexed)->FailPeer(event.peer);
      auto b = (*flat)->FailPeer(event.peer);
      ASSERT_EQ(a.ok(), b.ok());
    } else {
      auto a = (*indexed)->CutLink(event.link_a, event.link_b);
      auto b = (*flat)->CutLink(event.link_a, event.link_b);
      ASSERT_EQ(a.ok(), b.ok());
    }
    ExpectIndexMatchesRegistry(**indexed);
  }

  // Unsubscribe the first accepted query that survived the churn: the
  // refcounted stream GC must come off the index too. A query the churn
  // already tore down rejects the unsubscribe on both systems alike.
  for (size_t q = 0; q < accepted.size(); ++q) {
    if (!accepted[q]) continue;
    int query_id = static_cast<int>(q);
    Status a = (*indexed)->Unsubscribe(query_id);
    Status b = (*flat)->Unsubscribe(query_id);
    ASSERT_EQ(a.ok(), b.ok())
        << "unsubscribe q" << q << " indexed: " << a << " flat: " << b;
    if (a.ok()) break;
  }
  ExpectIndexMatchesRegistry(**indexed);

  // Wave 2: the same templates again, planned against the churned and
  // GC'd stream population. Divergence here means the incremental index
  // maintenance drifted from the registry.
  for (size_t q = 0; q < scenario.queries.size(); ++q) {
    RegisterAndCompare(indexed->get(), flat->get(),
                       scenario.queries[q].ToQueryText(),
                       scenario.queries[q].target,
                       "wave2 q" + std::to_string(q), nullptr);
  }
  ExpectIndexMatchesRegistry(**indexed);
}

// 200 seeds at churn probability 0.5: ~100 of them churn, each scenario
// contributes two registration waves of 2-8 queries.
INSTANTIATE_TEST_SUITE_P(Seeds, CandidateIndexSweep,
                         ::testing::Range(0, 200));

// On a workload big enough to matter the index must actually prune:
// strictly fewer candidates examined than the flat walk for late
// registrations, with the pruned/suppressed counters accounting for the
// difference.
TEST(CandidateIndexEffort, LateRegistrationsExamineFewerCandidates) {
  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/17, /*query_count=*/60);
  SystemConfig with_index;
  with_index.candidate_index = true;
  SystemConfig without_index;
  without_index.candidate_index = false;
  Result<std::unique_ptr<StreamShareSystem>> indexed =
      workload::BuildSystem(scenario, with_index);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  Result<std::unique_ptr<StreamShareSystem>> flat =
      workload::BuildSystem(scenario, without_index);
  ASSERT_TRUE(flat.ok()) << flat.status();

  for (const workload::QuerySpec& query : scenario.queries) {
    Result<RegistrationResult> a = (*indexed)->RegisterQuery(
        query.text, query.target, sharing::Strategy::kStreamSharing);
    Result<RegistrationResult> b = (*flat)->RegisterQuery(
        query.text, query.target, sharing::Strategy::kStreamSharing);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->plan.TotalCost(), b->plan.TotalCost());
  }

  const auto& indexed_regs = (*indexed)->registrations();
  const auto& flat_regs = (*flat)->registrations();
  ASSERT_EQ(indexed_regs.size(), flat_regs.size());
  long indexed_examined = 0, flat_examined = 0, saved = 0;
  for (size_t q = 0; q < indexed_regs.size(); ++q) {
    indexed_examined += indexed_regs[q].search.candidates_examined;
    flat_examined += flat_regs[q].search.candidates_examined;
    saved += indexed_regs[q].search.candidates_pruned +
             indexed_regs[q].search.candidates_suppressed;
    // Flat runs never report index counters.
    EXPECT_EQ(flat_regs[q].search.candidates_pruned, 0);
    EXPECT_EQ(flat_regs[q].search.candidates_suppressed, 0);
  }
  EXPECT_LT(indexed_examined, flat_examined);
  EXPECT_GT(saved, 0);
}

}  // namespace
}  // namespace streamshare
