// The serve plane's acceptance invariant: a live-subscribed query's
// delivered results are byte-identical (counts, bytes, order-insensitive
// content hash) to a batch run of the same query over the same items —
// including across a graceful restartable drain and restart, and under
// mid-stream churn. The gap-not-garbage resume flavor has its own
// property: no duplicate deliveries, subscriptions survive the restart.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/serve_oracle.h"
#include "serve/wal.h"
#include "workload/scenario.h"

namespace streamshare::serve {
namespace {

struct BatchObservation {
  bool accepted = false;
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t content_hash = 0;
};

/// Batch reference mirroring exactly what the daemon hosts: same
/// registration order, same generated items, churn applied at the same
/// per-stream offsets, windows flushed at the end.
std::vector<BatchObservation> RunBatch(
    const workload::ScenarioSpec& scenario, size_t items_per_stream,
    const std::vector<workload::ChurnEvent>& churn = {}) {
  sharing::SystemConfig config;
  config.keep_results = true;
  auto built = workload::BuildSystem(scenario, config);
  EXPECT_TRUE(built.ok()) << built.status();
  std::unique_ptr<sharing::StreamShareSystem> system = std::move(*built);

  std::vector<BatchObservation> observations;
  for (const workload::QuerySpec& query : scenario.queries) {
    auto result = system->RegisterQuery(query.text, query.target,
                                        sharing::Strategy::kStreamSharing);
    EXPECT_TRUE(result.ok()) << result.status();
    BatchObservation observation;
    observation.accepted = result.ok() && result->accepted;
    if (observation.accepted) result->sink->EnableContentHash();
    observations.push_back(observation);
  }

  std::map<std::string, std::vector<engine::ItemPtr>> items;
  for (const workload::StreamSpec& stream : scenario.streams) {
    workload::PhotonGenerator generator(stream.gen);
    items[stream.name] = generator.Generate(items_per_stream);
  }
  size_t fed = 0;
  for (const workload::ChurnEvent& event : churn) {
    size_t upto = std::min(event.at_offset, items_per_stream);
    if (upto > fed) {
      std::map<std::string, std::vector<engine::ItemPtr>> slice;
      for (const auto& [name, list] : items) {
        slice[name].assign(list.begin() + fed, list.begin() + upto);
      }
      EXPECT_TRUE(system->Feed(slice).ok());
      fed = upto;
    }
    if (event.kind == workload::ChurnEvent::Kind::kFailPeer) {
      EXPECT_TRUE(system->FailPeer(event.peer).status().ok());
    } else {
      EXPECT_TRUE(system->CutLink(event.link_a, event.link_b).status().ok());
    }
  }
  {
    std::map<std::string, std::vector<engine::ItemPtr>> slice;
    for (const auto& [name, list] : items) {
      slice[name].assign(list.begin() + fed, list.end());
    }
    EXPECT_TRUE(system->Feed(slice).ok());
  }
  EXPECT_TRUE(system->Shutdown().ok());

  const std::vector<sharing::RegistrationResult>& registrations =
      system->registrations();
  for (size_t i = 0; i < observations.size(); ++i) {
    if (!observations[i].accepted) continue;
    const engine::SinkOp* sink = registrations[i].sink;
    observations[i].items = sink->item_count();
    observations[i].bytes = sink->total_bytes();
    observations[i].content_hash = sink->content_hash();
  }
  return observations;
}

void ExpectLiveMatchesBatch(const ServeRunReport& live,
                            const std::vector<BatchObservation>& batch) {
  ASSERT_EQ(live.queries.size(), batch.size());
  uint64_t total = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const ServeQueryObservation& observed = live.queries[i];
    EXPECT_EQ(observed.accepted, batch[i].accepted) << "query " << i;
    if (!batch[i].accepted) continue;
    EXPECT_EQ(observed.items, batch[i].items) << "query " << i;
    EXPECT_EQ(observed.bytes, batch[i].bytes) << "query " << i;
    EXPECT_EQ(observed.content_hash, batch[i].content_hash)
        << "query " << i;
    total += batch[i].items;
  }
  EXPECT_GT(total, 0u) << "batch reference delivered nothing; the "
                          "identity check is vacuous";
}

TEST(ServeEndToEnd, LiveSubscriptionMatchesBatchByteForByte) {
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/6);
  constexpr size_t kItems = 240;

  ServeRunOptions options;
  options.items_per_stream = kItems;
  options.feed_chunk = 17;  // deliberately ragged chunking
  auto live = RunScenarioThroughDaemon(scenario, options);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live->items_fed, kItems);

  ExpectLiveMatchesBatch(*live, RunBatch(scenario, kItems));
}

TEST(ServeEndToEnd, IdentityHoldsAcrossDrainAndReplayRestart) {
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/6);
  constexpr size_t kItems = 240;

  ServeRunOptions options;
  options.items_per_stream = kItems;
  options.feed_chunk = 16;
  options.drain_at = 100;  // mid-window: replay must reconstruct state
  options.checkpoint_path =
      ::testing::TempDir() + "/serve_e2e_replay.ckpt";
  options.resume = ResumeFlavor::kReplay;
  auto live = RunScenarioThroughDaemon(scenario, options);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live->epochs, 2u);
  EXPECT_EQ(live->items_fed, kItems);

  ExpectLiveMatchesBatch(*live, RunBatch(scenario, kItems));
  std::remove(options.checkpoint_path.c_str());
  std::remove(DefaultWalPath(options.checkpoint_path).c_str());
}

TEST(ServeEndToEnd, ChurnedLiveMatchesChurnedBatch) {
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/6);
  constexpr size_t kItems = 240;

  workload::ChurnEvent fail;
  fail.kind = workload::ChurnEvent::Kind::kFailPeer;
  fail.peer = 2;
  fail.at_offset = 120;

  ServeRunOptions options;
  options.items_per_stream = kItems;
  options.churn = {fail};
  auto live = RunScenarioThroughDaemon(scenario, options);
  ASSERT_TRUE(live.ok()) << live.status();

  ExpectLiveMatchesBatch(*live, RunBatch(scenario, kItems, {fail}));
}

TEST(ServeEndToEnd, GapResumeNeverDuplicatesAndKeepsSubscriptions) {
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/6);
  constexpr size_t kItems = 240;

  ServeRunOptions options;
  options.items_per_stream = kItems;
  options.drain_at = 100;
  options.checkpoint_path = ::testing::TempDir() + "/serve_e2e_gap.ckpt";
  options.resume = ResumeFlavor::kGap;
  auto live = RunScenarioThroughDaemon(scenario, options);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live->epochs, 2u);

  // Gap mode drops open-window state instead of reconstructing it, so a
  // query may deliver fewer items than the uninterrupted batch — but
  // never more (no duplicates), and every accepted subscription must
  // still be installed and delivering after the restart.
  std::vector<BatchObservation> batch = RunBatch(scenario, kItems);
  ASSERT_EQ(live->queries.size(), batch.size());
  uint64_t live_total = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(live->queries[i].accepted, batch[i].accepted);
    if (!batch[i].accepted) continue;
    EXPECT_LE(live->queries[i].items, batch[i].items) << "query " << i;
    live_total += live->queries[i].items;
  }
  EXPECT_GT(live_total, 0u);
  std::remove(options.checkpoint_path.c_str());
  std::remove(DefaultWalPath(options.checkpoint_path).c_str());
}

}  // namespace
}  // namespace streamshare::serve
