// The serve plane's acceptance invariant: a live-subscribed query's
// delivered results are byte-identical (counts, bytes, order-insensitive
// content hash) to a batch run of the same query over the same items —
// including across a graceful restartable drain and restart, and under
// mid-stream churn. The gap-not-garbage resume flavor has its own
// property: no duplicate deliveries, subscriptions survive the restart.

#include <cstdio>
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
/// registration order, same generated items, churn applied by the same
/// walk, windows flushed at the end.
std::vector<BatchObservation> RunBatch(
    const workload::ScenarioSpec& scenario, size_t items_per_stream,
    const std::vector<workload::ChurnEvent>& churn = {}) {
  sharing::SystemConfig config;
  config.keep_results = true;
  Result<workload::ScenarioRun> run =
      workload::RunScenario(scenario, sharing::Strategy::kStreamSharing,
                            config, items_per_stream, churn);
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return {};
  EXPECT_EQ(run->registration_failures, 0);

  std::vector<BatchObservation> observations;
  for (const sharing::RegistrationResult& registration :
       run->system->registrations()) {
    BatchObservation observation;
    observation.accepted = registration.accepted;
    if (observation.accepted) {
      observation.items = registration.sink->item_count();
      observation.bytes = registration.sink->total_bytes();
      observation.content_hash = registration.sink->content_hash();
    }
    observations.push_back(observation);
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
