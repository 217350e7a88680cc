// Live operation: continuous queries come and go *while* the stream
// flows. Registration mid-stream attaches to the shared taps and sees
// only future items; deregistration detaches without disturbing other
// subscribers; window operators joining late fast-forward onto the
// absolute window axis.

#include <gtest/gtest.h>

#include "sharing/system.h"
#include "workload/paper_queries.h"
#include "workload/photon_gen.h"

namespace streamshare {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

class LiveRegistrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sharing::SystemConfig config;
    config.keep_results = true;
    system_ = std::make_unique<sharing::StreamShareSystem>(
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

    workload::PhotonGenConfig gen_config;
    gen_config.hot_regions = {{120.0, 138.0, -49.0, -40.0}};
    gen_config.hot_weights = {3.0};
    generator_ =
        std::make_unique<workload::PhotonGenerator>(gen_config);
  }

  /// Continuous feeding: no end-of-stream between batches.
  Status RunBatch(size_t count) {
    std::map<std::string, std::vector<engine::ItemPtr>> items;
    items["photons"] = generator_->Generate(count);
    return system_->Feed(items);
  }

  std::unique_ptr<sharing::StreamShareSystem> system_;
  std::unique_ptr<workload::PhotonGenerator> generator_;
};

TEST_F(LiveRegistrationTest, LateSubscribersSeeOnlyFutureItems) {
  Result<sharing::RegistrationResult> early = system_->RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(early.ok());

  ASSERT_TRUE(RunBatch(500).ok());
  uint64_t early_after_first = early->sink->item_count();
  EXPECT_GT(early_after_first, 0u);

  // Identical query registered mid-stream: it reuses the early query's
  // stream but receives only the second batch.
  Result<sharing::RegistrationResult> late = system_->RegisterQuery(
      workload::kQuery1, 7, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(late.ok());
  EXPECT_GT(late->plan.inputs[0].reused_stream, 0);

  ASSERT_TRUE(RunBatch(500).ok());
  uint64_t early_total = early->sink->item_count();
  EXPECT_GT(early_total, early_after_first);
  EXPECT_EQ(late->sink->item_count(), early_total - early_after_first);
  // And the overlapping portion is item-for-item identical.
  for (size_t i = 0; i < late->sink->items().size(); ++i) {
    EXPECT_TRUE(late->sink->items()[i]->Equals(
        *early->sink->items()[early_after_first + i]));
  }
}

TEST_F(LiveRegistrationTest, LateAggregateFastForwardsWindows) {
  ASSERT_TRUE(RunBatch(800).ok());  // stream has been flowing for a while

  Result<sharing::RegistrationResult> agg = system_->RegisterQuery(
      workload::kQuery3, 3, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(RunBatch(800).ok());
  ASSERT_TRUE(system_->Shutdown().ok());
  // Windows arrive despite the late start (no stall waiting for the
  // stream's origin), with sequence numbers on the absolute axis.
  ASSERT_GT(agg->sink->item_count(), 3u);
}

TEST_F(LiveRegistrationTest, FeedCarriesWindowStateAcrossBatches) {
  // A window spanning a batch boundary must aggregate items from both
  // batches — Feed does not flush, unlike single-shot Run.
  Result<sharing::RegistrationResult> agg = system_->RegisterQuery(
      "<o> { for $w in stream(\"photons\")/photons/photon "
      "|count 100| let $a := count($w/en) "
      "return <n> { $a } </n> } </o>",
      1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(RunBatch(150).ok());  // window [0,100) closed, 50 buffered
  EXPECT_EQ(agg->sink->item_count(), 1u);
  // Window [100,200) spans the batch boundary; it closes mid-batch-2.
  // Window [200,300) is full but only a later item (or the flush) can
  // prove it complete.
  ASSERT_TRUE(RunBatch(150).ok());
  EXPECT_EQ(agg->sink->item_count(), 2u);
  ASSERT_TRUE(system_->Shutdown().ok());  // flushes [200,300)
  EXPECT_EQ(agg->sink->item_count(), 3u);
  for (const engine::ItemPtr& item : agg->sink->items()) {
    EXPECT_EQ(item->text(), "100");  // every window holds 100 items
  }
}

TEST_F(LiveRegistrationTest, MidStreamChurn) {
  // Register, run, deregister, run, re-register: every phase delivers to
  // exactly the subscriptions active during it.
  Result<sharing::RegistrationResult> a = system_->RegisterQuery(
      workload::kQuery2, 7, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(RunBatch(400).ok());
  uint64_t a_phase1 = a->sink->item_count();

  ASSERT_TRUE(system_->Unsubscribe(a->query_id).ok());
  ASSERT_TRUE(RunBatch(400).ok());
  EXPECT_EQ(a->sink->item_count(), a_phase1);  // no longer fed

  Result<sharing::RegistrationResult> b = system_->RegisterQuery(
      workload::kQuery2, 7, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(RunBatch(400).ok());
  EXPECT_GT(b->sink->item_count(), 0u);
  EXPECT_EQ(a->sink->item_count(), a_phase1);
}

}  // namespace
}  // namespace streamshare
