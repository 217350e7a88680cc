// The measured-latency plane: stamp primitives, window-emission stamp
// attribution, sink-side recording, and the system-level audit pairing
// each query's measured p50 with its plan's predicted latency.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/latency.h"
#include "engine/operator.h"
#include "engine/window_agg.h"
#include "obs/metrics_registry.h"
#include "sharing/latency_audit.h"
#include "sharing/system.h"
#include "workload/paper_queries.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"
#include "item_feed.h"

namespace streamshare {
namespace {

using engine::ItemBatch;
using engine::ItemPtr;
using engine::latency::ItemStamp;
using engine::latency::NowUs;

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

// --- Stamp primitives ---------------------------------------------------

TEST(LatencyStampTest, NowUsIsMonotoneAndNeverZero) {
  uint64_t first = NowUs();
  uint64_t second = NowUs();
  EXPECT_GT(first, 0u);  // 0 is reserved for "unstamped"
  EXPECT_GE(second, first);
}

TEST(LatencyStampTest, DefaultStampIsUnstamped) {
  ItemStamp stamp;
  EXPECT_FALSE(stamp.stamped());
  stamp.ingress_us = NowUs();
  EXPECT_TRUE(stamp.stamped());
}

// --- Window emissions ---------------------------------------------------

/// Forwards every batch, recording the ingress tick each slot carries.
class StampProbeOp final : public engine::Operator {
 public:
  using Operator::Operator;
  std::vector<uint64_t> ingress;

 protected:
  Status ProcessBatch(ItemBatch* batch) override {
    for (size_t i = 0; i < batch->size(); ++i) {
      ingress.push_back(batch->slot(i).stamp.ingress_us);
    }
    return EmitBatch(batch);
  }
};

/// Forwards each batch once the clock has moved past its slots' ingress
/// ticks, so that every delivery's measured latency is at least one clock
/// step: a push faster than the clock's resolution reads 0 µs otherwise.
class ClockStepOp final : public engine::Operator {
 public:
  using Operator::Operator;

 protected:
  Status ProcessBatch(ItemBatch* batch) override {
    uint64_t latest = 0;
    for (size_t i = 0; i < batch->size(); ++i) {
      latest = std::max(latest, batch->slot(i).stamp.ingress_us);
    }
    while (NowUs() <= latest) {
    }
    return EmitBatch(batch);
  }
};

// avg(en) over tumbling count windows of 3 → stamp probe → sink, fed one
// batch of 8 photons with slot i stamped at tick 1000 + i (the feed keeps
// pre-set stamps). Windows 0 and 1 close mid-batch, on slots 3 and 6, and
// carry those slots' ticks; window 2 is flushed at end of stream and
// stays unstamped.
TEST(WindowStampTest, EmissionsCarryClosingSlotStampSerially) {
  for (bool records : {true, false}) {
    SCOPED_TRACE(records ? "record slots" : "opaque slots");
    engine::OperatorGraph graph;
    auto* agg = graph.Add<engine::WindowAggOp>(
        "agg", properties::AggregateFunc::kAvg,
        xml::Path::Parse("en").value(),
        properties::WindowSpec::Count(3).value());
    auto* probe = graph.Add<StampProbeOp>("probe");
    auto* sink = graph.Add<engine::SinkOp>("sink");
    sink->EnableLatencyRecording("latency_plane_window_stamps");
    agg->AddDownstream(probe);
    probe->AddDownstream(sink);

    workload::PhotonGenerator generator(workload::PhotonGenConfig{});
    std::vector<std::vector<ItemBatch>> batches = {
        generator.GenerateBatches(8, 8)};
    ItemBatch& batch = batches[0].front();
    if (!records) batch.MakeOpaque();
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.slot(i).stamp.ingress_us = 1000 + i;
    }
    ASSERT_TRUE(engine::RunBatchStreams({agg}, &batches).ok());

    EXPECT_EQ(probe->ingress, (std::vector<uint64_t>{1003, 1006, 0}));
    EXPECT_EQ(sink->item_count(), 3u);
    EXPECT_EQ(sink->stamped_count(), 2u);
    EXPECT_EQ(sink->stamp_regressions(), 0u);
  }
}

// --- Sink recording -----------------------------------------------------

TEST(SinkLatencyTest, SerialRunStampsAndRecordsEveryItem) {
  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* step = graph.Add<ClockStepOp>("step");
  auto* sink = graph.Add<engine::SinkOp>("sink");
  entry->AddDownstream(step);
  step->AddDownstream(sink);
  sink->EnableLatencyRecording("latency_plane_unit_serial");

  std::vector<ItemPtr> fed;
  for (int i = 0; i < 50; ++i) fed.push_back(Leaf("n", std::to_string(i)));
  ASSERT_TRUE(engine::RunItems(entry, fed).ok());

  EXPECT_EQ(sink->item_count(), 50u);
  EXPECT_EQ(sink->stamped_count(), 50u);
  // Serial feeding is ordered, so measured ingress ticks are monotone.
  EXPECT_EQ(sink->stamp_regressions(), 0u);
  const obs::Histogram* histogram = sink->latency_histogram();
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->Count(), 50u);
  EXPECT_GT(histogram->Max(), 0.0);
  EXPECT_GE(histogram->Quantile(0.99), histogram->Quantile(0.50));
}

// One batch mixing repeated, unstamped and out-of-order stamps: every
// stamped arrival counts once in the one per-query histogram, and each
// fall of the ingress tick is one regression.
TEST(SinkLatencyTest, MixedStampsCountEveryStampedArrival) {
  engine::OperatorGraph graph;
  auto* sink = graph.Add<engine::SinkOp>("sink");
  sink->EnableLatencyRecording("latency_plane_unit_mixed");
  const uint64_t t = NowUs();
  const ItemStamp a{t - 1000};
  const ItemStamp b{t - 900};
  const ItemStamp c{t - 2000};  // older than a: a regression
  const std::vector<ItemStamp> stamps = {a, a, b, b, b, a, ItemStamp{}, c};
  ItemBatch batch;
  for (size_t i = 0; i < stamps.size(); ++i) {
    batch.AppendItem(Leaf("n", std::to_string(i)), /*adopt=*/false);
    batch.slot(i).stamp = stamps[i];
  }
  ASSERT_TRUE(sink->PushBatch(&batch).ok());
  ASSERT_TRUE(sink->Finish().ok());

  EXPECT_EQ(sink->item_count(), 8u);
  EXPECT_EQ(sink->stamped_count(), 7u);
  // a→b rises; b→a and a→c fall (the unstamped slot is skipped).
  EXPECT_EQ(sink->stamp_regressions(), 2u);
  EXPECT_EQ(sink->latency_histogram()->Count(), 7u);
  // The end-to-end histogram is the sink's only latency series.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const std::string prefix = "latency.query.latency_plane_unit_mixed";
  EXPECT_EQ(registry.FindHistogram(prefix + ".e2e_us"),
            sink->latency_histogram());
  for (const char* stage : {"pipeline_us", "queue_us", "transport_us"}) {
    EXPECT_EQ(registry.FindHistogram(prefix + ".stage." + stage), nullptr)
        << stage;
  }
}

TEST(SinkLatencyTest, DisabledStampingRecordsNothing) {
  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* sink = graph.Add<engine::SinkOp>("sink");
  entry->AddDownstream(sink);
  sink->EnableLatencyRecording("latency_plane_unit_disabled");

  std::vector<ItemPtr> fed;
  for (int i = 0; i < 10; ++i) fed.push_back(Leaf("n", std::to_string(i)));
  std::vector<std::vector<ItemBatch>> batches = {
      engine::ChunkItems(fed, /*batch_size=*/1, /*adopt=*/false)};
  ASSERT_TRUE(engine::RunBatchStreams({entry}, &batches, /*finish=*/true,
                                      /*stamp=*/false)
                  .ok());
  EXPECT_EQ(sink->item_count(), 10u);
  EXPECT_EQ(sink->stamped_count(), 0u);
  ASSERT_NE(sink->latency_histogram(), nullptr);
  EXPECT_EQ(sink->latency_histogram()->Count(), 0u);
}

// --- System-level: per-query histograms and the audit -------------------

TEST(LatencyAuditTest, MeasuredLatencyPairsWithPlanPrediction) {
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/4);
  sharing::SystemConfig config;
  Result<std::unique_ptr<sharing::StreamShareSystem>> built =
      workload::BuildSystem(scenario, config);
  ASSERT_TRUE(built.ok()) << built.status();
  sharing::StreamShareSystem& system = **built;

  Result<sharing::RegistrationResult> q1 = system.RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(q1.ok()) << q1.status();
  ASSERT_TRUE(q1->accepted);

  workload::PhotonGenerator generator(scenario.streams[0].gen);
  std::map<std::string, std::vector<ItemPtr>> items;
  items["photons"] = generator.Generate(400);
  ASSERT_TRUE(system.Run(items).ok());

  const sharing::RegistrationResult& registration =
      system.registrations()[0];
  ASSERT_NE(registration.sink, nullptr);
  EXPECT_GT(registration.sink->item_count(), 0u);
  EXPECT_EQ(registration.sink->stamped_count(),
            registration.sink->item_count());
  EXPECT_EQ(registration.sink->stamp_regressions(), 0u);

  std::vector<sharing::QueryLatencyAudit> audits =
      sharing::CollectLatencyAudit(system.registrations());
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_EQ(audits[0].query_id, registration.query_id);
  EXPECT_TRUE(audits[0].has_measurement());
  EXPECT_GT(audits[0].measured_p50_ms, 0.0);
  EXPECT_GE(audits[0].measured_p99_ms, audits[0].measured_p50_ms);

  // The report table names the query and renders without crashing.
  std::string report = sharing::FormatLatencyReport(audits);
  EXPECT_NE(report.find("q0"), std::string::npos);
  EXPECT_NE(report.find("predicted_ms"), std::string::npos);

  // ExportMetrics republishes the histogram summary as ms gauges plus
  // the audit gauges.
  obs::MetricsRegistry registry;
  system.ExportMetrics(&registry);
  EXPECT_GT(registry.GetGauge("latency.query.q0.p50_ms")->Value(), 0.0);
  EXPECT_GE(registry.GetGauge("latency.query.q0.p99_ms")->Value(),
            registry.GetGauge("latency.query.q0.p50_ms")->Value());
  EXPECT_GT(registry.GetGauge("latency.query.q0.max_ms")->Value(), 0.0);
  EXPECT_GT(registry.GetGauge("latency.query.q0.stamped_items")->Value(),
            0.0);
  EXPECT_GT(registry.GetGauge("latency.audit.q0.measured_p50_ms")->Value(),
            0.0);
}

TEST(LatencyAuditTest, NoStampingMeansNoMeasurementInTheAudit) {
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/4);
  sharing::SystemConfig config;
  config.measure_latency = false;
  Result<std::unique_ptr<sharing::StreamShareSystem>> built =
      workload::BuildSystem(scenario, config);
  ASSERT_TRUE(built.ok()) << built.status();
  sharing::StreamShareSystem& system = **built;

  Result<sharing::RegistrationResult> q1 = system.RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(q1.ok()) << q1.status();
  ASSERT_TRUE(q1->accepted);

  workload::PhotonGenerator generator(scenario.streams[0].gen);
  std::map<std::string, std::vector<ItemPtr>> items;
  items["photons"] = generator.Generate(100);
  ASSERT_TRUE(system.Run(items).ok());

  const sharing::RegistrationResult& registration =
      system.registrations()[0];
  ASSERT_NE(registration.sink, nullptr);
  EXPECT_GT(registration.sink->item_count(), 0u);
  EXPECT_EQ(registration.sink->stamped_count(), 0u);

  std::vector<sharing::QueryLatencyAudit> audits =
      sharing::CollectLatencyAudit(system.registrations());
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_FALSE(audits[0].has_measurement());
  std::string report = sharing::FormatLatencyReport(audits);
  EXPECT_NE(report.find("no stamps"), std::string::npos);
}

}  // namespace
}  // namespace streamshare
