// The measured-latency plane: stamp primitives, queue-residency
// crediting, sink-side recording with stage attribution,
// the stamp's ride across the transport wire (v2 frame extension,
// fault-tolerant), and the system-level audit pairing each query's
// measured p50 with its plan's predicted latency. Window-emission stamp
// attribution is tested with the runner (test_transport_runner.cc).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/latency.h"
#include "engine/link_queue.h"
#include "engine/operator.h"
#include "obs/metrics_registry.h"
#include "sharing/latency_audit.h"
#include "sharing/system.h"
#include "transport/flow.h"
#include "transport/tcp.h"
#include "workload/paper_queries.h"
#include "workload/scenario.h"
#include "item_feed.h"

namespace streamshare {
namespace {

using engine::ItemBatch;
using engine::ItemPtr;
using engine::latency::ItemStamp;
using engine::latency::NowUs;
using transport::ChannelReceiver;
using transport::ChannelSender;
using transport::FaultPlan;
using transport::FlowOptions;
using transport::FrameType;
using transport::PipePair;
using transport::TcpTransport;

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

// --- Queue residency ----------------------------------------------------

TEST(LinkQueueResidencyTest, PopCreditsWaitToStampedSlotsAndHistogram) {
  engine::LinkQueue queue(64);
  obs::Histogram residency(obs::Histogram::ExponentialBounds(50, 1.6, 24));
  queue.SetResidencyHistogram(&residency);

  engine::LinkQueue::Entry entry;
  engine::OperatorGraph graph;
  entry.target = graph.Add<engine::SinkOp>("sink");
  entry.batch.AppendItem(Leaf("n", "1"), /*adopt=*/false);
  entry.batch.AppendItem(Leaf("n", "2"), /*adopt=*/false);
  entry.batch.slot(0).stamp.ingress_us = NowUs();
  // Slot 1 stays unstamped: residency must not invent a stamp for it.
  // Pretend the entry was enqueued 5ms ago (Push keeps a pre-set tick).
  entry.enqueued_us = NowUs() - 5000;
  queue.Push(std::move(entry));

  std::vector<engine::LinkQueue::Entry> out;
  queue.PopBatch(&out, 16);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GE(out[0].batch.slot(0).stamp.queue_us, 5000u);
  EXPECT_FALSE(out[0].batch.slot(1).stamp.stamped());
  EXPECT_EQ(out[0].batch.slot(1).stamp.queue_us, 0u);
  EXPECT_EQ(residency.Count(), 1u);
  EXPECT_GE(residency.Max(), 5000.0);
}

// An unstamped run installs no residency histogram (the runner does so
// only when it stamps), and such a queue takes no ticks at all.
TEST(LinkQueueResidencyTest, DisabledStampingLeavesEntriesUntouched) {
  engine::LinkQueue queue(64);

  engine::LinkQueue::Entry entry;
  engine::OperatorGraph graph;
  entry.target = graph.Add<engine::SinkOp>("sink");
  entry.batch.AppendItem(Leaf("n", "1"), /*adopt=*/false);
  entry.batch.AppendItem(Leaf("n", "2"), /*adopt=*/false);
  entry.batch.slot(0).stamp.ingress_us = NowUs();
  std::vector<engine::LinkQueue::Entry> pushed;
  pushed.push_back(std::move(entry));
  queue.PushBatch(&pushed);
  std::vector<engine::LinkQueue::Entry> out;
  queue.PopBatch(&out, 16);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].enqueued_us, 0u);
  EXPECT_EQ(out[0].batch.slot(0).stamp.queue_us, 0u);
  EXPECT_FALSE(out[0].batch.slot(1).stamp.stamped());
}

// --- Sink recording -----------------------------------------------------

TEST(SinkLatencyTest, SerialRunStampsAndRecordsEveryItem) {
  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* sink = graph.Add<engine::SinkOp>("sink");
  entry->AddDownstream(sink);
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
// stamped arrival counts once, stage histograms see only the nonzero
// stages, and each fall of the ingress tick is one regression. The stage
// values are the stamps' own, independent of the arrival tick, so their
// sums are exact.
TEST(SinkLatencyTest, MixedStampsCountEveryStampedArrival) {
  engine::OperatorGraph graph;
  auto* sink = graph.Add<engine::SinkOp>("sink");
  sink->EnableLatencyRecording("latency_plane_unit_mixed");
  const uint64_t t = NowUs();
  const ItemStamp a{t - 1000, 100, 0};
  const ItemStamp b{t - 900, 0, 700};
  const ItemStamp c{t - 2000, 100, 300};  // older than a: a regression
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
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::Histogram* queue = registry.FindHistogram(
      "latency.query.latency_plane_unit_mixed.stage.queue_us");
  const obs::Histogram* wire = registry.FindHistogram(
      "latency.query.latency_plane_unit_mixed.stage.transport_us");
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(queue->Count(), 4u);  // a ×3, c
  EXPECT_EQ(queue->Sum(), 400.0);
  EXPECT_EQ(queue->Max(), 100.0);
  EXPECT_EQ(queue->BucketValue(queue->BucketFor(100.0)), 4u);
  EXPECT_EQ(wire->Count(), 4u);  // b ×3, c
  EXPECT_EQ(wire->Sum(), 2400.0);
  EXPECT_EQ(wire->Max(), 700.0);
  EXPECT_EQ(wire->BucketValue(wire->BucketFor(700.0)), 3u);
  EXPECT_EQ(wire->BucketValue(wire->BucketFor(300.0)), 1u);
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

// --- The stamp across the wire ------------------------------------------

struct Channel {
  std::unique_ptr<ChannelSender> sender;
  std::unique_ptr<ChannelReceiver> receiver;
};

Channel MakeChannel(FaultPlan faults = {}) {
  TcpTransport transport;
  PipePair pair;
  Status status = transport.CreatePipe("chan", &pair);
  EXPECT_TRUE(status.ok()) << status.ToString();
  FlowOptions options;
  Channel channel;
  channel.sender = std::make_unique<ChannelSender>(
      "chan", std::move(pair.ends[0]), options, faults);
  channel.receiver = std::make_unique<ChannelReceiver>(
      "chan", std::move(pair.ends[1]), options, faults);
  return channel;
}

TEST(WireStampTest, StampSurvivesTheWireWithTransportTimeAdded) {
  Channel channel = MakeChannel();
  ItemStamp stamp;
  stamp.ingress_us = NowUs() - 10000;  // ingressed 10ms ago
  stamp.queue_us = 500;
  stamp.transport_us = 42;
  ASSERT_TRUE(channel.sender->SendItem(3, "item-bytes", stamp).ok());

  ChannelReceiver::Incoming in;
  ASSERT_TRUE(channel.receiver->Recv(&in).ok());
  ASSERT_EQ(in.type, FrameType::kData);
  EXPECT_EQ(in.target, 3u);
  EXPECT_EQ(in.item_bytes, "item-bytes");
  ASSERT_TRUE(in.stamp.stamped());
  // The delta encoding reconstructs the ingress tick exactly; queue time
  // is carried verbatim; this hop's wire time is added on top of the
  // accumulated transport time.
  EXPECT_EQ(in.stamp.ingress_us, stamp.ingress_us);
  EXPECT_EQ(in.stamp.queue_us, 500u);
  EXPECT_GE(in.stamp.transport_us, 42u);
}

TEST(WireStampTest, UnstampedItemsStayOnTheBaseWire) {
  Channel channel = MakeChannel();
  ASSERT_TRUE(channel.sender->SendItem(1, "plain").ok());
  ChannelReceiver::Incoming in;
  ASSERT_TRUE(channel.receiver->Recv(&in).ok());
  ASSERT_EQ(in.type, FrameType::kData);
  EXPECT_FALSE(in.stamp.stamped());
  EXPECT_EQ(in.stamp.queue_us, 0u);
  EXPECT_EQ(in.stamp.transport_us, 0u);
}

TEST(WireStampTest, StampsSurviveInjectedDuplicates) {
  // The stamp extension is stateless per frame, so the receiver's
  // duplicate discard cannot desynchronize decoding.
  FaultPlan faults;
  faults.duplicate_period = 2;
  Channel channel = MakeChannel(faults);
  std::vector<uint64_t> sent_ingress;
  for (int i = 0; i < 6; ++i) {
    ItemStamp stamp;
    stamp.ingress_us = NowUs() - 1000 * static_cast<uint64_t>(6 - i);
    sent_ingress.push_back(stamp.ingress_us);
    ASSERT_TRUE(
        channel.sender->SendItem(0, "i" + std::to_string(i), stamp).ok());
  }
  for (int i = 0; i < 6; ++i) {
    ChannelReceiver::Incoming in;
    ASSERT_TRUE(channel.receiver->Recv(&in).ok());
    ASSERT_EQ(in.type, FrameType::kData);
    EXPECT_EQ(in.item_bytes, "i" + std::to_string(i));
    EXPECT_EQ(in.stamp.ingress_us, sent_ingress[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(channel.sender->stats().faults_duplicated, 3u);
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
