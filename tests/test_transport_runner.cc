// The partitioned runner's contract: results and merged metrics identical
// to a serial run, serial-wiring restore, backpressure on tiny queues and
// tiny credit windows without deadlock, clean error propagation across
// workers, and measured cross-edge traffic. The suite runs over the
// loopback transport; the TCP transport (one worker thread per partition,
// over real localhost sockets) and the wire's fault injection are covered
// by the TransportRunnerTest cases at the end.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/metrics.h"
#include "engine/operator.h"
#include "engine/window_agg.h"
#include "network/topology.h"
#include "obs/metrics_registry.h"
#include "transport/loopback.h"
#include "transport/runner.h"
#include "transport/tcp.h"
#include "transport/wire.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"
#include "item_feed.h"

namespace streamshare {
namespace {

using engine::ItemPtr;
using engine::Operator;
using transport::LoopbackTransport;
using transport::PartitionedRunner;
using transport::RunnerOptions;
using transport::TcpTransport;

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

/// One transport under test.
struct RunnerCase {
  const char* label;
  const char* transport;  // "loopback" | "tcp"

  bool tcp() const { return std::string(transport) == "tcp"; }
};

// Names the case in test output (Channels/...Test.Name/loopback).
void PrintTo(const RunnerCase& c, std::ostream* os) { *os << c.label; }

const RunnerCase kLoopback{"loopback", "loopback"};
const RunnerCase kTcpThreads{"tcp_threads", "tcp"};

std::unique_ptr<transport::Transport> MakeTransport(const RunnerCase& c) {
  if (c.tcp()) return std::make_unique<TcpTransport>();
  return std::make_unique<LoopbackTransport>();
}

sharing::SystemConfig ConfigFor(const RunnerCase& c) {
  sharing::SystemConfig config;
  config.keep_results = true;
  config.executor =
      c.tcp() ? sharing::ExecutorKind::kTcp : sharing::ExecutorKind::kLoopback;
  return config;
}

/// Runs the extended-example scenario (Fig. 6: 8 super-peers, 25
/// queries) serial and partitioned per `config` on two identically built
/// systems and demands identical sink contents and equal merged metrics —
/// the acceptance bar from the paper repro: the distribution mechanism
/// must be invisible in the results. Returns the partitioned run's stats.
transport::RunStats ExpectMatchesSerial(const RunnerCase& test_case,
                                        const sharing::SystemConfig& config) {
  SCOPED_TRACE(test_case.label);
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/25);

  sharing::SystemConfig serial_config;
  serial_config.keep_results = true;

  constexpr size_t kItems = 400;
  Result<workload::ScenarioRun> serial = workload::RunScenario(
      scenario, sharing::Strategy::kStreamSharing, serial_config, kItems);
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  Result<workload::ScenarioRun> run = workload::RunScenario(
      scenario, sharing::Strategy::kStreamSharing, config, kItems);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!serial.ok() || !run.ok()) return {};

  const auto& serial_regs = serial->system->registrations();
  const auto& regs = run->system->registrations();
  EXPECT_EQ(serial_regs.size(), regs.size());
  size_t sinks_with_output = 0;
  for (size_t q = 0; q < serial_regs.size() && q < regs.size(); ++q) {
    if (serial_regs[q].sink == nullptr) {
      EXPECT_EQ(regs[q].sink, nullptr);
      continue;
    }
    const engine::SinkOp* expect = serial_regs[q].sink;
    const engine::SinkOp* got = regs[q].sink;
    if (got == nullptr) {
      ADD_FAILURE() << "query " << q << " lost its sink";
      continue;
    }
    EXPECT_EQ(expect->item_count(), got->item_count())
        << "query " << q << " result count diverged";
    EXPECT_EQ(expect->total_bytes(), got->total_bytes())
        << "query " << q << " result bytes diverged";
    if (expect->item_count() > 0) ++sinks_with_output;
    EXPECT_EQ(expect->content_hash(), got->content_hash())
        << "query " << q << " content hash diverged";
    // Identical item for item, in order.
    EXPECT_EQ(expect->items().size(), got->items().size());
    for (size_t i = 0;
         i < expect->items().size() && i < got->items().size(); ++i) {
      EXPECT_TRUE(expect->items()[i]->Equals(*got->items()[i]))
          << "query " << q << " item " << i << " diverged";
    }
  }
  EXPECT_GT(sinks_with_output, 0u) << "workload produced no output at all";

  // Merged shard metrics must equal the serial counters: bytes and
  // invocation counts exactly, work within FP merge tolerance.
  const engine::Metrics& sm = serial->system->metrics();
  const engine::Metrics& pm = run->system->metrics();
  EXPECT_EQ(sm.link_count(), pm.link_count());
  EXPECT_EQ(sm.peer_count(), pm.peer_count());
  for (size_t link = 0; link < sm.link_count() && link < pm.link_count();
       ++link) {
    EXPECT_EQ(sm.BytesOnLink(static_cast<int>(link)),
              pm.BytesOnLink(static_cast<int>(link)))
        << "link " << link;
  }
  for (size_t peer = 0; peer < sm.peer_count() && peer < pm.peer_count();
       ++peer) {
    EXPECT_EQ(sm.OperatorInvocationsAtPeer(static_cast<int>(peer)),
              pm.OperatorInvocationsAtPeer(static_cast<int>(peer)))
        << "peer " << peer;
    EXPECT_NEAR(sm.WorkAtPeer(static_cast<int>(peer)),
                pm.WorkAtPeer(static_cast<int>(peer)),
                1e-6 * (1.0 + sm.WorkAtPeer(static_cast<int>(peer))))
        << "peer " << peer;
  }
  return run->system->run_stats();
}

/// Checks the traffic a run over the extended workload must have
/// measured: partitioned across several workers, with items on the cross
/// edges — encoded, one DATA frame each.
void ExpectCrossTraffic(const RunnerCase& test_case,
                        const transport::RunStats& stats) {
  SCOPED_TRACE(test_case.label);
  EXPECT_EQ(stats.transport, test_case.transport);
  EXPECT_GT(stats.workers.size(), 1u);
  EXPECT_FALSE(stats.edges.empty());
  EXPECT_FALSE(stats.channels.empty());
  uint64_t items_crossed = 0, encoded_bytes = 0;
  for (const transport::EdgeTrafficStats& edge : stats.edges) {
    items_crossed += edge.items;
    encoded_bytes += edge.encoded_bytes;
  }
  EXPECT_GT(items_crossed, 0u);
  uint64_t frames = 0;
  for (const transport::ChannelTrafficStats& channel : stats.channels) {
    frames += channel.stats.frames_sent;
  }
  EXPECT_GT(encoded_bytes, 0u);
  EXPECT_EQ(frames, items_crossed)
      << "every cross-edge item travels as exactly one DATA frame";
}

/// An operator that fails after a fixed number of items — exercises error
/// propagation out of a worker.
class FailAfterOp final : public Operator {
 public:
  FailAfterOp(std::string label, int fail_after)
      : Operator(std::move(label)), remaining_(fail_after) {}

 protected:
  Status ProcessBatch(engine::ItemBatch* batch) override {
    for (size_t i = 0; i < batch->size(); ++i) {
      if (remaining_-- <= 0) {
        return FlushScratch(&scratch_, Status::Internal("injected failure"));
      }
      scratch_.AppendSlot(batch->slot(i));
    }
    return FlushScratch(&scratch_);
  }

 private:
  int remaining_;
  engine::ItemBatch scratch_;
};

/// entry(p0) → link(p0→p1) → fail(p1) → sink: the failing operator lives
/// downstream of the one cross edge, so its error must travel back out
/// of the worker without wedging any channel.
Status RunCrossEdgeFailure(const RunnerCase& test_case) {
  network::Topology topology;
  network::NodeId p0 = topology.AddPeer("SP0");
  network::NodeId p1 = topology.AddPeer("SP1");
  Result<network::LinkId> link = topology.AddLink(p0, p1);
  if (!link.ok()) return link.status();
  engine::Metrics metrics(topology);

  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* link_op = graph.Add<engine::LinkOp>("link", &metrics, *link);
  auto* fail = graph.Add<FailAfterOp>("fail", 5);
  auto* sink = graph.Add<engine::SinkOp>("sink");
  entry->SetAccounting(&metrics, p0, 1.0);
  link_op->SetAccounting(&metrics, p0, 0.5);
  fail->SetAccounting(&metrics, p1, 1.0);
  entry->AddDownstream(link_op);
  link_op->AddDownstream(fail);
  fail->AddDownstream(sink);

  std::vector<ItemPtr> items;
  for (int i = 0; i < 500; ++i) items.push_back(Leaf("n", "x"));

  auto transport = MakeTransport(test_case);
  PartitionedRunner runner(*transport);
  auto batches = engine::ChunkStreams({items});
  return runner.Run({entry}, &batches);
}

/// entry(p0) → link(p0→p1) → remote pass(p1) → sink: the one edge
/// crosses a worker boundary, so every item travels the channel.
struct SmallGraph {
  engine::OperatorGraph graph;
  std::unique_ptr<engine::Metrics> metrics;
  Operator* entry = nullptr;
  engine::SinkOp* sink = nullptr;
};

void BuildSmallGraph(SmallGraph* g) {
  network::Topology topology;
  network::NodeId p0 = topology.AddPeer("SP0");
  network::NodeId p1 = topology.AddPeer("SP1");
  Result<network::LinkId> link = topology.AddLink(p0, p1);
  ASSERT_TRUE(link.ok());
  g->metrics = std::make_unique<engine::Metrics>(topology);

  auto* entry = g->graph.Add<engine::PassOp>("entry");
  auto* link_op =
      g->graph.Add<engine::LinkOp>("link", g->metrics.get(), *link);
  auto* remote = g->graph.Add<engine::PassOp>("remote");
  auto* sink = g->graph.Add<engine::SinkOp>("sink", /*keep_items=*/true);
  entry->SetAccounting(g->metrics.get(), p0, 1.0);
  link_op->SetAccounting(g->metrics.get(), p0, 0.5);
  remote->SetAccounting(g->metrics.get(), p1, 2.0);
  entry->AddDownstream(link_op);
  link_op->AddDownstream(remote);
  remote->AddDownstream(sink);
  g->entry = entry;
  g->sink = sink;
}

// --- The suite, over the loopback transport -------------------------------

/// Forwards every batch, recording the ingress tick each slot carries.
class StampProbeOp final : public Operator {
 public:
  using Operator::Operator;
  std::vector<uint64_t> ingress;

 protected:
  Status ProcessBatch(engine::ItemBatch* batch) override {
    for (size_t i = 0; i < batch->size(); ++i) {
      ingress.push_back(batch->slot(i).stamp.ingress_us);
    }
    return EmitBatch(batch);
  }
};

/// avg(en) over tumbling count windows of 3 (p0) → link(p0→p1) → stamp
/// probe (p1) → sink (p1): window emissions cross the one worker edge.
struct WindowStampGraph {
  engine::OperatorGraph graph;
  std::unique_ptr<engine::Metrics> metrics;
  Operator* entry = nullptr;
  StampProbeOp* probe = nullptr;
  engine::SinkOp* sink = nullptr;
};

void BuildWindowStampGraph(WindowStampGraph* g) {
  network::Topology topology;
  network::NodeId p0 = topology.AddPeer("SP0");
  network::NodeId p1 = topology.AddPeer("SP1");
  Result<network::LinkId> link = topology.AddLink(p0, p1);
  ASSERT_TRUE(link.ok());
  g->metrics = std::make_unique<engine::Metrics>(topology);
  auto* agg = g->graph.Add<engine::WindowAggOp>(
      "agg", properties::AggregateFunc::kAvg,
      xml::Path::Parse("en").value(),
      properties::WindowSpec::Count(3).value());
  auto* link_op =
      g->graph.Add<engine::LinkOp>("link", g->metrics.get(), *link);
  g->probe = g->graph.Add<StampProbeOp>("probe");
  g->sink = g->graph.Add<engine::SinkOp>("sink");
  g->sink->EnableLatencyRecording("runner_window_stamps");
  agg->SetAccounting(g->metrics.get(), p0, 1.0);
  link_op->SetAccounting(g->metrics.get(), p0, 0.5);
  g->probe->SetAccounting(g->metrics.get(), p1, 1.0);
  g->sink->SetAccounting(g->metrics.get(), p1, 1.0);
  agg->AddDownstream(link_op);
  link_op->AddDownstream(g->probe);
  g->probe->AddDownstream(g->sink);
  g->entry = agg;
}

/// One stream of one batch of 8 photons, slot i stamped at tick 1000 + i
/// (the feed keeps pre-set stamps); record or opaque slots.
std::vector<std::vector<engine::ItemBatch>> StampedPhotons(bool records) {
  workload::PhotonGenerator generator(workload::PhotonGenConfig{});
  std::vector<engine::ItemBatch> batches = generator.GenerateBatches(8, 8);
  engine::ItemBatch& batch = batches.front();
  if (!records) batch.MakeOpaque();
  for (size_t i = 0; i < batch.size(); ++i) {
    batch.slot(i).stamp.ingress_us = 1000 + i;
  }
  return {std::move(batches)};
}

/// Windows 0 and 1 close mid-batch, on slots 3 and 6, and carry those
/// slots' ticks; window 2 is flushed at end of stream and stays
/// unstamped.
void ExpectWindowStamps(const WindowStampGraph& g) {
  EXPECT_EQ(g.probe->ingress, (std::vector<uint64_t>{1003, 1006, 0}));
  EXPECT_EQ(g.sink->item_count(), 3u);
  EXPECT_EQ(g.sink->stamped_count(), 2u);
  EXPECT_EQ(g.sink->stamp_regressions(), 0u);
}

TEST(WindowStampTest, EmissionsCarryClosingSlotStampSerially) {
  for (bool records : {true, false}) {
    SCOPED_TRACE(records ? "record slots" : "opaque slots");
    WindowStampGraph g;
    BuildWindowStampGraph(&g);
    auto batches = StampedPhotons(records);
    ASSERT_TRUE(engine::RunBatchStreams({g.entry}, &batches).ok());
    ExpectWindowStamps(g);
  }
}

class PartitionedRunnerTest : public ::testing::TestWithParam<RunnerCase> {
 protected:
  const RunnerCase& test_case() const { return GetParam(); }
};

TEST_P(PartitionedRunnerTest, MatchesSerialOnExtendedWorkload) {
  transport::RunStats stats =
      ExpectMatchesSerial(test_case(), ConfigFor(test_case()));
  ExpectCrossTraffic(test_case(), stats);
}

TEST_P(PartitionedRunnerTest, TinyQueueBackpressureWithoutDeadlock) {
  // Capacity-1 queues, one item per handoff, and a 2-credit window: every
  // handoff stalls, locally and across the wire, and the run must still
  // complete with the serial results.
  sharing::SystemConfig config = ConfigFor(test_case());
  config.parallel.queue_capacity = 1;
  config.parallel.batch_size = 1;
  config.flow.initial_credits = 2;
  transport::RunStats stats = ExpectMatchesSerial(test_case(), config);
  uint64_t stalls = 0;
  for (const auto& channel : stats.channels) {
    stalls += channel.stats.credit_stalls;
  }
  EXPECT_GT(stalls, 0u) << "a 2-credit window never stalling is a bug";
}

TEST_P(PartitionedRunnerTest, RestoresSerialWiringAndShardedMetrics) {
  // Two peers joined by one link: entry and link op bill peer 0, the
  // sink's upstream pass bills peer 1 — the edge between them crosses a
  // worker boundary and gets a port spliced in for the run. Afterwards
  // the downstream lists must be the serial wiring again, and the merged
  // metrics must equal a serial run's.
  network::Topology topology;
  network::NodeId p0 = topology.AddPeer("SP0");
  network::NodeId p1 = topology.AddPeer("SP1");
  Result<network::LinkId> link = topology.AddLink(p0, p1);
  ASSERT_TRUE(link.ok());

  auto build = [&](engine::OperatorGraph* graph, engine::Metrics* metrics,
                   engine::Operator** entry_out,
                   engine::SinkOp** sink_out) {
    auto* entry = graph->Add<engine::PassOp>("entry");
    auto* link_op = graph->Add<engine::LinkOp>("link", metrics, *link);
    auto* remote = graph->Add<engine::PassOp>("remote");
    auto* sink = graph->Add<engine::SinkOp>("sink", /*keep_items=*/true);
    entry->SetAccounting(metrics, p0, 1.0);
    link_op->SetAccounting(metrics, p0, 0.5);
    remote->SetAccounting(metrics, p1, 2.0);
    entry->AddDownstream(link_op);
    link_op->AddDownstream(remote);
    remote->AddDownstream(sink);
    *entry_out = entry;
    *sink_out = sink;
  };

  std::vector<ItemPtr> items;
  for (int i = 0; i < 200; ++i) items.push_back(Leaf("n", std::to_string(i)));

  engine::OperatorGraph serial_graph;
  engine::Metrics serial_metrics(topology);
  engine::Operator* serial_entry = nullptr;
  engine::SinkOp* serial_sink = nullptr;
  build(&serial_graph, &serial_metrics, &serial_entry, &serial_sink);
  ASSERT_TRUE(engine::RunItems(serial_entry, items).ok());

  engine::OperatorGraph graph;
  engine::Metrics metrics(topology);
  engine::Operator* entry = nullptr;
  engine::SinkOp* sink = nullptr;
  build(&graph, &metrics, &entry, &sink);
  std::vector<std::vector<Operator*>> before;
  for (Operator* op = entry; op != nullptr;
       op = op->downstreams().empty() ? nullptr : op->downstreams()[0]) {
    before.push_back(op->downstreams());
  }

  RunnerOptions options;
  options.parallel.queue_capacity = 8;  // force some backpressure
  auto transport = MakeTransport(test_case());
  PartitionedRunner runner(*transport, options);
  auto batches = engine::ChunkStreams({items});
  ASSERT_TRUE(runner.Run({entry}, &batches).ok());
  EXPECT_EQ(runner.run_stats().workers.size(), 2u);

  std::vector<std::vector<Operator*>> after;
  for (Operator* op = entry; op != nullptr;
       op = op->downstreams().empty() ? nullptr : op->downstreams()[0]) {
    after.push_back(op->downstreams());
  }
  EXPECT_EQ(before, after);

  ASSERT_EQ(sink->item_count(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sink->items()[i]->text(), std::to_string(i));
  }
  EXPECT_EQ(metrics.BytesOnLink(*link), serial_metrics.BytesOnLink(*link));
  EXPECT_EQ(metrics.OperatorInvocationsAtPeer(p0),
            serial_metrics.OperatorInvocationsAtPeer(p0));
  EXPECT_EQ(metrics.OperatorInvocationsAtPeer(p1),
            serial_metrics.OperatorInvocationsAtPeer(p1));
  EXPECT_DOUBLE_EQ(metrics.WorkAtPeer(p0), serial_metrics.WorkAtPeer(p0));
  EXPECT_DOUBLE_EQ(metrics.WorkAtPeer(p1), serial_metrics.WorkAtPeer(p1));

  // The cross edge is attributed to the topology link the LinkOp rides.
  const transport::RunStats& stats = runner.run_stats();
  ASSERT_EQ(stats.edges.size(), 1u);
  EXPECT_EQ(stats.edges[0].link, *link);
  EXPECT_EQ(stats.edges[0].items, 200u);
}

TEST_P(PartitionedRunnerTest, OperatorFailurePropagates) {
  // Within one worker: no accounting, so the whole chain is one worker.
  {
    engine::OperatorGraph graph;
    auto* entry = graph.Add<engine::PassOp>("entry");
    auto* fail = graph.Add<FailAfterOp>("fail", 10);
    auto* sink = graph.Add<engine::SinkOp>("sink");
    entry->AddDownstream(fail);
    fail->AddDownstream(sink);

    std::vector<ItemPtr> items;
    for (int i = 0; i < 1000; ++i) items.push_back(Leaf("n", "x"));

    auto transport = MakeTransport(test_case());
    PartitionedRunner runner(*transport);
    auto batches = engine::ChunkStreams({items});
    Status status = runner.Run({entry}, &batches);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("injected failure"), std::string::npos)
        << status.ToString();
  }
  // Downstream of a cross edge.
  Status status = RunCrossEdgeFailure(test_case());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("injected failure"), std::string::npos)
      << status.ToString();
}

TEST_P(PartitionedRunnerTest, EmptyStreamStillFinishes) {
  SmallGraph g;
  BuildSmallGraph(&g);
  auto transport = MakeTransport(test_case());
  PartitionedRunner runner(*transport);
  auto batches = engine::ChunkStreams({{}});
  ASSERT_TRUE(runner.Run({g.entry}, &batches).ok());
  EXPECT_EQ(g.sink->item_count(), 0u);
}

TEST_P(PartitionedRunnerTest, WindowEmissionsCarryClosingSlotStamp) {
  for (bool records : {true, false}) {
    SCOPED_TRACE(records ? "record slots" : "opaque slots");
    WindowStampGraph g;
    BuildWindowStampGraph(&g);
    auto transport = MakeTransport(test_case());
    PartitionedRunner runner(*transport);
    auto batches = StampedPhotons(records);
    ASSERT_TRUE(runner.Run({g.entry}, &batches).ok());
    EXPECT_EQ(runner.run_stats().workers.size(), 2u);
    ExpectWindowStamps(g);
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, PartitionedRunnerTest,
                         ::testing::Values(kLoopback));

// --- TCP and fault injection -----------------------------------------------

TEST(TransportRunnerTest, MatchesSerialOverTcp) {
  transport::RunStats stats =
      ExpectMatchesSerial(kTcpThreads, ConfigFor(kTcpThreads));
  ExpectCrossTraffic(kTcpThreads, stats);
}

TEST(TransportRunnerTest, OperatorFailurePropagatesOverTcp) {
  Status status = RunCrossEdgeFailure(kTcpThreads);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("injected failure"), std::string::npos)
      << status.ToString();
}

TEST(TransportRunnerTest, DropFaultFailsTheRunCleanly) {
  SmallGraph g;
  BuildSmallGraph(&g);

  std::vector<ItemPtr> items;
  for (int i = 0; i < 50; ++i) items.push_back(Leaf("n", "x"));

  RunnerOptions options;
  options.faults.drop_period = 10;
  LoopbackTransport transport;
  PartitionedRunner runner(transport, options);
  auto batches = engine::ChunkStreams({items});
  Status status = runner.Run({g.entry}, &batches);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("loss"), std::string::npos)
      << status.ToString();
}

TEST(TransportRunnerTest, DuplicateFaultIsAbsorbedByTheReceiver) {
  SmallGraph g;
  BuildSmallGraph(&g);

  std::vector<ItemPtr> items;
  for (int i = 0; i < 60; ++i) items.push_back(Leaf("n", std::to_string(i)));

  RunnerOptions options;
  options.faults.duplicate_period = 4;
  LoopbackTransport transport;
  PartitionedRunner runner(transport, options);
  auto batches = engine::ChunkStreams({items});
  ASSERT_TRUE(runner.Run({g.entry}, &batches).ok());

  // Duplicates were discarded before delivery: results are untouched.
  ASSERT_EQ(g.sink->item_count(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(g.sink->items()[i]->text(), std::to_string(i));
  }
  uint64_t discarded = 0;
  for (const auto& channel : runner.run_stats().channels) {
    discarded += channel.stats.duplicates_discarded;
  }
  EXPECT_EQ(discarded, 15u);  // every 4th of 60 frames
}

/// Wraps a transport and counts the DATA frames its pipes send at the
/// base wire version (v1) and with the stamp extension (v2). Worker
/// threads send concurrently, so the counters are atomics.
class FrameVersionTransport final : public transport::Transport {
 public:
  struct Counts {
    std::atomic<uint64_t> base{0};
    std::atomic<uint64_t> stamped{0};
  };

  explicit FrameVersionTransport(std::unique_ptr<transport::Transport> inner)
      : inner_(std::move(inner)) {}

  const Counts& counts() const { return counts_; }
  const char* name() const override { return inner_->name(); }
  Status CreatePipe(const std::string& label,
                    transport::PipePair* pair) override {
    SS_RETURN_IF_ERROR(inner_->CreatePipe(label, pair));
    for (auto& end : pair->ends) {
      end = std::make_unique<CountingEnd>(std::move(end), &counts_);
    }
    return Status::Ok();
  }

 private:
  class CountingEnd final : public transport::PipeEnd {
   public:
    CountingEnd(std::unique_ptr<transport::PipeEnd> inner, Counts* counts)
        : inner_(std::move(inner)), counts_(counts) {}
    using PipeEnd::RecvFrame;
    using PipeEnd::SendFrame;
    Status SendFrame(transport::FrameType type, std::string_view body,
                     uint8_t version) override {
      if (type == transport::FrameType::kData) {
        (version == transport::kBaseWireVersion ? counts_->base
                                                : counts_->stamped)
            .fetch_add(1);
      }
      return inner_->SendFrame(type, body, version);
    }
    Status RecvFrame(transport::FrameType* type, std::string* body,
                     int timeout_ms, uint8_t* version) override {
      return inner_->RecvFrame(type, body, timeout_ms, version);
    }
    void Close() override { inner_->Close(); }
    uint64_t wire_bytes_sent() const override {
      return inner_->wire_bytes_sent();
    }

   private:
    std::unique_ptr<transport::PipeEnd> inner_;
    Counts* counts_;
  };

  std::unique_ptr<transport::Transport> inner_;
  Counts counts_;
};

/// Observations on engine.queue.worker.<w>.residency_us so far (0 while
/// the series does not exist).
uint64_t ResidencyCount(size_t worker) {
  const obs::Histogram* histogram =
      obs::MetricsRegistry::Default().FindHistogram(
          "engine.queue.worker." + std::to_string(worker) + ".residency_us");
  return histogram == nullptr ? 0 : histogram->Count();
}

// The runner's `stamp` argument is the whole stamping decision: an
// unstamped run delivers no stamped item, its queues observe no
// residency, and its DATA frames stay at the base wire version — on
// every transport. The stamped run of the same graph is the positive
// control.
TEST(TransportRunnerTest, UnstampedRunsStampNothingOnAnyTransport) {
  constexpr uint64_t kItems = 200;
  for (const RunnerCase& test_case : {kLoopback, kTcpThreads}) {
    for (bool stamp : {true, false}) {
      SCOPED_TRACE(std::string(test_case.label) +
                   (stamp ? " stamped" : " unstamped"));
      SmallGraph g;
      BuildSmallGraph(&g);
      g.sink->EnableLatencyRecording("runner_stamp_switch");
      const uint64_t recorded_before = g.sink->latency_histogram()->Count();
      const uint64_t residency_before = ResidencyCount(0) + ResidencyCount(1);

      std::vector<ItemPtr> items;
      for (uint64_t i = 0; i < kItems; ++i) {
        items.push_back(Leaf("n", std::to_string(i)));
      }
      FrameVersionTransport transport(MakeTransport(test_case));
      PartitionedRunner runner(transport);
      auto batches = engine::ChunkStreams({items}, /*batch_size=*/16);
      ASSERT_TRUE(runner.Run({g.entry}, &batches, /*finish=*/true, stamp)
                      .ok());

      ASSERT_EQ(g.sink->item_count(), kItems);
      const uint64_t recorded =
          g.sink->latency_histogram()->Count() - recorded_before;
      const uint64_t residency =
          ResidencyCount(0) + ResidencyCount(1) - residency_before;
      const uint64_t v1 = transport.counts().base.load();
      const uint64_t v2 = transport.counts().stamped.load();
      EXPECT_EQ(v1 + v2, kItems);
      if (stamp) {
        EXPECT_EQ(recorded, kItems);
        EXPECT_GT(residency, 0u);
        EXPECT_EQ(v2, kItems);
      } else {
        EXPECT_EQ(recorded, 0u);
        EXPECT_EQ(g.sink->stamped_count(), 0u);
        EXPECT_EQ(residency, 0u);
        EXPECT_EQ(v2, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace streamshare
