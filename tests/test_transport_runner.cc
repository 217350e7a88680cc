// The partitioned runner's contract, on every channel kind: results and
// merged metrics identical to a serial run, serial-wiring restore,
// backpressure on tiny queues (and, over the wire, tiny credit windows)
// without deadlock, clean error propagation across workers, and measured
// cross-edge traffic. The suite runs over memory channels and over the
// loopback transport; the TCP transport — threads, and outside TSAN one
// fork()ed OS process per worker, whose sink content hashes must survive
// the cross-process report — and the wire's fault injection are covered
// by the TransportRunnerTest cases at the end.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/metrics.h"
#include "engine/operator.h"
#include "network/topology.h"
#include "transport/loopback.h"
#include "transport/runner.h"
#include "transport/tcp.h"
#include "workload/scenario.h"

// fork() and TSAN don't mix: TSAN's runtime owns threads the child
// can't inherit safely. Process-mode cases run everywhere else.
#if defined(__SANITIZE_THREAD__)
#define STREAMSHARE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STREAMSHARE_TSAN 1
#endif
#endif
#ifndef STREAMSHARE_TSAN
#define STREAMSHARE_TSAN 0
#endif

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

/// One channel kind / mode combination under test.
struct RunnerCase {
  const char* label;
  const char* transport;  // "" (memory channels) | "loopback" | "tcp"
  RunnerOptions::Mode mode;

  bool wire() const { return transport[0] != '\0'; }
  bool processes() const { return mode == RunnerOptions::Mode::kProcesses; }
};

// Names the case in test output (Channels/...Test.Name/memory).
void PrintTo(const RunnerCase& c, std::ostream* os) { *os << c.label; }

const RunnerCase kMemory{"memory", "", RunnerOptions::Mode::kThreads};
const RunnerCase kLoopback{"loopback", "loopback",
                           RunnerOptions::Mode::kThreads};

std::vector<RunnerCase> TcpCases() {
  std::vector<RunnerCase> cases = {
      {"tcp_threads", "tcp", RunnerOptions::Mode::kThreads}};
#if !STREAMSHARE_TSAN
  cases.push_back({"tcp_processes", "tcp", RunnerOptions::Mode::kProcesses});
#endif
  return cases;
}

std::unique_ptr<transport::Transport> MakeTransport(const RunnerCase& c) {
  if (!c.wire()) return nullptr;
  if (std::string(c.transport) == "tcp") {
    return std::make_unique<TcpTransport>();
  }
  return std::make_unique<LoopbackTransport>();
}

sharing::SystemConfig ConfigFor(const RunnerCase& c) {
  sharing::SystemConfig config;
  config.keep_results = true;
  config.executor = c.wire() ? sharing::ExecutorKind::kTransport
                             : sharing::ExecutorKind::kParallel;
  if (c.wire()) config.transport = c.transport;
  config.transport_processes = c.processes();
  // Pin the worker cap: the default (hardware_concurrency) would coalesce
  // everything into one worker on a single-core runner, and these tests
  // are about multi-worker equivalence.
  config.parallel.max_workers = 8;
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
    // Order-insensitive content hash: in process mode the items
    // themselves stayed in the children and only the hash came back.
    EXPECT_EQ(expect->content_hash(), got->content_hash())
        << "query " << q << " content hash diverged";
    if (config.transport_processes) continue;
    // In-process runs keep the items: identical item for item, in order.
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
/// edges — encoded, one DATA frame each, when they crossed a wire.
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
  if (test_case.wire()) {
    EXPECT_GT(encoded_bytes, 0u);
    EXPECT_EQ(frames, items_crossed)
        << "every cross-edge item travels as exactly one DATA frame";
  } else {
    EXPECT_EQ(encoded_bytes, 0u) << "memory channels never encode";
    EXPECT_EQ(frames, 0u);
  }
  EXPECT_EQ(stats.process_count,
            test_case.processes() ? stats.workers.size() : 0u);
}

/// An operator that fails after a fixed number of items — exercises error
/// propagation out of a worker.
class FailAfterOp final : public Operator {
 public:
  FailAfterOp(std::string label, int fail_after)
      : Operator(std::move(label)), remaining_(fail_after) {}

 protected:
  Status Process(const ItemPtr& item) override {
    if (remaining_-- <= 0) return Status::Internal("injected failure");
    return Emit(item);
  }

 private:
  int remaining_;
};

/// entry(p0) → link(p0→p1) → fail(p1) → sink: the failing operator lives
/// downstream of the one cross edge, so its error must travel back out
/// of the worker (and, in process mode, out of the child process)
/// without wedging any channel.
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
  RunnerOptions options;
  options.mode = test_case.mode;
  PartitionedRunner runner(transport.get(), options);
  return runner.Run({entry}, {items});
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

// --- The suite, over memory channels and the loopback transport --------

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
  if (!test_case().wire()) return;
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
  ASSERT_TRUE(engine::RunStream(serial_entry, items).ok());

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
  options.parallel.max_workers = 4;     // don't coalesce on 1-core runners
  options.parallel.queue_capacity = 8;  // force some backpressure
  auto transport = MakeTransport(test_case());
  PartitionedRunner runner(transport.get(), options);
  ASSERT_TRUE(runner.Run({entry}, {items}).ok());
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
    PartitionedRunner runner(transport.get(), RunnerOptions{});
    Status status = runner.Run({entry}, {items});
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
  PartitionedRunner runner(transport.get(), RunnerOptions{});
  ASSERT_TRUE(runner.Run({g.entry}, {{}}).ok());
  EXPECT_EQ(g.sink->item_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Channels, PartitionedRunnerTest,
                         ::testing::Values(kMemory, kLoopback));

// --- Wire-only behaviour ---------------------------------------------------

TEST(TransportRunnerTest, MatchesSerialOverTcp) {
  for (const RunnerCase& test_case : TcpCases()) {
    transport::RunStats stats =
        ExpectMatchesSerial(test_case, ConfigFor(test_case));
    ExpectCrossTraffic(test_case, stats);
  }
}

TEST(TransportRunnerTest, OperatorFailurePropagatesOverTcp) {
  for (const RunnerCase& test_case : TcpCases()) {
    SCOPED_TRACE(test_case.label);
    Status status = RunCrossEdgeFailure(test_case);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("injected failure"), std::string::npos)
        << status.ToString();
  }
}

TEST(TransportRunnerTest, DropFaultFailsTheRunCleanly) {
  SmallGraph g;
  BuildSmallGraph(&g);

  std::vector<ItemPtr> items;
  for (int i = 0; i < 50; ++i) items.push_back(Leaf("n", "x"));

  RunnerOptions options;
  options.faults.drop_period = 10;
  LoopbackTransport transport;
  PartitionedRunner runner(&transport, options);
  Status status = runner.Run({g.entry}, {items});
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
  PartitionedRunner runner(&transport, options);
  ASSERT_TRUE(runner.Run({g.entry}, {items}).ok());

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

TEST(TransportRunnerTest, ProcessModeRequiresForkSafeTransport) {
  RunnerOptions options;
  options.mode = RunnerOptions::Mode::kProcesses;
  LoopbackTransport loopback;  // SupportsProcesses() == false
  for (transport::Transport* transport :
       {static_cast<transport::Transport*>(&loopback),
        static_cast<transport::Transport*>(nullptr)}) {
    SmallGraph g;
    BuildSmallGraph(&g);
    PartitionedRunner runner(transport, options);
    Status status = runner.Run({g.entry}, {{Leaf("n", "x")}});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

}  // namespace
}  // namespace streamshare
