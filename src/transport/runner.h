// Executes a deployed operator network partitioned by super-peer — the
// paper's unit of concurrency: a super-peer evaluates its resident
// operators independently and exchanges streams with its neighbours. The
// operator graph is partitioned with engine::PlanPeerPartitions, one
// channel connects every pair of workers joined by a cross edge, and each
// worker drains a bounded LinkQueue. Every channel runs over a Transport:
// a port on the source worker encodes every item and ships it through a
// flow-controlled channel (flow.h); a receiver thread on the target
// worker decodes into the queue, and EOS or the first error travels down
// the channel at the end. Every worker models a distinct super-peer.
//
// The runner works in one of two modes:
//
//   kThreads    every worker is a thread of this process (any transport;
//               this is how the TCP stack runs under TSAN)
//   kProcesses  every worker fork()s into its own OS process (requires a
//               transport whose pipes survive fork, i.e. TCP); children
//               report metrics shards, sink counts, and traffic stats
//               back over a pipe and the parent merges them
//
// Either way the calling thread (a helper thread of each child in process
// mode) feeds the entry streams, and every worker finishes its boundary
// operators once the pills of all its producers arrived. Metrics are
// sharded per worker for the run and merged back at the end.
//
// Operator indices from the partition plan double as cross-process
// operator ids: discovery order is deterministic, so parent and children
// agree on every index without any registration protocol.

#ifndef STREAMSHARE_TRANSPORT_RUNNER_H_
#define STREAMSHARE_TRANSPORT_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/partition.h"
#include "transport/flow.h"
#include "transport/transport.h"

namespace streamshare::transport {

struct RunnerOptions {
  engine::ParallelOptions parallel;
  FlowOptions flow;
  /// Applied to every channel's sender (drop/delay/duplicate frames);
  /// wired to the robustness tests.
  FaultPlan faults;

  enum class Mode { kThreads, kProcesses };
  Mode mode = Mode::kThreads;
};

/// Traffic of one cross-worker edge in the last run.
struct EdgeTrafficStats {
  size_t source_op = 0;  ///< partition-plan op index
  size_t target_op = 0;
  size_t source_worker = 0;
  size_t target_worker = 0;
  /// Topology link the source operator transmits over, if the source is
  /// a LinkOp; -1 otherwise.
  int link = -1;
  uint64_t items = 0;
  uint64_t encoded_bytes = 0;  ///< codec output
};

/// Traffic of one worker-pair channel in the last run (sender side).
struct ChannelTrafficStats {
  size_t source_worker = 0;
  size_t target_worker = 0;
  ChannelStats stats;
};

/// Everything the last Run measured, for System::ExportMetrics.
struct RunStats {
  /// Transport the channels ran over; empty before the first run.
  std::string transport;
  size_t process_count = 0;  ///< children forked (0 in thread mode)
  std::vector<EdgeTrafficStats> edges;
  std::vector<ChannelTrafficStats> channels;
  std::vector<engine::ParallelWorkerStats> workers;
};

class PartitionedRunner {
 public:
  /// Channels over `transport`, which must outlive the runner.
  explicit PartitionedRunner(Transport& transport,
                             RunnerOptions options = RunnerOptions());

  /// Feeds `batch_lists[s]` into `entries[s]` (round-robin across
  /// streams, per-stream order preserved; the batches are consumed), then
  /// signals end of stream — the same single-shot contract as
  /// engine::RunBatchStreams(..., finish=true), with results identical to
  /// it. The graph is restored to its serial wiring
  /// before returning, so serial and partitioned runs can alternate on
  /// one deployment. In kProcesses mode, metrics, sink counts, and content
  /// hashes measured in the children are merged into this process's
  /// objects before returning. With finish=false the workers skip
  /// Finish() so windowed state survives for a later segment (mid-run
  /// churn); only kThreads supports it — a forked child takes its
  /// operator state to the grave.
  Status Run(const std::vector<engine::Operator*>& entries,
             std::vector<std::vector<engine::ItemBatch>>* batch_lists,
             bool finish = true);

  const RunStats& run_stats() const { return run_stats_; }

 private:
  Transport& transport_;
  RunnerOptions options_;
  RunStats run_stats_;
};

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_RUNNER_H_
