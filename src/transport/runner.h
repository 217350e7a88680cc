// Executes a deployed operator network partitioned by super-peer — the
// paper's unit of concurrency: a super-peer evaluates its resident
// operators independently and exchanges streams with its neighbours. The
// operator graph is partitioned with engine::PlanPeerPartitions, one
// channel connects every pair of workers joined by a cross edge, and each
// worker drains a bounded LinkQueue. Every channel runs over a Transport:
// a port on the source worker encodes every item and ships it through a
// flow-controlled channel (flow.h); a receiver thread on the target
// worker decodes into the queue, and EOS or the first error travels down
// the channel at the end. Every worker models a distinct super-peer and
// runs as one thread of this process, over any transport (so the TCP
// stack runs under TSAN too).
//
// The calling thread feeds the entry streams, and every worker finishes
// its boundary operators once the pills of all its producers arrived.
// Metrics are sharded per worker for the run and merged back at the end.
//
// Operator indices from the partition plan double as the wire's operator
// ids: a DATA frame names its target by index, so the two ends of a
// channel need no registration protocol.

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
  /// it. The graph is restored to its serial wiring before returning, so
  /// serial and partitioned runs can alternate on one deployment. With
  /// finish=false the workers skip Finish() so windowed state survives for
  /// a later segment (mid-run churn). `stamp` is engine::RunBatchStreams'
  /// stamping decision; with it the workers' queues also observe their
  /// residency on engine.queue.worker.<w>.residency_us.
  Status Run(const std::vector<engine::Operator*>& entries,
             std::vector<std::vector<engine::ItemBatch>>* batch_lists,
             bool finish = true, bool stamp = true);

  const RunStats& run_stats() const { return run_stats_; }

 private:
  Transport& transport_;
  RunnerOptions options_;
  RunStats run_stats_;
};

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_RUNNER_H_
