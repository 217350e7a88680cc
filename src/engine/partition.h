// Peer-partition planning for a deployed operator network, used by the
// partitioned runner (transport/runner.h). The operator graph is
// discovered from the entry operators, every operator is resolved to the
// super-peer it is deployed on, and operators are grouped into workers
// (one per peer, splitting a peer when merging would close a cycle among
// workers) so that every cross-worker handoff points down a DAG — bounded
// blocking on such edges cannot deadlock, and the end-of-stream pill
// protocol terminates.

#ifndef STREAMSHARE_ENGINE_PARTITION_H_
#define STREAMSHARE_ENGINE_PARTITION_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "engine/operator.h"

namespace streamshare::engine {

struct ParallelOptions {
  /// Items each worker's inbound queue holds before producers block
  /// (pills count as one item; a batch is admitted whole once any space
  /// is free).
  size_t queue_capacity = 1024;
  /// Items per ItemBatch: DOM feeds are chunked to this size, and every
  /// queue port flushes once it has buffered this many.
  size_t batch_size = 64;
  /// Cap on worker threads; 0 means std::thread::hardware_concurrency().
  /// Peer partitions beyond the cap are coalesced along the worker DAG
  /// (CoalesceWorkers), so one thread drives several peers instead of
  /// oversubscribing the machine.
  size_t max_workers = 0;
};

/// Per-worker observability for one Run (queue pressure, partition
/// shape). Indexed by worker id.
struct ParallelWorkerStats {
  /// Peers whose operators run on this worker (usually exactly one; a
  /// peer may also appear on several workers when its operators were
  /// split to keep the worker handoff graph acyclic).
  std::vector<network::NodeId> peers;
  size_t operator_count = 0;
  /// Items pushed into this worker's queue, poison pills included.
  uint64_t entries_received = 0;
  /// Time producers spent blocked on this worker's full queue.
  uint64_t producer_blocked_ns = 0;
  /// Time this worker spent blocked waiting for input.
  uint64_t consumer_blocked_ns = 0;
  /// High-water mark of this worker's queue depth (pills included).
  uint64_t max_queue_depth = 0;
};

/// The partition of one operator graph: which worker drives each
/// operator, and which edges cross workers. Operator indices are
/// discovery order (BFS from the entries) — deterministic for a given
/// deployment, so two processes that built the same deployment agree on
/// every index.
struct PartitionPlan {
  /// Discovered operators in discovery order; the index into this vector
  /// is the operator's stable id.
  std::vector<Operator*> ops;
  std::unordered_map<Operator*, size_t> op_index;
  /// Downstream edges by operator index (the serial wiring; hard
  /// successors are not included).
  std::vector<std::vector<size_t>> succ;
  /// Resolved super-peer of each operator (operators without accounting
  /// inherit from the nearest accounted neighbor; isolated chains fall
  /// back to peer of worker 0).
  std::vector<int> peer_key;
  /// Worker driving each operator.
  std::vector<size_t> worker_of;
  size_t worker_count = 0;

  /// One deduplicated cross-worker edge, in discovery order.
  struct CrossEdge {
    size_t source = 0;  // op index on worker_of[source]
    size_t target = 0;  // op index on worker_of[target], a different worker
  };
  std::vector<CrossEdge> cross_edges;

  /// Peers whose operators run on each worker (a peer may appear on
  /// several workers when it was split to keep the handoff graph
  /// acyclic).
  std::vector<std::vector<network::NodeId>> worker_peers;
  std::vector<size_t> worker_operator_count;
  /// Workers each worker feeds across at least one cross edge.
  std::vector<std::set<size_t>> worker_downstream;

  size_t WorkerOf(Operator* op) const {
    return worker_of[op_index.at(op)];
  }
};

/// Plans the peer partition of the graph reachable from `entries`.
/// Fails on null entries. The graph is left untouched — callers splice
/// their own ports into the cross edges.
Status PlanPeerPartitions(const std::vector<Operator*>& entries,
                          PartitionPlan* plan);

/// Merges the plan's workers down to at most `max_workers` (no-op when
/// already within the cap or `max_workers` is 0). Workers are cut into
/// contiguous segments of a topological order of the worker handoff DAG,
/// balanced by operator count, so every surviving handoff edge still
/// points down a DAG and the pill protocol stays deadlock-free. The
/// runner applies this against ParallelOptions::max_workers on memory
/// channels only; over a transport every worker models a distinct peer,
/// which is semantic, not a tuning knob.
void CoalesceWorkers(PartitionPlan* plan, size_t max_workers);

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_PARTITION_H_
