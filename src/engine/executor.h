// Driving a deployed operator network: owns operators, feeds source
// batches, and propagates end-of-stream. The operator graph is a forest
// rooted at per-stream entry operators; fan-out happens wherever a stream
// is shared.

#ifndef STREAMSHARE_ENGINE_EXECUTOR_H_
#define STREAMSHARE_ENGINE_EXECUTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/operator.h"

namespace streamshare::engine {

/// Canonical context prefix for a Status escaping `op` during `action`
/// ("push" or "finish"): "<action> <label>". Both the serial executor and
/// the partitioned runner wrap operator failures through WrapOperatorFailure,
/// so a failing query reports the same string either way.
std::string OperatorContext(std::string_view action, const Operator& op);

/// Prefixes `status` with OperatorContext and emits an error event to the
/// default obs::EventLog (when a sink is installed).
Status WrapOperatorFailure(Status status, std::string_view action,
                           const Operator& op);

/// Owns a set of operators wired into a dataflow graph.
class OperatorGraph {
 public:
  /// Constructs and registers an operator; returns a borrowed pointer
  /// valid for the lifetime of the graph.
  template <typename Op, typename... Args>
  Op* Add(Args&&... args) {
    auto op = std::make_unique<Op>(std::forward<Args>(args)...);
    Op* raw = op.get();
    operators_.push_back(std::move(op));
    return raw;
  }

  size_t size() const { return operators_.size(); }

 private:
  std::vector<std::unique_ptr<Operator>> operators_;
};

/// Chunks DOM items into consecutive batches of `batch_size` (0 counts
/// as 1), adopting photon-conforming items into compact records when
/// `adopt` is true. The one place DOM items become batches.
std::vector<ItemBatch> ChunkItems(const std::vector<ItemPtr>& items,
                                  size_t batch_size, bool adopt);

/// The feed loop: round-robins the per-stream batch lists across
/// `entries` (one batch per stream per round, per-stream order
/// preserved). When `stamp` is true (the default), every fed batch costs
/// one clock read, which stamps its still-unstamped slots; the stamps
/// then carry the measured-latency plane (engine/latency.h) to the sinks.
/// When `finish` is true (the default), signals end of stream afterwards
/// — a single-shot run. Pass false to keep the streams live (continuous
/// operation with more feeds to come); end of stream is a one-shot
/// signal per operator.
/// Batches are consumed in place: pushing may fill their lazy
/// materialization caches.
Status RunBatchStreams(const std::vector<Operator*>& entries,
                       std::vector<std::vector<ItemBatch>>* batch_lists,
                       bool finish = true, bool stamp = true);

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_EXECUTOR_H_
