// Multi-input combination at the query's super-peer. The paper handles
// each input stream of a subscription individually (Algorithm 1 iterates
// per input, delivering the relevant parts of every input to the query's
// super-peer) and performs "any combination of input data streams as
// demanded by the subscription ... during the final post-processing step"
// whose output is never shared (§3.3, §2).
//
// CombineOp implements that post-processing for multi-for subscriptions
// with XQuery's nested-loop semantics over the *delivered* finite
// streams: each input is buffered behind a port; when every input has
// finished, the cartesian product of bound items is filtered by the
// query's cross-binding join conditions and fed through the return
// clause. (Bindings with windows or aggregates are single-input only —
// the analyzer enforces this.)

#ifndef STREAMSHARE_ENGINE_COMBINE_H_
#define STREAMSHARE_ENGINE_COMBINE_H_

#include <memory>
#include <vector>

#include "engine/operator.h"
#include "wxquery/analyzer.h"

namespace streamshare::engine {

class CombineOp;

/// One input port of a CombineOp. Construct one per subscription input
/// and wire the input's chain into it; the port buffers items into the
/// combiner and, on end of stream, triggers the combination once all
/// ports are done.
class CombinePortOp : public Operator {
 public:
  CombinePortOp(std::string label, CombineOp* parent, size_t index);

  /// The combiner is invoked through a direct pointer (all ports mutate
  /// its buffers), so a partitioned executor must co-locate it with its
  /// ports.
  void AppendHardSuccessors(std::vector<Operator*>* out) override;

 protected:
  /// Buffers the materialized slots into the combiner.
  Status ProcessBatch(ItemBatch* batch) override;
  Status OnFinish() override;

 private:
  CombineOp* parent_;
  size_t index_;
};

class CombineOp : public Operator {
 public:
  /// Guard against cartesian blow-ups: combinations beyond this bound
  /// fail with kOutOfRange instead of consuming unbounded time/memory.
  static constexpr uint64_t kMaxCombinations = 5'000'000;

  CombineOp(std::string label,
            std::shared_ptr<const wxquery::AnalyzedQuery> query);

  size_t input_count() const { return buffers_.size(); }

 protected:
  /// Items are never pushed into the combiner directly — only through
  /// its ports.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  friend class CombinePortOp;

  Status PortFinished();
  /// Nested-loop evaluation over all buffered inputs. Outputs leave in
  /// unstamped batches (the combination runs at end of stream).
  Status EvaluateAll();

  std::shared_ptr<const wxquery::AnalyzedQuery> query_;
  std::vector<std::vector<ItemPtr>> buffers_;
  size_t finished_ports_ = 0;
  ItemBatch scratch_;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_COMBINE_H_
