// The post-processing (restructuring) step of §2: evaluating the return
// clause of a WXQuery at the super-peer the subscribing peer is connected
// to. The input is the shared-format stream (projected items, or <wagg>
// aggregate items); the output is the subscriber-visible result stream
// whose structure the return clause dictates. Restructured streams are
// never registered for reuse.

#ifndef STREAMSHARE_ENGINE_RESTRUCTURE_H_
#define STREAMSHARE_ENGINE_RESTRUCTURE_H_

#include <memory>

#include "engine/operator.h"
#include "wxquery/analyzer.h"

namespace streamshare::engine {

/// Evaluates the query's return expression once per incoming item. For
/// plain queries the item is bound to the for variable; for aggregate
/// queries the incoming <wagg> item is finalized (avg = sum/cnt) and bound
/// to the let variable; empty windows are skipped. Each top-level node the
/// return expression produces is emitted as one result item.
///
/// Plain (non-window, non-aggregate) queries whose return expression is
/// built from element constructors, sequences, condition-free output
/// paths, whole-item outputs and leaf-only conditions are compiled once
/// into a record program: record slots then produce their result trees
/// straight from the record fields — no input materialization, no path
/// navigation, no subtree cloning — byte-identical to the DOM evaluation.
class RestructureOp : public Operator {
 public:
  RestructureOp(std::string label,
                std::shared_ptr<const wxquery::AnalyzedQuery> query);
  ~RestructureOp() override;

  struct CompiledReturn;

 protected:
  /// Record slots run the compiled return program (when the query shape
  /// admits one); opaque slots take the DOM evaluation. Buffered outputs
  /// are flushed downstream before any error returns.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  /// DOM-path evaluation of one input item, appending each produced
  /// result item to `out` with `stamp`.
  Status EvaluateTree(const xml::XmlNode& item, ItemBatch* out,
                      const latency::ItemStamp& stamp);

  std::shared_ptr<const wxquery::AnalyzedQuery> query_;
  const wxquery::StreamBinding* binding_;  // single-input queries
  /// Compiled record program; null when the query shape requires the DOM
  /// evaluation (window contents, aggregates, nested FLWR, step
  /// conditions, off-schema structural conditions).
  std::unique_ptr<CompiledReturn> program_;
  ItemBatch scratch_;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_RESTRUCTURE_H_
