// The post-processing (restructuring) step of §2: evaluating the return
// clause of a WXQuery at the super-peer the subscribing peer is connected
// to. The input is the shared-format stream (projected items, or <wagg>
// aggregate items); the output is the subscriber-visible result stream
// whose structure the return clause dictates. Restructured streams are
// never registered for reuse.

#ifndef STREAMSHARE_ENGINE_RESTRUCTURE_H_
#define STREAMSHARE_ENGINE_RESTRUCTURE_H_

#include <memory>
#include <span>
#include <vector>

#include "engine/operator.h"
#include "engine/result_store.h"
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
/// Their results leave as encoded slots (record.h): references into the
/// result store, written straight into the codec's self-contained form
/// with their XML size and content hash, so no result tree is built at
/// all. Structurally equal programs are interned in the store, and a
/// record's results are encoded once per fed item and record mask, for
/// every query whose program is the same (ResultStore::Cached).
class RestructureOp : public Operator {
 public:
  /// `store` (not owned) holds the encoded results and must outlive the
  /// operator.
  RestructureOp(std::string label,
                std::shared_ptr<const wxquery::AnalyzedQuery> query,
                ResultStore* store);

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

  /// The results of record slot `slot` under the compiled program: from
  /// the store's encode cache, or encoded now.
  std::span<const EncodedResult> Encode(const ItemBatch::Slot& slot);

  std::shared_ptr<const wxquery::AnalyzedQuery> query_;
  const wxquery::StreamBinding* binding_;  // single-input queries
  ResultStore* store_;
  /// Compiled record program, interned in store_; null when the query
  /// shape requires the DOM evaluation (window contents, aggregates,
  /// nested FLWR, step conditions, off-schema structural conditions).
  std::shared_ptr<const ReturnProgram> program_;
  /// The store's encode cache for program_ under memo_mask_, the mask of
  /// the last record slot.
  ResultStore::Memo* memo_ = nullptr;
  uint16_t memo_mask_ = 0;
  ItemBatch scratch_;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_RESTRUCTURE_H_
