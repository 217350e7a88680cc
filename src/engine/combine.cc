#include "engine/combine.h"

#include "engine/return_eval.h"

namespace streamshare::engine {

namespace {

/// Output batch size of the combination's flushes.
constexpr size_t kOutputChunk = 64;

/// Evaluates the join conditions and, when they hold, the return clause
/// for one tuple of bound items, appending each output as an item.
Status AppendJoined(const wxquery::AnalyzedQuery& query,
                    const ReturnEnv& env, ItemBatch* out) {
  SS_ASSIGN_OR_RETURN(bool joined,
                      EvaluateReturnCondition(query.join_conditions, env));
  if (!joined) return Status::Ok();
  return AppendReturnOutputs(*query.flwr->return_expr, env, out);
}

}  // namespace

CombinePortOp::CombinePortOp(std::string label, CombineOp* parent,
                             size_t index)
    : Operator(std::move(label)), parent_(parent), index_(index) {}

Status CombinePortOp::ProcessBatch(ItemBatch* batch) {
  for (size_t i = 0; i < batch->size(); ++i) {
    parent_->buffers_[index_].push_back(batch->Materialize(i));
  }
  return Status::Ok();
}

Status CombinePortOp::OnFinish() { return parent_->PortFinished(); }

CombineOp::CombineOp(std::string label,
                     std::shared_ptr<const wxquery::AnalyzedQuery> query)
    : Operator(std::move(label)), query_(std::move(query)) {
  buffers_.resize(query_->bindings.size());
}

Status CombineOp::ProcessBatch(ItemBatch*) {
  return Status::Internal(
      "CombineOp receives items only through its ports");
}

Status CombineOp::PortFinished() {
  ++finished_ports_;
  if (finished_ports_ < buffers_.size()) return Status::Ok();
  SS_RETURN_IF_ERROR(EvaluateAll());
  // Propagate end of stream to the query's sink.
  return Finish();
}

Status CombineOp::EvaluateAll() {
  uint64_t combinations = 1;
  for (const std::vector<ItemPtr>& buffer : buffers_) {
    if (buffer.empty()) return Status::Ok();  // empty cartesian product
    combinations *= static_cast<uint64_t>(buffer.size());
    if (combinations > kMaxCombinations) {
      return Status::OutOfRange(
          "combination of input streams exceeds " +
          std::to_string(kMaxCombinations) + " tuples");
    }
  }

  // Odometer over the buffers, outermost binding varying slowest — the
  // FLWR's nested-loop order.
  std::vector<size_t> index(buffers_.size(), 0);
  ReturnEnv env;
  Status failure;
  while (true) {
    for (size_t b = 0; b < buffers_.size(); ++b) {
      env.items[query_->bindings[b].var] = buffers_[b][index[b]].get();
    }
    failure = AppendJoined(*query_, env, &scratch_);
    if (!failure.ok()) break;
    // Flush in chunks: a combination may produce millions of tuples.
    if (scratch_.size() >= kOutputChunk) {
      SS_RETURN_IF_ERROR(FlushScratch(&scratch_));
    }
    // Advance the odometer (innermost = last binding fastest); done once
    // the outermost binding wraps.
    size_t b = buffers_.size();
    while (b > 0 && ++index[b - 1] == buffers_[b - 1].size()) {
      index[--b] = 0;
    }
    if (b == 0) break;
  }
  return FlushScratch(&scratch_, std::move(failure));
}

}  // namespace streamshare::engine
