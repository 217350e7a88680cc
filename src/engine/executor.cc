#include "engine/executor.h"

#include <algorithm>
#include <span>

#include "engine/latency.h"
#include "obs/event_log.h"

namespace streamshare::engine {

namespace {

/// Prefixes `status` with "<action> <label>" (`action` is "push" or
/// "finish") and logs the failure as a structured error event.
Status WrapOperatorFailure(Status status, std::string_view action,
                           const Operator& op) {
  obs::EventLog& log = obs::EventLog::Default();
  if (log.ShouldLog(obs::Severity::kError)) {
    log.Log(obs::Severity::kError, "engine", "operator failed",
            {obs::F("action", action), obs::F("operator", op.label()),
             obs::F("status", status.ToString())});
  }
  return status.WithContext(std::string(action) + " " + op.label());
}

}  // namespace

std::vector<ItemBatch> ChunkItems(const std::vector<ItemPtr>& items,
                                  size_t batch_size, bool adopt) {
  if (batch_size == 0) batch_size = 1;
  std::vector<ItemBatch> batches;
  batches.reserve((items.size() + batch_size - 1) / batch_size);
  for (size_t i = 0; i < items.size(); i += batch_size) {
    batches.push_back(ItemBatch::FromItems(
        std::span(items).subspan(i, std::min(batch_size, items.size() - i)),
        adopt));
  }
  return batches;
}

Status RunBatchStreams(const std::vector<Operator*>& entries,
                       std::vector<std::vector<ItemBatch>>* batch_lists,
                       bool finish, bool stamp, ResultStore* results) {
  if (entries.size() != batch_lists->size()) {
    return Status::InvalidArgument(
        "RunBatchStreams: entries and batch lists differ in count");
  }
  std::vector<size_t> cursors(entries.size(), 0);
  std::vector<size_t> active;
  active.reserve(entries.size());
  for (size_t s = 0; s < entries.size(); ++s) {
    if (!(*batch_lists)[s].empty()) active.push_back(s);
  }
  while (!active.empty()) {
    size_t write = 0;
    for (size_t idx = 0; idx < active.size(); ++idx) {
      size_t s = active[idx];
      ItemBatch& batch = (*batch_lists)[s][cursors[s]++];
      if (stamp) batch.StampIngress(latency::NowUs());
      if (results != nullptr) results->BeginSourceBatch(&batch);
      Status status = entries[s]->PushBatch(&batch);
      if (!status.ok()) {
        return WrapOperatorFailure(std::move(status), "push", *entries[s]);
      }
      if (cursors[s] < (*batch_lists)[s].size()) active[write++] = s;
    }
    active.resize(write);
  }
  if (finish) {
    for (Operator* entry : entries) {
      Status status = entry->Finish();
      if (!status.ok()) {
        return WrapOperatorFailure(std::move(status), "finish", *entry);
      }
    }
  }
  return Status::Ok();
}

}  // namespace streamshare::engine
