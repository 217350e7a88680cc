// Test helpers that drive operators from DOM item lists through the batch
// API: items ride as opaque slots (the operators' DOM evaluation), one
// item per batch unless a batch size is given.

#ifndef STREAMSHARE_TESTS_ITEM_FEED_H_
#define STREAMSHARE_TESTS_ITEM_FEED_H_

#include <vector>

#include "engine/executor.h"

namespace streamshare::engine {

/// Pushes `items` into `op` without signalling end of stream; stops at
/// the first failing batch.
inline Status PushItems(Operator* op, const std::vector<ItemPtr>& items,
                        size_t batch_size = 1) {
  for (ItemBatch& batch : ChunkItems(items, batch_size, /*adopt=*/false)) {
    SS_RETURN_IF_ERROR(op->PushBatch(&batch));
  }
  return Status::Ok();
}

/// Feeds `items` into `entry` through RunBatchStreams, then signals end
/// of stream.
inline Status RunItems(Operator* entry, const std::vector<ItemPtr>& items,
                       size_t batch_size = 1) {
  std::vector<std::vector<ItemBatch>> batches = {
      ChunkItems(items, batch_size, /*adopt=*/false)};
  return RunBatchStreams({entry}, &batches);
}

/// Per-stream batch lists chunked from DOM item lists the way a fed item
/// map is chunked (batches of 64, photon-conforming items adopted).
inline std::vector<std::vector<ItemBatch>> ChunkStreams(
    const std::vector<std::vector<ItemPtr>>& streams,
    size_t batch_size = 64, bool adopt = true) {
  std::vector<std::vector<ItemBatch>> batches;
  for (const std::vector<ItemPtr>& items : streams) {
    batches.push_back(ChunkItems(items, batch_size, adopt));
  }
  return batches;
}

}  // namespace streamshare::engine

#endif  // STREAMSHARE_TESTS_ITEM_FEED_H_
