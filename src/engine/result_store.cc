#include "engine/result_store.h"

#include <algorithm>
#include <cstring>

#include "common/varint.h"

namespace streamshare::engine {

ResultRef ResultStore::Append(std::string_view encoding) {
  std::string prefix;
  PutVarint(&prefix, encoding.size());
  const size_t need = prefix.size() + encoding.size();
  if (chunks_.empty() || chunks_.back().capacity - used_ < need) {
    Chunk chunk;
    chunk.capacity = std::max(kChunkBytes, need);
    chunk.data = std::make_unique<char[]>(chunk.capacity);
    chunks_.push_back(std::move(chunk));
    used_ = 0;
  }
  char* entry = chunks_.back().data.get() + used_;
  std::memcpy(entry, prefix.data(), prefix.size());
  std::memcpy(entry + prefix.size(), encoding.data(), encoding.size());
  used_ += need;
  bytes_ += need;
  ++encoded_;
  return ResultRef(entry);
}

void ResultStore::BeginSourceBatch(ItemBatch* batch) {
  first_origin_ = next_origin_ + 1;
  for (size_t i = 0; i < batch->size(); ++i) {
    batch->slot(i).origin = ++next_origin_;
  }
  cached_.clear();
  if (transient_ && !chunks_.empty()) {
    chunks_.resize(1);
    used_ = 0;
    bytes_ = 0;
  }
}

}  // namespace streamshare::engine
