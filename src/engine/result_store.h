// The result store: one append-only, chunked arena of encoded results per
// deployment (StreamShareSystem owns it). Queries at one super-peer often
// produce the very same result for the same fed item — same return
// program, same projected record. Restructuring encodes such a result once
// into the store and hands every query a reference to it (ResultRef, 8
// bytes); sinks keep the references instead of bytes of their own, and the
// serve daemon forwards straight from the store.
//
// Entries never move: a chunk, once allocated, stays where it is until the
// store dies, so references stay valid while later results are appended.
// A transient store (no sink keeps results) rewinds to its first chunk at
// every source batch instead, because nothing refers past the batch that
// produced it.
//
// The store also holds what restructuring shares across queries: the
// interned return programs (restructure.cc), and the encode cache: for
// each (program, record mask), the results already encoded for each fed
// item of the current source batch.

#ifndef STREAMSHARE_ENGINE_RESULT_STORE_H_
#define STREAMSHARE_ENGINE_RESULT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/codec.h"
#include "engine/record.h"

namespace streamshare::engine {

/// A compiled return program (restructure.cc).
struct ReturnProgram;

class ResultStore {
 public:
  /// Entries go into chunks of this size; an entry that does not fit in
  /// what is left of the current chunk starts a new one (a larger entry
  /// gets a chunk of its own size), so no entry straddles two chunks.
  static constexpr size_t kChunkBytes = 64 * 1024;

  explicit ResultStore(bool transient = false) : transient_(transient) {}

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Copies one self-contained encoding into the store.
  ResultRef Append(std::string_view encoding);

  /// Encodes one result: write it through the returned writer (an empty
  /// dictionary, like a fresh encoder), then EndResult appends it.
  ItemWriter* BeginResult() {
    scratch_.clear();
    writer_.Begin(&scratch_);
    return &writer_;
  }
  EncodedResult EndResult() {
    return EncodedResult{Append(scratch_),
                         static_cast<uint32_t>(writer_.xml_size()),
                         writer_.content_hash()};
  }

  /// Starts a source batch (the executor calls it before each push): gives
  /// every slot of `batch` a fresh origin, empties the encode cache, and
  /// rewinds a transient store.
  void BeginSourceBatch(ItemBatch* batch);

  /// The encode cache of one return program under one record mask: what
  /// it produced for each fed item of the current source batch, by the
  /// item's position in the batch.
  struct Memo {
    struct Entry {
      uint64_t origin = 0;  // 0: nothing cached yet
      uint32_t begin = 0;   // the run of cached_ it produced
      uint32_t count = 0;
    };
    std::vector<Entry> entries;
  };
  /// The memo of `program` under `mask`; it lives as long as the store.
  Memo* MemoFor(const ReturnProgram* program, uint16_t mask) {
    return &memos_[{program, mask}];
  }

  /// The results `memo` cached for fed item `origin` in the current source
  /// batch; on a miss, `encode(std::vector<EncodedResult>*)` appends them
  /// first. An origin that is not one of the current batch's fed items (a
  /// slot pushed without BeginSourceBatch) is encoded afresh every time.
  /// The span is valid until the next call.
  template <typename EncodeFn>
  std::span<const EncodedResult> Cached(Memo* memo, uint64_t origin,
                                        const EncodeFn& encode) {
    if (origin < first_origin_) {
      fresh_.clear();
      encode(&fresh_);
      return fresh_;
    }
    const size_t at = origin - first_origin_;
    if (memo->entries.size() <= at) {
      memo->entries.resize(next_origin_ - first_origin_ + 1);
    }
    Memo::Entry& entry = memo->entries[at];
    if (entry.origin == origin) {
      shared_ += entry.count;
    } else {
      entry.origin = origin;
      entry.begin = static_cast<uint32_t>(cached_.size());
      encode(&cached_);
      entry.count = static_cast<uint32_t>(cached_.size() - entry.begin);
    }
    return std::span<const EncodedResult>(cached_).subspan(entry.begin,
                                                           entry.count);
  }

  /// The interned programs whose structural hash is `hash`; restructure.cc
  /// interns into it. Programs live as long as the store, so their
  /// addresses key the cache.
  std::vector<std::shared_ptr<const ReturnProgram>>& ProgramsWithHash(
      uint64_t hash) {
    return programs_[hash];
  }

  /// Results encoded into the store.
  uint64_t encoded() const { return encoded_; }
  /// Results handed out again from the encode cache instead of encoded.
  uint64_t shared() const { return shared_; }
  /// Bytes the entries take (encodings plus their length prefixes); the
  /// chunks round this up by less than one chunk each.
  uint64_t bytes() const { return bytes_; }

 private:
  struct MemoKey {
    const ReturnProgram* program;
    uint16_t mask;

    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const {
      return std::hash<const void*>()(key.program) * 31 + key.mask;
    }
  };

  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
  };

  bool transient_;
  /// Entries are appended to chunks_.back(), at `used_`.
  std::vector<Chunk> chunks_;
  size_t used_ = 0;
  uint64_t next_origin_ = 0;
  /// Origins below this are not fed items of the current source batch.
  uint64_t first_origin_ = 1;
  std::unordered_map<MemoKey, Memo, MemoKeyHash> memos_;
  /// The results the memos point into; emptied at every source batch.
  std::vector<EncodedResult> cached_;
  /// Results of origins that bypass the cache.
  std::vector<EncodedResult> fresh_;
  std::unordered_map<uint64_t,
                     std::vector<std::shared_ptr<const ReturnProgram>>>
      programs_;
  ItemWriter writer_;
  std::string scratch_;
  uint64_t encoded_ = 0;
  uint64_t shared_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_RESULT_STORE_H_
