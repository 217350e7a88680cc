// Bounded MPSC handoff between execution workers. Every operator-graph
// edge that crosses a peer partition (a LinkOp boundary in the deployed
// network) is serviced by the consumer worker's LinkQueue: producers block
// when the queue is full (backpressure, so a fast upstream peer cannot
// flood a slow one), and each producer ends its stream with one poison
// pill so the consumer knows when every input is drained.
//
// Entries carry whole ItemBatches, so a producer takes the lock and rings
// the consumer once per batch instead of once per item — the contended
// hot path the speedup bench's consumer-blocked time measures. Capacity
// and all depth counters are in *items*, not entries (a pill counts as
// one), so the configured bound means the same thing at any batch size; a
// batch is admitted whole once any space is free, overshooting capacity
// by at most one batch.
//
// Blocked time is counted on both sides; the speedup bench reports it so
// queue-capacity tuning is measurable rather than guessed.

#ifndef STREAMSHARE_ENGINE_LINK_QUEUE_H_
#define STREAMSHARE_ENGINE_LINK_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "engine/record.h"

namespace streamshare::obs {
class Histogram;
}  // namespace streamshare::obs

namespace streamshare::engine {

class Operator;

class LinkQueue {
 public:
  /// One handoff: deliver every item of `batch` to `target` on the
  /// consumer's thread. A null target is a poison pill — "this producer
  /// is done" (its batch is empty).
  struct Entry {
    Operator* target = nullptr;
    ItemBatch batch;
    /// latency::NowUs() when the entry was enqueued (0 on a queue
    /// without a residency histogram). PopBatch turns it into queue
    /// residency: credited to every stamped slot's queue_us and observed
    /// on the residency histogram.
    uint64_t enqueued_us = 0;
  };

  explicit LinkQueue(size_t capacity);

  /// Enqueues one entry, blocking while the queue is at capacity.
  void Push(Entry entry);
  /// Enqueues a whole batch of entries in order, blocking for space as
  /// needed. The vector is consumed (entries are moved out).
  void PushBatch(std::vector<Entry>* batch);

  /// Dequeues entries into `out` (appended) until at least one entry and
  /// at most ~`max_items` items have been taken, blocking while the queue
  /// is empty. The first entry is always taken whole regardless of size.
  void PopBatch(std::vector<Entry>* out, size_t max_items);

  size_t capacity() const { return capacity_; }
  /// Total items ever pushed (each pill counting as one).
  uint64_t pushed_count() const {
    return pushed_count_.load(std::memory_order_relaxed);
  }
  /// Nanoseconds producers spent blocked on a full queue.
  uint64_t producer_blocked_ns() const {
    return producer_blocked_ns_.load(std::memory_order_relaxed);
  }
  /// Nanoseconds the consumer spent blocked on an empty queue.
  uint64_t consumer_blocked_ns() const {
    return consumer_blocked_ns_.load(std::memory_order_relaxed);
  }
  /// High-water mark of the queued item count (pills included). Shows how
  /// close the queue came to its capacity, i.e. whether backpressure
  /// engaged.
  uint64_t max_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// Zeroes every counter, max_depth included, so a queue that outlives
  /// one executor run reports per-run stats instead of all-time ones.
  /// Call only while no producer or consumer is active.
  void ResetStats();

  /// Installs a queue-residency histogram (µs per dequeued entry). The
  /// queue takes enqueue/dequeue ticks only while it has one, so an
  /// executor installs it exactly when its run stamps; null (the
  /// default) means no ticks and no queue_us crediting. The executor
  /// names it (e.g. engine.queue.worker.<i>.residency_us).
  void SetResidencyHistogram(obs::Histogram* histogram) {
    residency_us_ = histogram;
  }

 private:
  /// Item weight of one entry: a pill stands for one item.
  static size_t Weight(const Entry& entry) {
    return entry.target == nullptr ? 1 : entry.batch.size();
  }

  /// Called with mu_ held after every insertion.
  void NoteDepthLocked() {
    if (size_ > max_depth_.load(std::memory_order_relaxed))
      max_depth_.store(size_, std::memory_order_relaxed);
  }

  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Entry> entries_;
  size_t size_ = 0;  // queued items (guarded by mu_)
  std::atomic<uint64_t> pushed_count_{0};
  std::atomic<uint64_t> producer_blocked_ns_{0};
  std::atomic<uint64_t> consumer_blocked_ns_{0};
  std::atomic<uint64_t> max_depth_{0};
  obs::Histogram* residency_us_ = nullptr;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_LINK_QUEUE_H_
