#include "engine/link_queue.h"

#include <chrono>

#include "engine/latency.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace streamshare::engine {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// Records the just-finished blocked interval on the calling thread's
/// trace track, so stalls show up as explicit spans in chrome://tracing.
void TraceBlocked(const char* name, uint64_t blocked_ns) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  if (!recorder.enabled()) return;
  uint64_t duration_us = blocked_ns / 1000;
  uint64_t end_us = recorder.NowMicros();
  recorder.RecordComplete(name, "queue",
                          end_us > duration_us ? end_us - duration_us : 0,
                          duration_us, {});
}

}  // namespace

LinkQueue::LinkQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void LinkQueue::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  pushed_count_.store(0, std::memory_order_relaxed);
  producer_blocked_ns_.store(0, std::memory_order_relaxed);
  consumer_blocked_ns_.store(0, std::memory_order_relaxed);
  max_depth_.store(size_, std::memory_order_relaxed);
}

void LinkQueue::Push(Entry entry) {
  if (entry.enqueued_us == 0 && residency_us_ != nullptr) {
    entry.enqueued_us = latency::NowUs();
  }
  size_t weight = Weight(entry);
  std::unique_lock<std::mutex> lock(mu_);
  if (size_ >= capacity_) {
    Clock::time_point start = Clock::now();
    not_full_.wait(lock, [this] { return size_ < capacity_; });
    uint64_t blocked = ElapsedNs(start);
    producer_blocked_ns_.fetch_add(blocked, std::memory_order_relaxed);
    TraceBlocked("queue.blocked.producer", blocked);
  }
  bool was_empty = entries_.empty();
  entries_.push_back(std::move(entry));
  size_ += weight;
  NoteDepthLocked();
  pushed_count_.fetch_add(weight, std::memory_order_relaxed);
  // The consumer only ever waits on an empty queue, so one entry is
  // enough to wake it; notify under the lock to keep TSAN-obvious.
  if (was_empty) not_empty_.notify_one();
}

void LinkQueue::PushBatch(std::vector<Entry>* batch) {
  if (batch->empty()) return;
  if (residency_us_ != nullptr) {
    uint64_t now = latency::NowUs();
    for (Entry& entry : *batch) {
      if (entry.enqueued_us == 0) entry.enqueued_us = now;
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  size_t pushed = 0;
  for (Entry& entry : *batch) {
    size_t weight = Weight(entry);
    if (size_ >= capacity_) {
      if (pushed > 0) not_empty_.notify_one();
      Clock::time_point start = Clock::now();
      not_full_.wait(lock, [this] { return size_ < capacity_; });
      uint64_t blocked = ElapsedNs(start);
      producer_blocked_ns_.fetch_add(blocked, std::memory_order_relaxed);
      TraceBlocked("queue.blocked.producer", blocked);
    }
    entries_.push_back(std::move(entry));
    size_ += weight;
    NoteDepthLocked();
    pushed += weight;
  }
  pushed_count_.fetch_add(pushed, std::memory_order_relaxed);
  not_empty_.notify_one();
  batch->clear();
}

void LinkQueue::PopBatch(std::vector<Entry>* out, size_t max_items) {
  std::unique_lock<std::mutex> lock(mu_);
  if (entries_.empty()) {
    Clock::time_point start = Clock::now();
    not_empty_.wait(lock, [this] { return !entries_.empty(); });
    uint64_t blocked = ElapsedNs(start);
    consumer_blocked_ns_.fetch_add(blocked, std::memory_order_relaxed);
    TraceBlocked("queue.blocked.consumer", blocked);
  }
  size_t first_taken = out->size();
  size_t taken = 0;
  while (!entries_.empty() && (taken == 0 || taken < max_items)) {
    taken += Weight(entries_.front());
    out->push_back(std::move(entries_.front()));
    entries_.pop_front();
  }
  size_ -= taken;
  // Waking every blocked producer is correct (they re-check capacity) and
  // cheap: producers block only when the queue was full, and we just made
  // room.
  not_full_.notify_all();
  lock.unlock();

  // Queue residency: how long each just-dequeued entry sat in the queue.
  // Credited to every stamped slot (stage attribution at the sink) and
  // observed once per entry on the residency histogram.
  if (residency_us_ == nullptr) return;
  uint64_t now = latency::NowUs();
  for (size_t e = first_taken; e < out->size(); ++e) {
    Entry& entry = (*out)[e];
    if (entry.enqueued_us == 0) continue;
    uint64_t wait_us = now > entry.enqueued_us ? now - entry.enqueued_us : 0;
    entry.enqueued_us = 0;
    residency_us_->Observe(static_cast<double>(wait_us));
    if (entry.target == nullptr) continue;
    for (size_t i = 0; i < entry.batch.size(); ++i) {
      ItemBatch::Slot& slot = entry.batch.slot(i);
      if (slot.stamp.stamped()) slot.stamp.queue_us += wait_us;
    }
  }
}

}  // namespace streamshare::engine
