// Chrome trace_event recorder. Events accumulate in per-thread buffers
// (one uncontended mutex each; acquired once per event) and serialize to
// the JSON Array Format that chrome://tracing and Perfetto load directly:
// one process, one track per recorded thread, "X" complete events with
// name/cat/ts/dur and optional args.
//
// Recording is off until SetEnabled(true); every entry point checks one
// relaxed atomic first, so a disabled recorder costs a load. Timestamps
// are microseconds on the steady clock, relative to the recorder's
// creation (or last Clear), which keeps them Perfetto-friendly and
// deterministic enough to diff.

#ifndef STREAMSHARE_OBS_TRACE_H_
#define STREAMSHARE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace streamshare::obs {

/// One span/event argument; rendered as a JSON number or string.
struct TraceArg {
  std::string key;
  std::string str;
  double num = 0.0;
  bool is_num = false;

  static TraceArg Num(std::string key, double value) {
    TraceArg arg;
    arg.key = std::move(key);
    arg.num = value;
    arg.is_num = true;
    return arg;
  }
  static TraceArg Str(std::string key, std::string value) {
    TraceArg arg;
    arg.key = std::move(key);
    arg.str = std::move(value);
    return arg;
  }
};

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide default instance used by the built-in instrumentation.
  static TraceRecorder& Default();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the recorder's epoch (creation or last Clear).
  uint64_t NowMicros() const;

  /// A completed span ("ph":"X") on the calling thread's track.
  void RecordComplete(std::string_view name, std::string_view category,
                      uint64_t start_us, uint64_t duration_us,
                      std::vector<TraceArg> args = {});
  /// A point event ("ph":"i", thread scope) on the calling thread's track.
  void RecordInstant(std::string_view name, std::string_view category,
                     std::vector<TraceArg> args = {});

  /// Drops all recorded events and resets the epoch. Not safe to call
  /// concurrently with recording threads.
  void Clear();

  size_t event_count() const;

  /// {"traceEvents":[...]} — loadable by chrome://tracing / Perfetto.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    uint64_t ts_us = 0;
    uint64_t dur_us = 0;
    char phase = 'X';
    std::vector<TraceArg> args;
  };
  struct ThreadBuffer {
    std::mutex mu;
    uint64_t tid = 0;
    std::vector<Event> events;
  };

  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  /// Identity of this recorder across Clear() calls; bumping it
  /// invalidates the per-thread buffer caches.
  uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span recorded on destruction. Resolves the enabled check once in
/// the constructor; a span on a disabled recorder is inert, including
/// AddArg.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, std::string_view name,
            std::string_view category)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                             : nullptr) {
    if (recorder_ != nullptr) {
      name_.assign(name);
      category_.assign(category);
      start_us_ = recorder_->NowMicros();
    }
  }
  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->RecordComplete(name_, category_, start_us_,
                                recorder_->NowMicros() - start_us_,
                                std::move(args_));
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return recorder_ != nullptr; }
  void AddArg(TraceArg arg) {
    if (recorder_ != nullptr) args_.push_back(std::move(arg));
  }

 private:
  TraceRecorder* recorder_;
  std::string name_;
  std::string category_;
  uint64_t start_us_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace streamshare::obs

#endif  // STREAMSHARE_OBS_TRACE_H_
