// Runtime kill switch for the observability layer (metrics registry,
// trace recorder, event log): obs::SetEnabled(false) gates every
// `if (obs::Enabled()) { ... }` instrumentation block in the engine and
// planner behind one relaxed atomic load. Tracing has its own additional
// opt-in switch (TraceRecorder::SetEnabled), since span recording is the
// only part whose always-on cost would be noticeable. Default: counters
// on, tracing off.

#ifndef STREAMSHARE_OBS_OBS_H_
#define STREAMSHARE_OBS_OBS_H_

#include <atomic>

namespace streamshare::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Master gate for hot-path instrumentation. One relaxed load.
inline bool Enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void SetEnabled(bool enabled) {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace streamshare::obs

#endif  // STREAMSHARE_OBS_OBS_H_
