// Structured event log: severity + component + message + key=value
// fields, delivered to a pluggable sink. The default sink is null (the
// library stays silent, as before); tools install a StderrSink and tests
// a MemorySink. ShouldLog is one relaxed load + compare, so a silent log
// costs nothing on the paths that consult it first.

#ifndef STREAMSHARE_OBS_EVENT_LOG_H_
#define STREAMSHARE_OBS_EVENT_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/obs.h"

namespace streamshare::obs {

enum class Severity { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

std::string_view SeverityToString(Severity severity);

/// One structured key=value field.
struct LogField {
  std::string key;
  std::string value;
};

LogField F(std::string key, std::string value);
LogField F(std::string key, std::string_view value);
LogField F(std::string key, const char* value);
LogField F(std::string key, double value);
LogField F(std::string key, bool value);
template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
LogField F(std::string key, T value) {
  return LogField{std::move(key), std::to_string(value)};
}

struct LogEvent {
  Severity severity = Severity::kInfo;
  std::string component;
  std::string message;
  std::vector<LogField> fields;
  /// Microseconds since the log's creation.
  uint64_t ts_us = 0;
};

/// "ts [severity] component: message key=value ..." — the canonical
/// single-line rendering, shared by StderrSink and tests.
std::string FormatLogEvent(const LogEvent& event);

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void Consume(const LogEvent& event) = 0;
};

/// Writes FormatLogEvent lines to stderr.
class StderrSink : public EventSink {
 public:
  void Consume(const LogEvent& event) override;
};

/// Retains events in memory (tests, --explain style postmortems).
class MemorySink : public EventSink {
 public:
  void Consume(const LogEvent& event) override;
  std::vector<LogEvent> TakeEvents();
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<LogEvent> events_;
};

class EventLog {
 public:
  EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Process-wide default instance used by the built-in instrumentation.
  static EventLog& Default();

  /// nullptr silences the log.
  void SetSink(std::shared_ptr<EventSink> sink);
  void SetMinSeverity(Severity severity);

  /// Cheap pre-check: a sink is installed and `severity` clears the bar.
  bool ShouldLog(Severity severity) const {
    return has_sink_.load(std::memory_order_relaxed) &&
           static_cast<int>(severity) >=
               min_severity_.load(std::memory_order_relaxed);
  }

  void Log(Severity severity, std::string_view component,
           std::string_view message, std::vector<LogField> fields = {});

 private:
  std::atomic<bool> has_sink_{false};
  std::atomic<int> min_severity_{static_cast<int>(Severity::kInfo)};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::shared_ptr<EventSink> sink_;
};

}  // namespace streamshare::obs

#endif  // STREAMSHARE_OBS_EVENT_LOG_H_
