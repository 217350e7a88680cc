#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace streamshare::obs {

namespace {

std::atomic<uint64_t> g_generation{0};

/// Thread-local cache entry mapping a recorder to this thread's buffer.
/// The generation guards against a recorder being destroyed (or Cleared)
/// and another one reusing its address.
struct CacheEntry {
  const void* recorder;
  uint64_t generation;
  void* buffer;
};

thread_local std::vector<CacheEntry> t_buffer_cache;

std::string JsonEscape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendArgs(const std::vector<TraceArg>& args, std::string* out) {
  *out += "\"args\":{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "\"" + JsonEscape(args[i].key) + "\":";
    if (args[i].is_num) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.12g", args[i].num);
      *out += buf;
    } else {
      *out += "\"" + JsonEscape(args[i].str) + "\"";
    }
  }
  *out += "}";
}

}  // namespace

TraceRecorder::TraceRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) +
                  1) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

uint64_t TraceRecorder::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  for (const CacheEntry& entry : t_buffer_cache) {
    if (entry.recorder == this && entry.generation == generation_) {
      return static_cast<ThreadBuffer*>(entry.buffer);
    }
  }
  ThreadBuffer* buffer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->tid = buffers_.size();
  }
  t_buffer_cache.push_back(CacheEntry{this, generation_, buffer});
  return buffer;
}

void TraceRecorder::RecordComplete(std::string_view name,
                                   std::string_view category,
                                   uint64_t start_us, uint64_t duration_us,
                                   std::vector<TraceArg> args) {
  if (!enabled()) return;
  ThreadBuffer* buffer = BufferForThisThread();
  Event event;
  event.name.assign(name);
  event.category.assign(category);
  event.ts_us = start_us;
  event.dur_us = duration_us;
  event.phase = 'X';
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::RecordInstant(std::string_view name,
                                  std::string_view category,
                                  std::vector<TraceArg> args) {
  if (!enabled()) return;
  ThreadBuffer* buffer = BufferForThisThread();
  Event event;
  event.name.assign(name);
  event.category.assign(category);
  event.ts_us = NowMicros();
  event.phase = 'i';
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  epoch_ = std::chrono::steady_clock::now();
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    count += buffer->events.size();
  }
  return count;
}

std::string TraceRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char head[160];
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (const Event& event : buffer->events) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + JsonEscape(event.name) + "\",\"cat\":\"" +
             JsonEscape(event.category) + "\",";
      if (event.phase == 'X') {
        std::snprintf(head, sizeof(head),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
                      ",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 ",",
                      buffer->tid, event.ts_us, event.dur_us);
      } else {
        std::snprintf(head, sizeof(head),
                      "\"ph\":\"%c\",\"s\":\"t\",\"pid\":1,\"tid\":%" PRIu64
                      ",\"ts\":%" PRIu64 ",",
                      event.phase, buffer->tid, event.ts_us);
      }
      out += head;
      AppendArgs(event.args, &out);
      out += "}";
    }
  }
  out += "]}";
  return out;
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  std::string json = ToJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open trace file '" + path +
                                   "' for writing");
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  int close_result = std::fclose(file);
  if (written != json.size() || close_result != 0) {
    return Status::Internal("short write to trace file '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace streamshare::obs
