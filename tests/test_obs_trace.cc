// Trace recorder: emitted Chrome trace_event JSON must actually parse,
// carry the required fields on every event, and keep each thread track's
// complete-spans properly nested. A minimal recursive-descent JSON parser
// lives in this test so well-formedness is checked for real (no external
// dependency), not by substring poking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "obs/trace.h"
#include "transport/runner.h"
#include "item_feed.h"

namespace streamshare {
namespace {

using engine::ItemPtr;
using obs::TraceArg;
using obs::TraceRecorder;
using obs::TraceSpan;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser (objects, arrays, strings, numbers, bools,
// null). Throws nothing: Parse reports failure via ok().
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const {
    return type == Type::kObject && object.count(key) > 0;
  }
  const JsonValue& At(const std::string& key) const {
    static const JsonValue kNullValue;
    auto it = object.find(key);
    return it == object.end() ? kNullValue : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseLiteral(const char* literal) {
    size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char escape = text_[pos_++];
        switch (escape) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            // Decode only for validity; non-ASCII code points are kept as
            // '?' (the recorder never emits them).
            std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            int code = 0;
            for (char h : hex) {
              if (!std::isxdigit(static_cast<unsigned char>(h))) {
                return false;
              }
              code = code * 16 + (std::isdigit(
                                      static_cast<unsigned char>(h))
                                      ? h - '0'
                                      : (std::tolower(h) - 'a' + 10));
            }
            out->push_back(code < 128 ? static_cast<char>(code) : '?');
            break;
          }
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }
  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                              nullptr);
    return true;
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      while (true) {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace(std::move(key), std::move(value));
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return ParseLiteral("true");
    }
    if (c == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return ParseLiteral("false");
    }
    if (c == 'n') return ParseLiteral("null");
    return ParseNumber(out);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Parses `json` and returns the traceEvents array, failing the test on
// malformed input.
std::vector<JsonValue> TraceEvents(const std::string& json) {
  JsonValue root;
  JsonParser parser(json);
  EXPECT_TRUE(parser.Parse(&root)) << "malformed trace JSON: " << json;
  EXPECT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_TRUE(root.Has("traceEvents"));
  EXPECT_EQ(root.At("traceEvents").type, JsonValue::Type::kArray);
  return root.At("traceEvents").array;
}

// Every event needs name/ph/pid/tid; "X" events need ts and dur, "M"
// metadata events carry the thread name argument.
void CheckRequiredFields(const std::vector<JsonValue>& events) {
  for (const JsonValue& event : events) {
    ASSERT_EQ(event.type, JsonValue::Type::kObject);
    EXPECT_TRUE(event.Has("name"));
    EXPECT_TRUE(event.Has("ph"));
    EXPECT_TRUE(event.Has("pid"));
    EXPECT_TRUE(event.Has("tid"));
    const std::string& phase = event.At("ph").string;
    if (phase == "X") {
      EXPECT_TRUE(event.Has("ts"));
      EXPECT_TRUE(event.Has("dur"));
      EXPECT_TRUE(event.Has("cat"));
    } else if (phase == "M") {
      EXPECT_EQ(event.At("name").string, "thread_name");
      EXPECT_TRUE(event.At("args").Has("name"));
    } else if (phase == "i") {
      EXPECT_TRUE(event.Has("ts"));
      EXPECT_EQ(event.At("s").string, "t");
    } else {
      ADD_FAILURE() << "unexpected phase " << phase;
    }
  }
}

// Complete spans on one track must nest: sorted by (start asc, dur desc),
// each span either starts after the enclosing span ended or ends within
// it. RAII spans and the executor's manual dispatch spans both guarantee
// this per thread; interleaved (partially overlapping) spans on a track
// would render as garbage in the trace viewer.
void CheckNestingPerTrack(const std::vector<JsonValue>& events) {
  struct Span {
    uint64_t start, end;
    std::string name;
  };
  std::map<double, std::vector<Span>> by_tid;
  for (const JsonValue& event : events) {
    if (event.At("ph").string != "X") continue;
    Span span;
    span.start = static_cast<uint64_t>(event.At("ts").number);
    span.end = span.start + static_cast<uint64_t>(event.At("dur").number);
    span.name = event.At("name").string;
    by_tid[event.At("tid").number].push_back(span);
  }
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.start != b.start) return a.start < b.start;
      return (a.end - a.start) > (b.end - b.start);
    });
    std::vector<Span> stack;
    for (const Span& span : spans) {
      while (!stack.empty() && stack.back().end <= span.start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(span.end, stack.back().end)
            << "span '" << span.name << "' overlaps '"
            << stack.back().name << "' on tid " << tid;
      }
      stack.push_back(span);
    }
  }
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  recorder.RecordComplete("span", "test", 0, 10);
  recorder.RecordInstant("point", "test");
  TraceSpan span(&recorder, "raii", "test");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(recorder.event_count(), 0u);
  std::vector<JsonValue> events = TraceEvents(recorder.ToJson());
  EXPECT_TRUE(events.empty());
}

TEST(TraceRecorderTest, NestedSpansSerializeWellFormed) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.SetThreadName("main-track");
  {
    TraceSpan outer(&recorder, "outer", "test");
    ASSERT_TRUE(outer.active());
    outer.AddArg(TraceArg::Num("C(P)", 0.125));
    outer.AddArg(TraceArg::Str("peer", "SP3"));
    {
      TraceSpan inner(&recorder, "inner", "test");
      recorder.RecordInstant("tick", "test",
                             {TraceArg::Num("items", 7)});
    }
  }
  EXPECT_EQ(recorder.event_count(), 3u);

  std::vector<JsonValue> events = TraceEvents(recorder.ToJson());
  // 3 recorded events + 1 thread_name metadata record.
  ASSERT_EQ(events.size(), 4u);
  CheckRequiredFields(events);
  CheckNestingPerTrack(events);

  bool saw_metadata = false, saw_outer = false;
  for (const JsonValue& event : events) {
    if (event.At("ph").string == "M") {
      saw_metadata = true;
      EXPECT_EQ(event.At("args").At("name").string, "main-track");
    }
    if (event.At("name").string == "outer") {
      saw_outer = true;
      EXPECT_DOUBLE_EQ(event.At("args").At("C(P)").number, 0.125);
      EXPECT_EQ(event.At("args").At("peer").string, "SP3");
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_outer);
}

TEST(TraceRecorderTest, EscapesSpecialCharactersInStrings) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.RecordComplete("quote\" slash\\ newline\n tab\t", "cat\"egory",
                          0, 1,
                          {TraceArg::Str("k\"ey", "va\\lue\n")});
  std::vector<JsonValue> events = TraceEvents(recorder.ToJson());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].At("name").string, "quote\" slash\\ newline\n tab\t");
  EXPECT_EQ(events[0].At("cat").string, "cat\"egory");
  EXPECT_EQ(events[0].At("args").At("k\"ey").string, "va\\lue\n");
}

TEST(TraceRecorderTest, ThreadsGetDistinctTracks) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      recorder.SetThreadName("thread-" + std::to_string(t));
      for (int i = 0; i < 3; ++i) {
        TraceSpan span(&recorder, "work", "test");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<JsonValue> events = TraceEvents(recorder.ToJson());
  CheckRequiredFields(events);
  CheckNestingPerTrack(events);
  std::map<double, int> spans_per_tid;
  int metadata = 0;
  for (const JsonValue& event : events) {
    if (event.At("ph").string == "X") {
      spans_per_tid[event.At("tid").number]++;
    } else if (event.At("ph").string == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(spans_per_tid.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(metadata, kThreads);
  for (const auto& [tid, count] : spans_per_tid) EXPECT_EQ(count, 3);
}

TEST(TraceRecorderTest, ClearDropsEventsAndResetsEpoch) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.RecordComplete("before", "test", 0, 1);
  EXPECT_EQ(recorder.event_count(), 1u);
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  recorder.RecordComplete("after", "test", 0, 1);
  std::vector<JsonValue> events = TraceEvents(recorder.ToJson());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].At("name").string, "after");
}

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

// End-to-end: the partitioned runner's built-in instrumentation (worker
// tracks, dispatch spans, the parallel.run span) must produce a parseable
// trace with well-nested spans on every track.
TEST(TraceRecorderTest, ParallelRunEmitsWellNestedTrace) {
  TraceRecorder& recorder = TraceRecorder::Default();
  recorder.Clear();
  recorder.SetEnabled(true);

  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* sink = graph.Add<engine::SinkOp>("sink");
  entry->AddDownstream(sink);
  std::vector<ItemPtr> items;
  for (int i = 0; i < 300; ++i) items.push_back(Leaf("n", std::to_string(i)));
  transport::PartitionedRunner runner;
  auto batches = engine::ChunkStreams({items});
  Status status = runner.Run({entry}, &batches);

  recorder.SetEnabled(false);
  ASSERT_TRUE(status.ok());
  std::string json = recorder.ToJson();
  recorder.Clear();

  std::vector<JsonValue> events = TraceEvents(json);
  CheckRequiredFields(events);
  CheckNestingPerTrack(events);
  bool saw_run = false, saw_dispatch = false, saw_worker_track = false;
  for (const JsonValue& event : events) {
    if (event.At("name").string == "parallel.run") saw_run = true;
    if (event.At("cat").string == "op") saw_dispatch = true;
    if (event.At("ph").string == "M" &&
        event.At("args").At("name").string.find("worker-") == 0) {
      saw_worker_track = true;
    }
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_worker_track);
}

}  // namespace
}  // namespace streamshare
