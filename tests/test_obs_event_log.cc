// Structured event log: field formatting, severity filtering, the
// canonical FormatLogEvent rendering, and the satellite guarantee that
// the serial and parallel executors wrap an operator failure into the
// exact same error string (and emit the same structured error event).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/executor.h"
#include "obs/event_log.h"
#include "transport/runner.h"
#include "item_feed.h"

namespace streamshare {
namespace {

using engine::ItemPtr;
using obs::EventLog;
using obs::F;
using obs::LogEvent;
using obs::MemorySink;
using obs::Severity;

TEST(EventLogTest, FieldConstructorsFormatValues) {
  EXPECT_EQ(F("s", std::string("text")).value, "text");
  EXPECT_EQ(F("sv", std::string_view("view")).value, "view");
  EXPECT_EQ(F("c", "chars").value, "chars");
  EXPECT_EQ(F("i", 42).value, "42");
  EXPECT_EQ(F("u", size_t{7}).value, "7");
  EXPECT_EQ(F("n", -3).value, "-3");
  EXPECT_EQ(F("b", true).value, "true");
  EXPECT_EQ(F("b2", false).value, "false");
  // Doubles use shortest round-trip-ish %g formatting.
  EXPECT_EQ(F("d", 2.5).value, "2.5");
}

TEST(EventLogTest, SilentWithoutSink) {
  EventLog log;
  EXPECT_FALSE(log.ShouldLog(Severity::kError));
  // Logging without a sink is a no-op, not a crash.
  log.Log(Severity::kError, "test", "nobody listening");
}

TEST(EventLogTest, MemorySinkCapturesStructuredEvents) {
  EventLog log;
  auto sink = std::make_shared<MemorySink>();
  log.SetSink(sink);
  EXPECT_TRUE(log.ShouldLog(Severity::kInfo));

  log.Log(Severity::kWarn, "sharing", "query rejected",
          {F("query", 3), F("reason", "peer overloaded")});
  ASSERT_EQ(sink->size(), 1u);
  std::vector<LogEvent> events = sink->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, Severity::kWarn);
  EXPECT_EQ(events[0].component, "sharing");
  EXPECT_EQ(events[0].message, "query rejected");
  ASSERT_EQ(events[0].fields.size(), 2u);
  EXPECT_EQ(events[0].fields[0].key, "query");
  EXPECT_EQ(events[0].fields[0].value, "3");
  EXPECT_EQ(events[0].fields[1].key, "reason");
  EXPECT_EQ(events[0].fields[1].value, "peer overloaded");
  EXPECT_EQ(sink->size(), 0u);  // TakeEvents drains
}

TEST(EventLogTest, MinSeverityFilters) {
  EventLog log;
  auto sink = std::make_shared<MemorySink>();
  log.SetSink(sink);
  log.SetMinSeverity(Severity::kWarn);
  EXPECT_FALSE(log.ShouldLog(Severity::kDebug));
  EXPECT_FALSE(log.ShouldLog(Severity::kInfo));
  EXPECT_TRUE(log.ShouldLog(Severity::kWarn));
  EXPECT_TRUE(log.ShouldLog(Severity::kError));

  log.Log(Severity::kInfo, "test", "dropped");
  log.Log(Severity::kError, "test", "kept");
  std::vector<LogEvent> events = sink->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].message, "kept");
}

TEST(EventLogTest, FormatMatchesCanonicalRendering) {
  LogEvent event;
  event.severity = Severity::kError;
  event.component = "engine";
  event.message = "operator failed";
  event.fields = {F("action", "push"), F("operator", "select[q3]")};
  event.ts_us = 1500000;  // 1.5 s
  std::string line = FormatLogEvent(event);
  // "ts [severity] component: message key=value ..." — the component and
  // message join through the same separator Status contexts use, so log
  // lines and error strings read identically.
  EXPECT_EQ(line,
            "  1.500000 [error] engine: operator failed action=push "
            "operator=select[q3]");
}

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

/// Fails on the first item it sees.
class AlwaysFailOp final : public engine::Operator {
 public:
  explicit AlwaysFailOp(std::string label)
      : engine::Operator(std::move(label)) {}

 protected:
  Status ProcessBatch(engine::ItemBatch*) override {
    return Status::Internal("injected failure");
  }
};

// Satellite guarantee: a failing operator produces the identical error
// string whether the deployment runs serially or partitioned across
// worker threads — both executors wrap through WrapOperatorFailure.
TEST(EventLogTest, SerialAndParallelWrapFailuresIdentically) {
  std::vector<ItemPtr> items;
  for (int i = 0; i < 50; ++i) items.push_back(Leaf("n", "x"));

  engine::OperatorGraph serial_graph;
  auto* serial_entry = serial_graph.Add<engine::PassOp>("entry[q7]");
  auto* serial_fail = serial_graph.Add<AlwaysFailOp>("boom");
  serial_entry->AddDownstream(serial_fail);
  Status serial_status = engine::RunItems(serial_entry, items);

  engine::OperatorGraph parallel_graph;
  auto* parallel_entry = parallel_graph.Add<engine::PassOp>("entry[q7]");
  auto* parallel_fail = parallel_graph.Add<AlwaysFailOp>("boom");
  parallel_entry->AddDownstream(parallel_fail);
  transport::PartitionedRunner runner;
  auto batches = engine::ChunkStreams({items});
  Status parallel_status = runner.Run({parallel_entry}, &batches);

  ASSERT_FALSE(serial_status.ok());
  ASSERT_FALSE(parallel_status.ok());
  // Both executors wrap the failure at the operator they pushed into —
  // the entry — via WrapOperatorFailure, so the strings match exactly.
  EXPECT_EQ(serial_status.ToString(), parallel_status.ToString());
  EXPECT_NE(serial_status.ToString().find("push entry[q7]"),
            std::string::npos);
  EXPECT_NE(serial_status.ToString().find("injected failure"),
            std::string::npos);
}

TEST(EventLogTest, OperatorFailureEmitsStructuredErrorEvent) {
  auto sink = std::make_shared<MemorySink>();
  EventLog::Default().SetSink(sink);

  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* fail = graph.Add<AlwaysFailOp>("boom");
  entry->AddDownstream(fail);
  std::vector<ItemPtr> items;
  items.push_back(Leaf("n", "x"));
  Status status = engine::RunItems(entry, items);
  EventLog::Default().SetSink(nullptr);  // restore the silent default

  ASSERT_FALSE(status.ok());
  std::vector<LogEvent> events = sink->TakeEvents();
  ASSERT_GE(events.size(), 1u);
  const LogEvent& event = events[0];
  EXPECT_EQ(event.severity, Severity::kError);
  EXPECT_EQ(event.component, "engine");
  EXPECT_EQ(event.message, "operator failed");
  bool saw_action = false, saw_operator = false;
  for (const obs::LogField& field : event.fields) {
    if (field.key == "action") {
      saw_action = true;
      EXPECT_EQ(field.value, "push");
    }
    if (field.key == "operator") {
      saw_operator = true;
      EXPECT_EQ(field.value, "entry");
    }
  }
  EXPECT_TRUE(saw_action);
  EXPECT_TRUE(saw_operator);
}

}  // namespace
}  // namespace streamshare
