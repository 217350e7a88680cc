// Tests for multi-input subscriptions: the CombineOp's nested-loop
// semantics, join conditions, per-input sharing, and equivalence with a
// hand-computed reference.

#include <gtest/gtest.h>

#include "engine/combine.h"
#include "predicate/eval.h"
#include "engine/executor.h"
#include "obs/event_log.h"
#include "sharing/system.h"
#include "workload/photon_gen.h"
#include "xml/xml_writer.h"
#include "item_feed.h"

namespace streamshare {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

engine::ItemPtr Item(const char* name, const char* field, int value) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->AddLeaf(field, std::to_string(value));
  return engine::MakeItem(std::move(node));
}

std::shared_ptr<const wxquery::AnalyzedQuery> Analyze(const char* text) {
  Result<wxquery::AnalyzedQuery> analyzed =
      wxquery::ParseAndAnalyze(text);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status() << "\n" << text;
  return std::make_shared<const wxquery::AnalyzedQuery>(
      std::move(analyzed).value());
}

TEST(CombineOpTest, CartesianProductInNestedLoopOrder) {
  auto query = Analyze(
      "<o> { for $p in stream(\"s\")/r/i for $q in stream(\"t\")/r/j "
      "where $p/a >= 0 and $q/b >= 0 "
      "return <pair> { $p/a } { $q/b } </pair> } </o>");
  engine::OperatorGraph graph;
  auto* combiner = graph.Add<engine::CombineOp>("c", query);
  auto* port0 = graph.Add<engine::CombinePortOp>("p0", combiner, 0);
  auto* port1 = graph.Add<engine::CombinePortOp>("p1", combiner, 1);
  auto* sink = graph.Add<engine::SinkOp>("sink", true);
  combiner->AddDownstream(sink);

  ASSERT_TRUE(PushItems(port0, {Item("i", "a", 1)}).ok());
  ASSERT_TRUE(PushItems(port0, {Item("i", "a", 2)}).ok());
  ASSERT_TRUE(PushItems(port1, {Item("j", "b", 10)}).ok());
  ASSERT_TRUE(PushItems(port1, {Item("j", "b", 20)}).ok());
  ASSERT_TRUE(port0->Finish().ok());
  EXPECT_EQ(sink->item_count(), 0u);  // waits for all inputs
  ASSERT_TRUE(port1->Finish().ok());

  ASSERT_EQ(sink->item_count(), 4u);
  // Outer binding ($p) varies slowest.
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]),
            "<pair><a>1</a><b>10</b></pair>");
  EXPECT_EQ(xml::WriteCompact(*sink->items()[1]),
            "<pair><a>1</a><b>20</b></pair>");
  EXPECT_EQ(xml::WriteCompact(*sink->items()[2]),
            "<pair><a>2</a><b>10</b></pair>");
  EXPECT_EQ(xml::WriteCompact(*sink->items()[3]),
            "<pair><a>2</a><b>20</b></pair>");
}

TEST(CombineOpTest, JoinConditionsFilterTuples) {
  auto query = Analyze(
      "<o> { for $p in stream(\"s\")/r/i for $q in stream(\"t\")/r/j "
      "where $p/a = $q/b return <m> { $p/a } </m> } </o>");
  engine::OperatorGraph graph;
  auto* combiner = graph.Add<engine::CombineOp>("c", query);
  auto* port0 = graph.Add<engine::CombinePortOp>("p0", combiner, 0);
  auto* port1 = graph.Add<engine::CombinePortOp>("p1", combiner, 1);
  auto* sink = graph.Add<engine::SinkOp>("sink", true);
  combiner->AddDownstream(sink);

  for (int a : {1, 2, 3}) {
    ASSERT_TRUE(PushItems(port0, {Item("i", "a", a)}).ok());
  }
  for (int b : {2, 3, 4}) {
    ASSERT_TRUE(PushItems(port1, {Item("j", "b", b)}).ok());
  }
  ASSERT_TRUE(port0->Finish().ok());
  ASSERT_TRUE(port1->Finish().ok());

  ASSERT_EQ(sink->item_count(), 2u);  // matches on 2 and 3
  EXPECT_EQ(sink->items()[0]->FirstChild("a")->text(), "2");
  EXPECT_EQ(sink->items()[1]->FirstChild("a")->text(), "3");
}

TEST(CombineOpTest, EmptyInputYieldsEmptyProduct) {
  auto query = Analyze(
      "<o> { for $p in stream(\"s\")/r/i for $q in stream(\"t\")/r/j "
      "where $p/a >= 0 and $q/b >= 0 return <m/> } </o>");
  engine::OperatorGraph graph;
  auto* combiner = graph.Add<engine::CombineOp>("c", query);
  auto* port0 = graph.Add<engine::CombinePortOp>("p0", combiner, 0);
  auto* port1 = graph.Add<engine::CombinePortOp>("p1", combiner, 1);
  auto* sink = graph.Add<engine::SinkOp>("sink", true);
  combiner->AddDownstream(sink);
  ASSERT_TRUE(PushItems(port0, {Item("i", "a", 1)}).ok());
  ASSERT_TRUE(port0->Finish().ok());
  ASSERT_TRUE(port1->Finish().ok());
  EXPECT_EQ(sink->item_count(), 0u);
}

class MultiInputSystemTest : public ::testing::Test {
 protected:
  std::unique_ptr<sharing::StreamShareSystem> MakeSystem() {
    sharing::SystemConfig config;
    config.keep_results = true;
    auto system = std::make_unique<sharing::StreamShareSystem>(
        network::Topology::ExtendedExample(), config);
    for (auto [name, node] :
         {std::make_pair("photons", 4), std::make_pair("photons2", 2)}) {
      EXPECT_TRUE(system
                      ->RegisterStream(name,
                                       workload::PhotonGenerator::Schema(),
                                       100.0, node)
                      .ok());
      EXPECT_TRUE(
          system->SetRange(name, P("coord/cel/ra"), {0.0, 360.0}).ok());
      EXPECT_TRUE(system->SetRange(name, P("en"), {0.1, 2.4}).ok());
    }
    return system;
  }

  std::map<std::string, std::vector<engine::ItemPtr>> MakeItems(
      size_t count) {
    std::map<std::string, std::vector<engine::ItemPtr>> items;
    workload::PhotonGenConfig first;
    first.seed = 1;
    workload::PhotonGenConfig second;
    second.seed = 2;
    items["photons"] = workload::PhotonGenerator(first).Generate(count);
    items["photons2"] = workload::PhotonGenerator(second).Generate(count);
    return items;
  }
};

// Coincidence search: photon pairs from the two detectors with nearly
// equal energies.
constexpr const char* kCoincidence =
    "<pairs> { for $p in stream(\"photons\")/photons/photon "
    "for $q in stream(\"photons2\")/photons/photon "
    "where $p/en >= 2.2 and $q/en >= 2.2 and $p/en <= $q/en + 0.1 "
    "and $q/en <= $p/en + 0.1 "
    "return <pair> { $p/en } { $q/en } </pair> } </pairs>";

TEST_F(MultiInputSystemTest, CoincidenceQueryEndToEnd) {
  auto system = MakeSystem();
  Result<sharing::RegistrationResult> result = system->RegisterQuery(
      kCoincidence, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(result.ok()) << result.status();
  auto items = MakeItems(400);
  ASSERT_TRUE(system->Run(items).ok());

  // Reference: brute-force over the same inputs.
  size_t expected = 0;
  for (const engine::ItemPtr& p : items["photons"]) {
    double ep = predicate::ExtractValue(*p, P("en")).value().ToDouble();
    if (ep < 2.2) continue;
    for (const engine::ItemPtr& q : items["photons2"]) {
      double eq = predicate::ExtractValue(*q, P("en")).value().ToDouble();
      if (eq < 2.2) continue;
      if (ep <= eq + 0.1 + 1e-12 && eq <= ep + 0.1 + 1e-12) ++expected;
    }
  }
  EXPECT_EQ(result->sink->item_count(), expected);
  EXPECT_GT(expected, 0u);
}

// An end-of-stream failure during continuous operation (the daemon's
// path: Feed, then Shutdown) is wrapped like any run's: "finish <entry>"
// context and an error event naming the action.
TEST_F(MultiInputSystemTest, ShutdownFailureCarriesFinishContext) {
  auto system = MakeSystem();
  // No join condition: the combination at end of stream is the full
  // cartesian product, which 2300 x 2300 items push past the combiner's
  // 5M-tuple guard.
  const char* product =
      "<pairs> { for $p in stream(\"photons\")/photons/photon "
      "for $q in stream(\"photons2\")/photons/photon "
      "return <pair> { $p/en } { $q/en } </pair> } </pairs>";
  ASSERT_TRUE(
      system->RegisterQuery(product, 1, sharing::Strategy::kStreamSharing)
          .ok());
  ASSERT_TRUE(system->Feed(MakeItems(2300)).ok());

  auto events = std::make_shared<obs::MemorySink>();
  obs::EventLog::Default().SetSink(events);
  Status status = system->Shutdown();
  obs::EventLog::Default().SetSink(nullptr);  // restore the silent default

  ASSERT_TRUE(status.IsOutOfRange()) << status.ToString();
  EXPECT_EQ(status.message().rfind("finish ", 0), 0u) << status.ToString();
  bool saw_finish = false;
  for (const obs::LogEvent& event : events->TakeEvents()) {
    for (const obs::LogField& field : event.fields) {
      if (field.key == "action" && field.value == "finish") {
        saw_finish = true;
      }
    }
  }
  EXPECT_TRUE(saw_finish);
}

TEST_F(MultiInputSystemTest, PerInputSharingStillApplies) {
  auto system = MakeSystem();
  // A single-input query over photons first; the multi-input query's
  // photons side must reuse its stream.
  const char* single =
      "<o> { for $p in stream(\"photons\")/photons/photon "
      "where $p/en >= 2.0 return <h> { $p/en } </h> } </o>";
  ASSERT_TRUE(
      system->RegisterQuery(single, 1, sharing::Strategy::kStreamSharing)
          .ok());
  Result<sharing::RegistrationResult> multi = system->RegisterQuery(
      kCoincidence, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(multi.ok()) << multi.status();
  EXPECT_GT(multi->plan.inputs[0].reused_stream, 1)
      << multi->plan.ToString();
}

TEST_F(MultiInputSystemTest, MatchesDataShipping) {
  auto shared_system = MakeSystem();
  Result<sharing::RegistrationResult> shared =
      shared_system->RegisterQuery(kCoincidence, 3,
                                   sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(shared.ok());
  auto items = MakeItems(300);
  ASSERT_TRUE(shared_system->Run(items).ok());

  auto shipping_system = MakeSystem();
  Result<sharing::RegistrationResult> shipped =
      shipping_system->RegisterQuery(kCoincidence, 3,
                                     sharing::Strategy::kDataShipping);
  ASSERT_TRUE(shipped.ok());
  ASSERT_TRUE(shipping_system->Run(items).ok());

  ASSERT_EQ(shared->sink->item_count(), shipped->sink->item_count());
  for (size_t i = 0; i < shared->sink->items().size(); ++i) {
    EXPECT_TRUE(
        shared->sink->items()[i]->Equals(*shipped->sink->items()[i]));
  }
}

}  // namespace
}  // namespace streamshare
