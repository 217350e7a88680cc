// Tests for window-contents queries: the WindowContentsOp engine
// operator, restructuring over window members, and planning/sharing
// behaviour (identical windows share; different windows fall back to the
// original stream rather than failing).

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/window_agg.h"
#include "sharing/system.h"
#include "workload/photon_gen.h"
#include "xml/xml_writer.h"
#include "item_feed.h"

namespace streamshare {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

engine::ItemPtr Item(double t, double x) {
  auto node = std::make_unique<xml::XmlNode>("m");
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", t);
  node->AddLeaf("t", buffer);
  std::snprintf(buffer, sizeof(buffer), "%.1f", x);
  node->AddLeaf("x", buffer);
  return engine::MakeItem(std::move(node));
}

TEST(WindowContentsOpTest, TumblingCountWindows) {
  engine::OperatorGraph graph;
  auto* contents = graph.Add<engine::WindowContentsOp>(
      "wc", properties::WindowSpec::Count(2).value());
  auto* sink = graph.Add<engine::SinkOp>("sink", true);
  contents->AddDownstream(sink);

  ASSERT_TRUE(engine::RunItems(contents, {Item(1, 10), Item(2, 20),
                                           Item(3, 30), Item(4, 40),
                                           Item(5, 50)})
                  .ok());
  // Two full windows + the flushed partial one.
  ASSERT_EQ(sink->item_count(), 3u);
  const xml::XmlNode& first = *sink->items()[0];
  EXPECT_EQ(first.name(), "window");
  EXPECT_EQ(first.FirstChild("seq")->text(), "0");
  EXPECT_EQ(first.Children("m").size(), 2u);
  EXPECT_EQ(sink->items()[2]->Children("m").size(), 1u);  // partial
}

TEST(WindowContentsOpTest, SlidingWindowsDuplicateMembers) {
  engine::OperatorGraph graph;
  auto* contents = graph.Add<engine::WindowContentsOp>(
      "wc", properties::WindowSpec::Count(4, 2).value());
  auto* sink = graph.Add<engine::SinkOp>("sink", true);
  contents->AddDownstream(sink);
  std::vector<engine::ItemPtr> items;
  for (int i = 0; i < 8; ++i) items.push_back(Item(i, i));
  ASSERT_TRUE(engine::RunItems(contents, items).ok());
  ASSERT_GE(sink->item_count(), 3u);
  // Window 0 = items 0..3, window 1 = items 2..5: items 2,3 appear in
  // both.
  const xml::XmlNode& w0 = *sink->items()[0];
  const xml::XmlNode& w1 = *sink->items()[1];
  EXPECT_EQ(w0.Children("m").size(), 4u);
  EXPECT_EQ(w1.Children("m").size(), 4u);
  EXPECT_EQ(w0.Children("m")[2]->FirstChild("t")->text(),
            w1.Children("m")[0]->FirstChild("t")->text());
}

TEST(WindowContentsOpTest, TimeWindowsEmitEmptyForContinuity) {
  engine::OperatorGraph graph;
  auto* contents = graph.Add<engine::WindowContentsOp>(
      "wc", properties::WindowSpec::Diff(P("t"), Decimal::FromInt(10))
                .value());
  auto* sink = graph.Add<engine::SinkOp>("sink", true);
  contents->AddDownstream(sink);
  ASSERT_TRUE(
      engine::RunItems(contents, {Item(5, 1), Item(25, 2)}).ok());
  // [0,10) full, [10,20) empty, flushed [20,30).
  ASSERT_EQ(sink->item_count(), 3u);
  EXPECT_EQ(sink->items()[1]->Children("m").size(), 0u);
  EXPECT_EQ(sink->items()[1]->FirstChild("seq")->text(), "1");
}

class WindowContentsSystemTest : public ::testing::Test {
 protected:
  std::unique_ptr<sharing::StreamShareSystem> MakeSystem() {
    sharing::SystemConfig config;
    config.keep_results = true;
    auto system = std::make_unique<sharing::StreamShareSystem>(
        network::Topology::ExtendedExample(), config);
    EXPECT_TRUE(system
                    ->RegisterStream("photons",
                                     workload::PhotonGenerator::Schema(),
                                     100.0, 4)
                    .ok());
    EXPECT_TRUE(
        system->SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}).ok());
    EXPECT_TRUE(system->SetRange("photons", P("en"), {0.1, 2.4}).ok());
    EXPECT_TRUE(
        system->SetAvgIncrement("photons", P("det_time"), 0.5).ok());
    return system;
  }

  Status Run(sharing::StreamShareSystem* system, size_t count) {
    workload::PhotonGenConfig config;
    workload::PhotonGenerator generator(config);
    std::map<std::string, std::vector<engine::ItemPtr>> items;
    items["photons"] = generator.Generate(count);
    return system->Run(items);
  }
};

constexpr const char* kWindowQuery =
    "<bursts> { for $w in stream(\"photons\")/photons/photon [en >= 0.5] "
    "|det_time diff 40 step 40| "
    "return <burst> { $w/en } </burst> } </bursts>";

TEST_F(WindowContentsSystemTest, WindowQueryRegistersAndRuns) {
  auto system = MakeSystem();
  Result<sharing::RegistrationResult> result = system->RegisterQuery(
      kWindowQuery, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(Run(system.get(), 2000).ok());
  ASSERT_GT(result->sink->item_count(), 5u);
  // Each result is a <burst> with one <en> per member photon above the
  // energy threshold.
  const xml::XmlNode& burst = *result->sink->items()[0];
  EXPECT_EQ(burst.name(), "burst");
  EXPECT_GT(burst.Children("en").size(), 0u);
}

TEST_F(WindowContentsSystemTest, WindowResultsMatchDataShipping) {
  auto shared_system = MakeSystem();
  Result<sharing::RegistrationResult> shared = shared_system->RegisterQuery(
      kWindowQuery, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(shared.ok()) << shared.status();
  ASSERT_TRUE(Run(shared_system.get(), 1500).ok());

  auto shipping_system = MakeSystem();
  Result<sharing::RegistrationResult> shipped =
      shipping_system->RegisterQuery(kWindowQuery, 1,
                                     sharing::Strategy::kDataShipping);
  ASSERT_TRUE(shipped.ok()) << shipped.status();
  ASSERT_TRUE(Run(shipping_system.get(), 1500).ok());

  ASSERT_EQ(shared->sink->item_count(), shipped->sink->item_count());
  for (size_t i = 0; i < shared->sink->items().size(); ++i) {
    EXPECT_TRUE(
        shared->sink->items()[i]->Equals(*shipped->sink->items()[i]))
        << "window " << i;
  }
}

TEST_F(WindowContentsSystemTest, IdenticalWindowQueriesShare) {
  auto system = MakeSystem();
  Result<sharing::RegistrationResult> first = system->RegisterQuery(
      kWindowQuery, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<sharing::RegistrationResult> second = system->RegisterQuery(
      kWindowQuery, 3, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(second.ok()) << second.status();
  // The second subscription reuses the first's window stream verbatim.
  EXPECT_GT(second->plan.inputs[0].reused_stream, 0)
      << second->plan.ToString();
  EXPECT_TRUE(second->plan.inputs[0].ops.empty())
      << second->plan.ToString();
}

TEST_F(WindowContentsSystemTest, DifferentWindowFallsBackToOriginal) {
  auto system = MakeSystem();
  ASSERT_TRUE(system
                  ->RegisterQuery(kWindowQuery, 1,
                                  sharing::Strategy::kStreamSharing)
                  .ok());
  // Same pre-selection, different window: the existing window stream is
  // not reusable; the planner must fall back to the original stream
  // instead of failing.
  const char* other =
      "<bursts> { for $w in stream(\"photons\")/photons/photon "
      "[en >= 0.5] |det_time diff 80 step 80| "
      "return <burst> { $w/en } </burst> } </bursts>";
  Result<sharing::RegistrationResult> result =
      system->RegisterQuery(other, 3, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan.inputs[0].reused_stream, 0)
      << result->plan.ToString();
}

}  // namespace
}  // namespace streamshare
