// Unit tests for the restructuring operator (return-clause evaluation at
// the query's super-peer): element construction, path/variable output,
// conditionals, sequences, and aggregate finalization.

#include "engine/restructure.h"

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/window_agg.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"
#include "item_feed.h"

namespace streamshare::engine {
namespace {

std::shared_ptr<const wxquery::AnalyzedQuery> Analyze(const char* text) {
  Result<wxquery::AnalyzedQuery> analyzed =
      wxquery::ParseAndAnalyze(text);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status() << "\n" << text;
  return std::make_shared<const wxquery::AnalyzedQuery>(
      std::move(analyzed).value());
}

ItemPtr Photon(const char* ra, const char* en) {
  auto node = std::make_unique<xml::XmlNode>("photon");
  auto* cel = node->AddChild("coord")->AddChild("cel");
  cel->AddLeaf("ra", ra);
  cel->AddLeaf("dec", "-45.0");
  node->AddLeaf("en", en);
  return MakeItem(std::move(node));
}

TEST(RestructureTest, BuildsReturnElements) {
  auto query = Analyze(
      "<photons> { for $p in stream(\"photons\")/photons/photon "
      "where $p/en >= 1.0 "
      "return <vela> { $p/coord/cel/ra } { $p/en } </vela> } </photons>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);

  ASSERT_TRUE(RunItems(restructure, {Photon("120.5", "1.5")}).ok());
  ASSERT_EQ(sink->item_count(), 1u);
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]),
            "<vela><ra>120.5</ra><en>1.5</en></vela>");
}

TEST(RestructureTest, WholeItemOutput) {
  auto query = Analyze(
      "<out> { for $p in stream(\"photons\")/photons/photon "
      "where $p/en >= 0 return $p } </out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);
  ItemPtr photon = Photon("1.0", "2.0");
  ASSERT_TRUE(RunItems(restructure, {photon}).ok());
  ASSERT_EQ(sink->item_count(), 1u);
  EXPECT_TRUE(sink->items()[0]->Equals(*photon));
}

TEST(RestructureTest, ConditionalBranches) {
  auto query = Analyze(
      "<out> { for $p in stream(\"photons\")/photons/photon "
      "where $p/en >= 0 "
      "return if $p/en >= 1.0 then <hard> { $p/en } </hard> "
      "else <soft> { $p/en } </soft> } </out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);
  ASSERT_TRUE(
      RunItems(restructure, {Photon("1", "1.5"), Photon("2", "0.5")})
          .ok());
  ASSERT_EQ(sink->item_count(), 2u);
  EXPECT_EQ(sink->items()[0]->name(), "hard");
  EXPECT_EQ(sink->items()[1]->name(), "soft");
}

TEST(RestructureTest, SequenceEmitsMultipleItems) {
  auto query = Analyze(
      "<out> { for $p in stream(\"photons\")/photons/photon "
      "where $p/en >= 0 "
      "return ( <a> { $p/en } </a>, <b> { $p/coord/cel/ra } </b> ) } "
      "</out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);
  ASSERT_TRUE(RunItems(restructure, {Photon("7.0", "1.0")}).ok());
  ASSERT_EQ(sink->item_count(), 2u);
  EXPECT_EQ(sink->items()[0]->name(), "a");
  EXPECT_EQ(sink->items()[1]->name(), "b");
}

TEST(RestructureTest, NestedElementConstructors) {
  auto query = Analyze(
      "<out> { for $p in stream(\"photons\")/photons/photon "
      "where $p/en >= 0 "
      "return <hit><pos> { $p/coord/cel/ra } </pos><meta><src/></meta>"
      "</hit> } </out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);
  ASSERT_TRUE(RunItems(restructure, {Photon("3.0", "1.0")}).ok());
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]),
            "<hit><pos><ra>3.0</ra></pos><meta><src/></meta></hit>");
}

TEST(RestructureTest, AggregateValueOutput) {
  auto query = Analyze(
      "<photons> { for $w in stream(\"photons\")/photons/photon "
      "|det_time diff 20 step 10| let $a := avg($w/en) "
      "return <avg_en> { $a } </avg_en> } </photons>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);

  AggItem window;
  window.seq = 3;
  window.sum = Decimal::Parse("4.5").value();
  window.count = 3;
  AggItem empty;
  empty.seq = 4;
  empty.sum = Decimal();
  empty.count = 0;
  ASSERT_TRUE(
      RunItems(restructure, {MakeAggItem(window), MakeAggItem(empty)})
          .ok());
  // The empty window is skipped; the full one yields avg 1.5.
  ASSERT_EQ(sink->item_count(), 1u);
  EXPECT_EQ(sink->items()[0]->name(), "avg_en");
  EXPECT_EQ(Decimal::Parse(sink->items()[0]->text()).value(),
            Decimal::Parse("1.5").value());
}

TEST(RestructureTest, PathOutputWithMultipleMatches) {
  auto query = Analyze(
      "<out> { for $p in stream(\"s\")/root/item where $p/n >= 0 "
      "return <all> { $p/tag } </all> } </out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);

  auto item = std::make_unique<xml::XmlNode>("item");
  item->AddLeaf("n", "1");
  item->AddLeaf("tag", "x");
  item->AddLeaf("tag", "y");
  ASSERT_TRUE(RunItems(restructure, {MakeItem(std::move(item))}).ok());
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]),
            "<all><tag>x</tag><tag>y</tag></all>");
}

TEST(RestructureTest, OutputPathConditionsFilterSubtrees) {
  auto query = Analyze(
      "<out> { for $p in stream(\"s\")/root/item where $p/n >= 0 "
      "return <big> { $p/reading[v >= 10] } </big> } </out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);

  auto item = std::make_unique<xml::XmlNode>("item");
  item->AddLeaf("n", "1");
  item->AddChild("reading")->AddLeaf("v", "5");
  item->AddChild("reading")->AddLeaf("v", "15");
  ASSERT_TRUE(RunItems(restructure, {MakeItem(std::move(item))}).ok());
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]),
            "<big><reading><v>15</v></reading></big>");
}

TEST(RestructureTest, MidPathConditionsFilterAtTheirStep) {
  // π̄ allows conditions after any step (Definition 2.1): keep only
  // readings of sensors whose quality is at least 5, then output their
  // calibrated values above 10.
  auto query = Analyze(
      "<out> { for $p in stream(\"s\")/root/item where $p/n >= 0 "
      "return <good> { $p/sensor[quality >= 5]/reading[v >= 10] } "
      "</good> } </out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);

  auto item = std::make_unique<xml::XmlNode>("item");
  item->AddLeaf("n", "1");
  // Sensor A: quality 7 — readings 12 (keep) and 3 (drop).
  auto* a = item->AddChild("sensor");
  a->AddLeaf("quality", "7");
  a->AddChild("reading")->AddLeaf("v", "12");
  a->AddChild("reading")->AddLeaf("v", "3");
  // Sensor B: quality 2 — whole subtree dropped at the first step.
  auto* b = item->AddChild("sensor");
  b->AddLeaf("quality", "2");
  b->AddChild("reading")->AddLeaf("v", "99");
  ASSERT_TRUE(RunItems(restructure, {MakeItem(std::move(item))}).ok());
  ASSERT_EQ(sink->item_count(), 1u);
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]),
            "<good><reading><v>12</v></reading></good>");
}

TEST(RestructureTest, MissingElementsYieldEmptyOutput) {
  auto query = Analyze(
      "<out> { for $p in stream(\"photons\")/photons/photon "
      "where $p/en >= 0 "
      "return <v> { $p/coord/det/dx } </v> } </out>");
  ResultStore store;
  OperatorGraph graph;
  auto* restructure = graph.Add<RestructureOp>("r", query, &store);
  auto* sink = graph.Add<SinkOp>("s", &store);
  restructure->AddDownstream(sink);
  ASSERT_TRUE(RunItems(restructure, {Photon("1", "1")}).ok());
  // No det/dx in the item: the constructed element is simply empty.
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]), "<v/>");
}

}  // namespace
}  // namespace streamshare::engine
