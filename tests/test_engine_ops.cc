// Unit tests for the basic engine operators: selection, projection, link
// transport accounting, fan-out, and end-of-stream propagation.

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/operator.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"
#include "item_feed.h"

namespace streamshare::engine {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }
Decimal D(const char* text) { return Decimal::Parse(text).value(); }

ItemPtr Photon(const char* ra, const char* en) {
  auto node = std::make_unique<xml::XmlNode>("photon");
  auto* coord = node->AddChild("coord");
  auto* cel = coord->AddChild("cel");
  cel->AddLeaf("ra", ra);
  auto* det = coord->AddChild("det");
  det->AddLeaf("dx", "5");
  node->AddLeaf("en", en);
  return MakeItem(std::move(node));
}

TEST(SelectOpTest, FiltersByConjunction) {
  ResultStore store;
  OperatorGraph graph;
  auto* select = graph.Add<SelectOp>(
      "sel", std::vector<predicate::AtomicPredicate>{
                 predicate::AtomicPredicate::Compare(
                     P("en"), predicate::ComparisonOp::kGe, D("1.0")),
                 predicate::AtomicPredicate::Compare(
                     P("coord/cel/ra"), predicate::ComparisonOp::kLe,
                     D("200.0")),
             });
  auto* sink = graph.Add<SinkOp>("sink", &store);
  select->AddDownstream(sink);

  ASSERT_TRUE(RunItems(select, {Photon("120.0", "1.5"),
                                 Photon("250.0", "1.5"),
                                 Photon("120.0", "0.5")})
                  .ok());
  EXPECT_EQ(sink->item_count(), 1u);
  EXPECT_EQ(sink->items()[0]->FirstChild("en")->text(), "1.5");
}

TEST(SelectOpTest, EmptyConjunctionPassesEverything) {
  OperatorGraph graph;
  auto* select =
      graph.Add<SelectOp>("sel", std::vector<predicate::AtomicPredicate>{});
  auto* sink = graph.Add<SinkOp>("sink");
  select->AddDownstream(sink);
  ASSERT_TRUE(
      RunItems(select, {Photon("1", "1"), Photon("2", "2")}).ok());
  EXPECT_EQ(sink->item_count(), 2u);
}

TEST(ProjectOpTest, KeepsCoveredSubtreesAndAncestors) {
  ResultStore store;
  OperatorGraph graph;
  auto* project = graph.Add<ProjectOp>(
      "proj", std::vector<xml::Path>{P("coord/cel/ra"), P("en")});
  auto* sink = graph.Add<SinkOp>("sink", &store);
  project->AddDownstream(sink);

  ASSERT_TRUE(RunItems(project, {Photon("120.0", "1.5")}).ok());
  ASSERT_EQ(sink->item_count(), 1u);
  const xml::XmlNode& item = *sink->items()[0];
  EXPECT_EQ(xml::WriteCompact(item),
            "<photon><coord><cel><ra>120.0</ra></cel></coord>"
            "<en>1.5</en></photon>");
}

TEST(ProjectOpTest, AncestorPathKeepsWholeSubtree) {
  ResultStore store;
  OperatorGraph graph;
  auto* project =
      graph.Add<ProjectOp>("proj", std::vector<xml::Path>{P("coord")});
  auto* sink = graph.Add<SinkOp>("sink", &store);
  project->AddDownstream(sink);
  ASSERT_TRUE(RunItems(project, {Photon("120.0", "1.5")}).ok());
  const xml::XmlNode& item = *sink->items()[0];
  EXPECT_NE(item.FirstChild("coord"), nullptr);
  EXPECT_NE(item.FirstChild("coord")->FirstChild("det"), nullptr);
  EXPECT_EQ(item.FirstChild("en"), nullptr);
}

TEST(ProjectOpTest, NothingMatchingYieldsEmptyItemShell) {
  ResultStore store;
  OperatorGraph graph;
  auto* project =
      graph.Add<ProjectOp>("proj", std::vector<xml::Path>{P("missing")});
  auto* sink = graph.Add<SinkOp>("sink", &store);
  project->AddDownstream(sink);
  ASSERT_TRUE(RunItems(project, {Photon("1", "2")}).ok());
  EXPECT_EQ(xml::WriteCompact(*sink->items()[0]), "<photon/>");
}

TEST(LinkOpTest, CountsSerializedBytes) {
  network::Topology topology;
  auto a = topology.AddPeer("A");
  auto b = topology.AddPeer("B");
  network::LinkId link = topology.AddLink(a, b).value();
  Metrics metrics(topology);

  OperatorGraph graph;
  auto* transport = graph.Add<LinkOp>("link", &metrics, link);
  auto* sink = graph.Add<SinkOp>("sink");
  transport->AddDownstream(sink);

  ItemPtr item = Photon("120.0", "1.5");
  size_t size = item->SerializedSize();
  ASSERT_TRUE(RunItems(transport, {item, item}).ok());
  EXPECT_EQ(metrics.BytesOnLink(link), 2 * size);
  EXPECT_EQ(sink->item_count(), 2u);
}

TEST(OperatorTest, FanOutDeliversToAllDownstreams) {
  OperatorGraph graph;
  auto* pass = graph.Add<PassOp>("tap");
  auto* sink1 = graph.Add<SinkOp>("s1");
  auto* sink2 = graph.Add<SinkOp>("s2");
  pass->AddDownstream(sink1);
  pass->AddDownstream(sink2);
  ASSERT_TRUE(RunItems(pass, {Photon("1", "1")}).ok());
  EXPECT_EQ(sink1->item_count(), 1u);
  EXPECT_EQ(sink2->item_count(), 1u);
}

TEST(OperatorTest, WorkAccountingBillsPerInvocation) {
  network::Topology topology;
  auto a = topology.AddPeer("A");
  Metrics metrics(topology);

  OperatorGraph graph;
  auto* select =
      graph.Add<SelectOp>("sel", std::vector<predicate::AtomicPredicate>{});
  select->SetAccounting(&metrics, a, 1.5);
  auto* sink = graph.Add<SinkOp>("sink");
  select->AddDownstream(sink);
  ASSERT_TRUE(
      RunItems(select, {Photon("1", "1"), Photon("2", "2")}).ok());
  EXPECT_DOUBLE_EQ(metrics.WorkAtPeer(a), 3.0);
  EXPECT_EQ(metrics.OperatorInvocationsAtPeer(a), 2u);
}

TEST(OperatorTest, FinishIsIdempotentAndPropagates) {
  OperatorGraph graph;
  auto* pass = graph.Add<PassOp>("tap");
  auto* sink = graph.Add<SinkOp>("sink");
  pass->AddDownstream(sink);
  EXPECT_TRUE(pass->Finish().ok());
  EXPECT_TRUE(pass->Finish().ok());
}

TEST(ExecutorTest, RunStreamsInterleavesSources) {
  OperatorGraph graph;
  auto* a = graph.Add<PassOp>("a");
  auto* b = graph.Add<PassOp>("b");
  auto* sink = graph.Add<SinkOp>("sink");
  a->AddDownstream(sink);
  b->AddDownstream(sink);
  std::vector<std::vector<ItemBatch>> streams = {
      ChunkItems({Photon("1", "1"), Photon("2", "2")}, 1, /*adopt=*/false),
      ChunkItems({Photon("3", "3")}, 1, /*adopt=*/false)};
  ASSERT_TRUE(RunBatchStreams({a, b}, &streams).ok());
  EXPECT_EQ(sink->item_count(), 3u);
  std::vector<std::vector<ItemBatch>> mismatched(2);
  EXPECT_TRUE(RunBatchStreams({a}, &mismatched).IsInvalidArgument());
}

TEST(RunStreamsTest, SkipsExhaustedStreamsRoundRobin) {
  ResultStore store;
  OperatorGraph graph;
  auto* sink_a = graph.Add<SinkOp>("a", &store);
  auto* sink_b = graph.Add<SinkOp>("b", &store);
  // Unequal lengths: stream B exhausts first, A must keep flowing.
  std::vector<ItemPtr> a_items, b_items;
  for (const char* en : {"0", "1", "2", "3", "4"}) {
    a_items.push_back(Photon("1", en));
  }
  for (const char* en : {"0", "1"}) b_items.push_back(Photon("2", en));
  std::vector<std::vector<ItemBatch>> streams = {
      ChunkItems(a_items, 1, /*adopt=*/false),
      ChunkItems(b_items, 1, /*adopt=*/false)};
  ASSERT_TRUE(RunBatchStreams({sink_a, sink_b}, &streams).ok());
  ASSERT_EQ(sink_a->item_count(), 5u);
  ASSERT_EQ(sink_b->item_count(), 2u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(sink_a->items()[i]->Equals(*a_items[i])) << i;
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(sink_b->items()[i]->Equals(*b_items[i])) << i;
  }
}

TEST(MetricsTest, DerivedRates) {
  network::Topology topology;
  auto a = topology.AddPeer("A", /*max_load=*/200.0);
  auto b = topology.AddPeer("B");
  network::LinkId link = topology.AddLink(a, b).value();
  Metrics metrics(topology);
  metrics.AddBytes(link, 25000);  // 25 kB over 10 s = 20 kbps
  metrics.AddWorkN(a, 100.0, 1);  // 100 units over 10 s = 5% of 200
  EXPECT_DOUBLE_EQ(metrics.LinkKbps(link, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(metrics.PeerCpuPercent(a, 10.0, 200.0), 5.0);
  EXPECT_DOUBLE_EQ(metrics.LinkKbps(link, 0.0), 0.0);
  EXPECT_EQ(metrics.TotalBytes(), 25000u);
  EXPECT_DOUBLE_EQ(metrics.TotalWork(), 100.0);
}

}  // namespace
}  // namespace streamshare::engine
