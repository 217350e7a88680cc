// Record-vs-DOM equivalence on the one batch execution path: the
// reference is the item-wise DOM evaluation — opaque slots, one item per
// batch — and every operator must be observationally identical to it on
// record slots and on larger batches: same emitted items byte-for-byte,
// same sink counts/bytes/hashes, same link traffic, same billed work, and
// the same error Status (with the prefix emitted before the failure
// delivered downstream). Exercised over mixed batches of compact record
// slots and opaque slots.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/operator.h"
#include "engine/window_agg.h"
#include "network/topology.h"
#include "workload/photon_gen.h"
#include "xml/xml_writer.h"
#include "item_feed.h"

namespace streamshare::engine {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }
Decimal D(const char* text) { return Decimal::Parse(text).value(); }

/// A mixed workload: mostly photons (adopted into records), sprinkled
/// with non-conforming items that ride as opaque slots.
std::vector<ItemPtr> MixedItems(size_t count, uint64_t seed) {
  workload::PhotonGenConfig config;
  config.seed = seed;
  workload::PhotonGenerator gen(config);
  std::vector<ItemPtr> items;
  items.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 7 == 3) {
      auto odd = std::make_unique<xml::XmlNode>("photon");
      // Conforming subsequence photon with only some fields...
      odd->AddLeaf("en", "0.9");
      items.push_back(MakeItem(std::move(odd)));
    } else if (i % 11 == 5) {
      // ... and a genuinely opaque item (wrong root).
      auto wagg = std::make_unique<xml::XmlNode>("wagg");
      wagg->AddLeaf("seq", std::to_string(i));
      wagg->AddLeaf("sum", "1.5");
      items.push_back(MakeItem(std::move(wagg)));
    } else {
      items.push_back(gen.Next());
    }
  }
  return items;
}

struct Pipeline {
  OperatorGraph graph;
  network::Topology topology;
  std::unique_ptr<Metrics> metrics;
  Operator* entry = nullptr;
  SinkOp* sink = nullptr;
};

/// select(en >= 1.0) -> project(coord/cel/ra, en) -> link -> sink, with
/// full accounting, the serial deployment shape the engine runs.
void BuildPipeline(Pipeline* p, bool keep_items) {
  network::NodeId p0 = p->topology.AddPeer("SP0");
  network::NodeId p1 = p->topology.AddPeer("SP1");
  Result<network::LinkId> link = p->topology.AddLink(p0, p1);
  ASSERT_TRUE(link.ok());
  p->metrics = std::make_unique<Metrics>(p->topology);

  auto* select = p->graph.Add<SelectOp>(
      "sel", std::vector<predicate::AtomicPredicate>{
                 predicate::AtomicPredicate::Compare(
                     P("en"), predicate::ComparisonOp::kGe, D("1.0"))});
  auto* project = p->graph.Add<ProjectOp>(
      "proj", std::vector<xml::Path>{P("coord/cel/ra"), P("en")});
  auto* link_op =
      p->graph.Add<LinkOp>("link", p->metrics.get(), *link);
  auto* sink = p->graph.Add<SinkOp>("sink", keep_items);
  sink->EnableContentHash();
  select->SetAccounting(p->metrics.get(), p0, 1.0);
  project->SetAccounting(p->metrics.get(), p0, 2.0);
  link_op->SetAccounting(p->metrics.get(), p0, 0.5);
  sink->SetAccounting(p->metrics.get(), p1, 0.25);
  select->AddDownstream(project);
  project->AddDownstream(link_op);
  link_op->AddDownstream(sink);
  p->entry = select;
  p->sink = sink;
}

void ExpectSameObservations(const Pipeline& expect, const Pipeline& got) {
  EXPECT_EQ(expect.sink->item_count(), got.sink->item_count());
  EXPECT_EQ(expect.sink->total_bytes(), got.sink->total_bytes());
  EXPECT_EQ(expect.sink->content_hash(), got.sink->content_hash());
  ASSERT_EQ(expect.sink->items().size(), got.sink->items().size());
  for (size_t i = 0; i < expect.sink->items().size(); ++i) {
    EXPECT_EQ(xml::WriteCompact(*got.sink->items()[i]),
              xml::WriteCompact(*expect.sink->items()[i]))
        << "item " << i;
  }
  for (size_t l = 0; l < expect.metrics->link_count(); ++l) {
    EXPECT_EQ(expect.metrics->BytesOnLink(static_cast<int>(l)),
              got.metrics->BytesOnLink(static_cast<int>(l)))
        << "link " << l;
  }
  for (size_t peer = 0; peer < expect.metrics->peer_count(); ++peer) {
    EXPECT_EQ(
        expect.metrics->OperatorInvocationsAtPeer(static_cast<int>(peer)),
        got.metrics->OperatorInvocationsAtPeer(static_cast<int>(peer)))
        << "peer " << peer;
    EXPECT_EQ(expect.metrics->WorkAtPeer(static_cast<int>(peer)),
              got.metrics->WorkAtPeer(static_cast<int>(peer)))
        << "peer " << peer;
  }
}

void ExpectBatchMatchesItemwise(size_t batch_size, bool adopt) {
  std::vector<ItemPtr> items = MixedItems(200, /*seed=*/17);

  Pipeline itemwise;
  BuildPipeline(&itemwise, /*keep_items=*/true);
  ASSERT_TRUE(PushItems(itemwise.entry, items).ok());
  ASSERT_TRUE(itemwise.entry->Finish().ok());

  Pipeline batched;
  BuildPipeline(&batched, /*keep_items=*/true);
  for (ItemBatch& batch : ChunkItems(items, batch_size, adopt)) {
    ASSERT_TRUE(batched.entry->PushBatch(&batch).ok());
  }
  ASSERT_TRUE(batched.entry->Finish().ok());

  ExpectSameObservations(itemwise, batched);
}

TEST(BatchOpsTest, PipelineMatchesItemwiseOnRecordSlots) {
  ExpectBatchMatchesItemwise(/*batch_size=*/64, /*adopt=*/true);
}

TEST(BatchOpsTest, PipelineMatchesItemwiseOnOpaqueSlots) {
  // adopt=false keeps every slot on the DOM evaluation; only the batch
  // size differs from the reference.
  ExpectBatchMatchesItemwise(/*batch_size=*/64, /*adopt=*/false);
}

TEST(BatchOpsTest, PipelineMatchesItemwiseOnSingleItemBatches) {
  ExpectBatchMatchesItemwise(/*batch_size=*/1, /*adopt=*/true);
}

TEST(BatchOpsTest, RunBatchStreamsMatchesAcrossChunkings) {
  std::vector<std::vector<ItemPtr>> streams = {MixedItems(120, 3),
                                               MixedItems(77, 4)};

  Pipeline a;
  BuildPipeline(&a, /*keep_items=*/false);
  Pipeline a2;
  BuildPipeline(&a2, /*keep_items=*/false);
  // Both streams feed the same entry (fan-in at the tap point).
  std::vector<std::vector<ItemBatch>> opaque =
      ChunkStreams(streams, /*batch_size=*/1, /*adopt=*/false);
  ASSERT_TRUE(RunBatchStreams({a.entry, a.entry}, &opaque).ok());
  std::vector<std::vector<ItemBatch>> records =
      ChunkStreams(streams, /*batch_size=*/32, /*adopt=*/true);
  ASSERT_TRUE(RunBatchStreams({a2.entry, a2.entry}, &records).ok());
  ExpectSameObservations(a, a2);
}

TEST(BatchOpsTest, WindowAggBatchMatchesItemwise) {
  // WindowAggOp consumes record fields without materializing; aggregate
  // output and open-window state must match the item-wise DOM path. (Pure
  // photons: the aggregated element must exist in every input item.)
  workload::PhotonGenConfig config;
  config.seed = 9;
  workload::PhotonGenerator gen(config);
  std::vector<ItemPtr> items = gen.Generate(150);

  auto build = [](OperatorGraph* graph, WindowAggOp** agg_out,
                  SinkOp** sink_out) {
    auto* agg = graph->Add<WindowAggOp>(
        "agg", properties::AggregateFunc::kAvg, P("en"),
        properties::WindowSpec::Count(10, 5).value());
    auto* sink = graph->Add<SinkOp>("sink", /*keep_items=*/true);
    sink->EnableContentHash();
    agg->AddDownstream(sink);
    *agg_out = agg;
    *sink_out = sink;
  };

  OperatorGraph item_graph;
  WindowAggOp* item_agg = nullptr;
  SinkOp* item_sink = nullptr;
  build(&item_graph, &item_agg, &item_sink);
  ASSERT_TRUE(PushItems(item_agg, items).ok());

  OperatorGraph batch_graph;
  WindowAggOp* batch_agg = nullptr;
  SinkOp* batch_sink = nullptr;
  build(&batch_graph, &batch_agg, &batch_sink);
  ItemBatch batch = ItemBatch::FromItems(items, /*adopt=*/true);
  ASSERT_TRUE(batch_agg->PushBatch(&batch).ok());

  EXPECT_EQ(item_agg->OpenWindowCount(), batch_agg->OpenWindowCount());
  ASSERT_TRUE(item_agg->Finish().ok());
  ASSERT_TRUE(batch_agg->Finish().ok());

  EXPECT_EQ(item_sink->item_count(), batch_sink->item_count());
  EXPECT_EQ(item_sink->content_hash(), batch_sink->content_hash());
  ASSERT_EQ(item_sink->items().size(), batch_sink->items().size());
  for (size_t i = 0; i < item_sink->items().size(); ++i) {
    EXPECT_EQ(xml::WriteCompact(*batch_sink->items()[i]),
              xml::WriteCompact(*item_sink->items()[i]));
  }
}

TEST(BatchOpsTest, BatchErrorMatchesItemwiseErrorAndFlushesPrefix) {
  // A malformed photon (non-decimal en) rides as an opaque slot even in
  // an adopting batch; the select's tree evaluation raises ParseError on
  // it. The record batch must (a) report the identical Status and (b)
  // have delivered the passing prefix downstream before returning it.
  auto make_good = [](const char* en) {
    auto node = std::make_unique<xml::XmlNode>("photon");
    node->AddLeaf("en", en);
    return MakeItem(std::move(node));
  };
  auto bad_node = std::make_unique<xml::XmlNode>("photon");
  bad_node->AddLeaf("en", "broken");
  std::vector<ItemPtr> items = {make_good("2.0"), make_good("3.0"),
                                MakeItem(std::move(bad_node)),
                                make_good("4.0")};

  auto build = [&](OperatorGraph* graph, SelectOp** select_out,
                   SinkOp** sink_out) {
    auto* select = graph->Add<SelectOp>(
        "sel", std::vector<predicate::AtomicPredicate>{
                   predicate::AtomicPredicate::Compare(
                       P("en"), predicate::ComparisonOp::kGe, D("1.0"))});
    auto* sink = graph->Add<SinkOp>("sink", /*keep_items=*/true);
    select->AddDownstream(sink);
    *select_out = select;
    *sink_out = sink;
  };

  OperatorGraph item_graph;
  SelectOp* item_select = nullptr;
  SinkOp* item_sink = nullptr;
  build(&item_graph, &item_select, &item_sink);
  Status item_status = PushItems(item_select, items);

  OperatorGraph batch_graph;
  SelectOp* batch_select = nullptr;
  SinkOp* batch_sink = nullptr;
  build(&batch_graph, &batch_select, &batch_sink);
  ItemBatch batch = ItemBatch::FromItems(items, /*adopt=*/true);
  Status batch_status = batch_select->PushBatch(&batch);

  EXPECT_FALSE(item_status.ok());
  EXPECT_FALSE(batch_status.ok());
  EXPECT_EQ(batch_status.ToString(), item_status.ToString());

  // The two passing items before the failure reached the sink.
  EXPECT_EQ(item_sink->item_count(), 2u);
  EXPECT_EQ(batch_sink->item_count(), 2u);
}

TEST(BatchOpsTest, StructuralOperandErrorIdenticalAcrossPaths) {
  // A predicate over a structural element fails with ExtractValue's
  // ParseError; the compiled record path must reproduce the message
  // byte-for-byte (error strings are part of the oracle's diff).
  auto make_photon = []() {
    auto node = std::make_unique<xml::XmlNode>("photon");
    node->AddChild("coord")->AddChild("cel")->AddLeaf("ra", "1.0");
    return MakeItem(std::move(node));
  };

  auto build = [](OperatorGraph* graph) {
    return graph->Add<SelectOp>(
        "sel", std::vector<predicate::AtomicPredicate>{
                   predicate::AtomicPredicate::Compare(
                       P("coord"), predicate::ComparisonOp::kGe, D("1"))});
  };

  OperatorGraph item_graph;
  Status item_status = PushItems(build(&item_graph), {make_photon()});

  OperatorGraph batch_graph;
  ItemBatch batch;
  batch.AppendItem(make_photon(), /*adopt=*/true);
  ASSERT_TRUE(batch.slot(0).is_record);
  Status batch_status = build(&batch_graph)->PushBatch(&batch);

  EXPECT_FALSE(item_status.ok());
  EXPECT_FALSE(batch_status.ok());
  EXPECT_EQ(batch_status.ToString(), item_status.ToString());
}

}  // namespace
}  // namespace streamshare::engine
