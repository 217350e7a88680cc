// Encoded result slots and the sinks' encoded delivery log. A compiled
// return program writes each result straight into the codec's
// self-contained form; these tests pin that form to a fresh ItemEncoder's
// encoding of the DOM-evaluated result (bytes, XML size, content hash),
// over every grid query and a fuzz-generated corpus, and check that a
// sink's on-demand items() gives back exactly the delivered trees at
// every batch size, with the record path on and off.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/codec.h"
#include "engine/operator.h"
#include "engine/restructure.h"
#include "sharing/system.h"
#include "testing/fuzz_scenario.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"
#include "xml/xml_writer.h"

namespace streamshare::engine {
namespace {

std::string FreshEncoding(const xml::XmlNode& tree) {
  engine::ItemEncoder encoder;
  std::string out;
  encoder.Encode(tree, &out);
  return out;
}

/// Records what reaches it: each slot's kind, encoding and tree.
class CaptureOp : public Operator {
 public:
  CaptureOp() : Operator("capture") {}

  struct Seen {
    bool encoded = false;
    std::string bytes;
    size_t xml_size = 0;
    uint64_t content_hash = 0;
    ItemPtr tree;
  };
  std::vector<Seen> seen;

 protected:
  Status ProcessBatch(ItemBatch* batch) override {
    for (size_t i = 0; i < batch->size(); ++i) {
      Seen s;
      s.encoded = batch->slot(i).is_encoded();
      if (s.encoded) {
        s.bytes = std::string(batch->encoded(i));
        s.xml_size = batch->slot(i).xml_size;
        s.content_hash = batch->slot(i).content_hash;
      }
      s.tree = batch->Materialize(i);
      seen.push_back(std::move(s));
    }
    return Status::Ok();
  }
};

/// Photon records: full generator photons, plus each one projected onto
/// a few masks so that paths the return clause reads go missing.
std::vector<PhotonRecord> InputRecords(size_t photons) {
  workload::PhotonGenConfig config;
  config.seed = 99;
  workload::PhotonGenerator generator(config);
  auto mask_of = [](std::vector<const char*> paths) {
    std::vector<xml::Path> parsed;
    for (const char* path : paths) {
      parsed.push_back(xml::Path::Parse(path).value());
    }
    return CompileProjectionMask(parsed);
  };
  const uint16_t masks[] = {PhotonSchema::kFullMask,
                            mask_of({"en", "coord/cel/ra"}),
                            mask_of({"coord/det/dx"}),
                            mask_of({"coord/cel"}),
                            mask_of({})};
  std::vector<PhotonRecord> records;
  for (size_t i = 0; i < photons; ++i) {
    PhotonRecord record;
    ItemPtr photon = generator.Next();
    EXPECT_TRUE(PhotonRecord::FromXml(*photon, &record));
    for (uint16_t mask : masks) records.push_back(record.Project(mask));
  }
  return records;
}

/// Runs `query_text`'s restructuring over the records twice — on record
/// slots (the compiled program) and on their materialized trees (the DOM
/// evaluation) — and checks every encoded result against a fresh
/// encoding of the DOM result. Returns the encoded results checked.
size_t ExpectEncodedMatchesDom(const std::string& query_text,
                               const std::vector<PhotonRecord>& records) {
  Result<wxquery::AnalyzedQuery> analyzed =
      wxquery::ParseAndAnalyze(query_text);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status() << "\n" << query_text;
  if (!analyzed.ok()) return 0;
  const wxquery::StreamBinding& binding = analyzed->bindings.front();
  if (binding.window.has_value() || binding.aggregate.has_value()) return 0;
  auto query =
      std::make_shared<const wxquery::AnalyzedQuery>(std::move(*analyzed));

  CaptureOp compiled, dom;
  RestructureOp on_records("r", query), on_trees("t", query);
  on_records.AddDownstream(&compiled);
  on_trees.AddDownstream(&dom);
  ItemBatch record_batch, tree_batch;
  for (const PhotonRecord& record : records) {
    record_batch.AppendRecord(record);
    tree_batch.AppendRecord(record);
  }
  tree_batch.MakeOpaque();
  EXPECT_TRUE(on_records.PushBatch(&record_batch).ok());
  EXPECT_TRUE(on_trees.PushBatch(&tree_batch).ok());

  EXPECT_EQ(compiled.seen.size(), dom.seen.size()) << query_text;
  size_t checked = 0;
  for (size_t i = 0; i < compiled.seen.size() && i < dom.seen.size(); ++i) {
    const CaptureOp::Seen& got = compiled.seen[i];
    const xml::XmlNode& want = *dom.seen[i].tree;
    EXPECT_FALSE(dom.seen[i].encoded);
    if (!got.encoded) continue;  // the query shape kept the DOM path
    ++checked;
    EXPECT_EQ(got.bytes, FreshEncoding(want))
        << query_text << "\nresult " << i << ": " << xml::WriteCompact(want);
    EXPECT_EQ(got.xml_size, want.SerializedSize()) << query_text;
    EXPECT_EQ(got.content_hash, HashItemContent(want)) << query_text;
    EXPECT_TRUE(got.tree->Equals(want)) << query_text;
  }
  return checked;
}

TEST(EncodedResultsTest, GridQueriesEmitTheFreshEncodingOfTheDomResult) {
  std::vector<PhotonRecord> records = InputRecords(40);
  workload::ScenarioSpec grid = workload::GridScenario(13, 100);
  size_t checked = 0, compiled_queries = 0;
  for (const workload::QuerySpec& query : grid.queries) {
    size_t n = ExpectEncodedMatchesDom(query.text, records);
    checked += n;
    if (n > 0) ++compiled_queries;
  }
  EXPECT_GT(compiled_queries, 50u);
  EXPECT_GT(checked, 1000u);
}

TEST(EncodedResultsTest, FuzzCorpusEmitsTheFreshEncodingOfTheDomResult) {
  std::vector<PhotonRecord> records = InputRecords(20);
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    testing::FuzzScenario scenario = testing::GenerateScenario(seed);
    for (const testing::FuzzQuerySpec& query : scenario.queries) {
      checked += ExpectEncodedMatchesDom(query.ToQueryText(), records);
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(EncodedResultsTest, ReturnShapesEmitTheFreshEncodingOfTheDomResult) {
  std::vector<PhotonRecord> records = InputRecords(10);
  const char* shapes[] = {
      // Nested constructors, an element that ends up empty, repeated
      // names inside one result (dictionary references).
      "<r> { for $p in stream(\"photons\")/photons/photon return "
      "<a> <b> { $p/coord/cel/ra } </b> <b> { $p/phc } </b> <c/> "
      "{ $p/coord/cel } </a> } </r>",
      // Conditionals choosing between a subtree and an element, on a
      // constant and on another field.
      "<r> { for $p in stream(\"photons\")/photons/photon return "
      "if $p/en >= 1.3 then <hard> { $p/en } </hard> "
      "else $p/coord/det } </r>",
      "<r> { for $p in stream(\"photons\")/photons/photon return "
      "<x> { if $p/coord/det/dx <= $p/coord/det/dy + 1.0 then $p/en "
      "else $p/det_time } </x> } </r>",
      // A top-level sequence of path outputs and the whole item.
      "<r> { for $p in stream(\"photons\")/photons/photon return "
      "( $p/coord/cel/dec, $p, $p/coord/det/dy ) } </r>",
  };
  for (const char* shape : shapes) {
    EXPECT_GT(ExpectEncodedMatchesDom(shape, records), 0u) << shape;
  }
}

TEST(EncodedResultsTest, WriterStartsEveryItemWithAFreshDictionary) {
  workload::PhotonGenConfig config;
  config.seed = 5;
  workload::PhotonGenerator generator(config);
  engine::ItemWriter writer;
  std::string log;
  std::vector<size_t> ends;
  std::vector<ItemPtr> photons;
  for (int i = 0; i < 20; ++i) {
    photons.push_back(generator.Next());
    PhotonRecord record;
    ASSERT_TRUE(PhotonRecord::FromXml(*photons.back(), &record));
    writer.Begin(&log);
    if (i % 2 == 0) {
      writer.Tree(*photons.back());
    } else {
      writer.Record(record, PhotonSchema::kPhoton);
    }
    EXPECT_EQ(writer.xml_size(), photons.back()->SerializedSize());
    EXPECT_EQ(writer.content_hash(), HashItemContent(*photons.back()));
    ends.push_back(log.size());
  }
  for (size_t i = 0; i < photons.size(); ++i) {
    size_t begin = i == 0 ? 0 : ends[i - 1];
    std::string_view bytes =
        std::string_view(log).substr(begin, ends[i] - begin);
    EXPECT_EQ(bytes, FreshEncoding(*photons[i])) << "item " << i;
    engine::ItemDecoder decoder;  // nothing from earlier items
    std::unique_ptr<xml::XmlNode> decoded;
    ASSERT_TRUE(decoder.Decode(bytes, &decoded).ok()) << "item " << i;
    EXPECT_TRUE(decoded->Equals(*photons[i])) << "item " << i;
  }
}

TEST(EncodedResultsTest, EncodedSlotsSurviveForwardingIntoAnotherBatch) {
  std::vector<PhotonRecord> records = InputRecords(3);
  auto query = std::make_shared<const wxquery::AnalyzedQuery>(
      wxquery::ParseAndAnalyze(
          "<r> { for $p in stream(\"photons\")/photons/photon return "
          "<v> { $p/en } </v> } </r>")
          .value());
  CaptureOp capture;
  RestructureOp restructure("r", query);
  restructure.AddDownstream(&capture);
  ItemBatch input;
  for (const PhotonRecord& record : records) input.AppendRecord(record);
  ASSERT_TRUE(restructure.PushBatch(&input).ok());
  // Rebuild the results as encoded slots of a batch of our own, then
  // forward them, in reverse, into a batch whose arena already holds
  // other bytes.
  ItemBatch owned;
  for (const CaptureOp::Seen& seen : capture.seen) {
    ASSERT_TRUE(seen.encoded);
    size_t offset = owned.arena()->size();
    owned.arena()->append(seen.bytes);
    owned.AppendEncoded(offset, seen.xml_size, seen.content_hash, {});
  }
  ItemBatch forwarded;
  forwarded.arena()->append("unrelated");
  for (size_t i = owned.size(); i-- > 0;) forwarded.AppendSlot(owned, i);
  for (size_t i = 0; i < owned.size(); ++i) {
    size_t j = owned.size() - 1 - i;
    EXPECT_EQ(forwarded.encoded(j), owned.encoded(i));
    EXPECT_EQ(SlotSerializedSize(forwarded.slot(j)),
              capture.seen[i].tree->SerializedSize());
    EXPECT_TRUE(forwarded.Materialize(j)->Equals(*capture.seen[i].tree));
  }
  forwarded.MakeOpaque();
  EXPECT_FALSE(forwarded.slot(0).is_encoded());
  EXPECT_EQ(SlotContentHash(forwarded.slot(0)),
            capture.seen.back().content_hash);
}

/// Runs the 100-query grid over 160 photons per stream and returns the
/// system (sinks hashing, results kept).
std::unique_ptr<sharing::StreamShareSystem> RunGrid(bool record_path,
                                                    size_t batch_size) {
  sharing::SystemConfig config;
  config.keep_results = true;
  config.record_path = record_path;
  config.batch_size = batch_size;
  Result<workload::ScenarioRun> run =
      workload::RunScenario(workload::GridScenario(13, 100),
                            sharing::Strategy::kStreamSharing, config, 160);
  EXPECT_TRUE(run.ok()) << run.status();
  return run.ok() ? std::move(run->system) : nullptr;
}

TEST(EncodedResultsTest, SinkItemsAreTheDeliveredTreesInEveryConfiguration) {
  // The reference is the DOM evaluation one item per batch: opaque slots
  // all the way, so its sinks were handed the very trees the return
  // clause built. Every configuration's kept log must decode to them.
  std::unique_ptr<sharing::StreamShareSystem> reference = RunGrid(false, 1);
  ASSERT_NE(reference, nullptr);
  size_t total = 0;
  for (bool record_path : {false, true}) {
    for (size_t batch_size : {size_t{1}, size_t{64}}) {
      std::unique_ptr<sharing::StreamShareSystem> system =
          RunGrid(record_path, batch_size);
      ASSERT_NE(system, nullptr);
      const auto& regs = system->registrations();
      ASSERT_EQ(regs.size(), reference->registrations().size());
      for (size_t q = 0; q < regs.size(); ++q) {
        const SinkOp* sink = regs[q].sink;
        const SinkOp* want = reference->registrations()[q].sink;
        if (sink == nullptr) continue;
        SCOPED_TRACE("query " + std::to_string(q) + " record_path " +
                     std::to_string(record_path) + " batch " +
                     std::to_string(batch_size));
        // The log holds exactly what was delivered: same count, and the
        // decoded trees sum to the sizes and hashes the sink took off the
        // delivered slots.
        const std::vector<ItemPtr>& items = sink->items();
        ASSERT_EQ(items.size(), sink->item_count());
        ASSERT_EQ(sink->retained_results(), sink->item_count());
        uint64_t bytes = 0, hash = 0;
        for (const ItemPtr& item : items) {
          bytes += item->SerializedSize();
          hash += HashItemContent(*item);
        }
        EXPECT_EQ(bytes, sink->total_bytes());
        EXPECT_EQ(hash, sink->content_hash());
        ASSERT_EQ(items.size(), want->items().size());
        for (size_t i = 0; i < items.size(); ++i) {
          EXPECT_TRUE(items[i]->Equals(*want->items()[i])) << "item " << i;
        }
        total += items.size();
      }
    }
  }
  EXPECT_GT(total, 4000u);
}

TEST(EncodedResultsTest, ItemsMaterializesOnlyWhatArrivedSinceTheLastCall) {
  SinkOp sink("s", /*keep_items=*/true);
  workload::PhotonGenConfig config;
  config.seed = 3;
  workload::PhotonGenerator generator(config);
  std::vector<ItemPtr> photons = generator.Generate(10);
  ItemBatch first = ItemBatch::FromItems(
      std::span<const ItemPtr>(photons.data(), 4), /*adopt=*/true);
  ASSERT_TRUE(sink.PushBatch(&first).ok());
  const std::vector<ItemPtr>& before = sink.items();
  ASSERT_EQ(before.size(), 4u);
  const xml::XmlNode* kept = before[0].get();
  ItemBatch rest = ItemBatch::FromItems(
      std::span<const ItemPtr>(photons.data() + 4, 6), /*adopt=*/false);
  ASSERT_TRUE(sink.PushBatch(&rest).ok());
  const std::vector<ItemPtr>& after = sink.items();
  ASSERT_EQ(after.size(), 10u);
  EXPECT_EQ(after[0].get(), kept);  // decoded once, not again
  for (size_t i = 0; i < photons.size(); ++i) {
    EXPECT_TRUE(after[i]->Equals(*photons[i])) << "item " << i;
  }
  EXPECT_GT(sink.retained_bytes(), 10 * sizeof(uint64_t));
}

}  // namespace
}  // namespace streamshare::engine
