// Encoded result slots and the result store. A compiled return program
// writes each result straight into the codec's self-contained form in the
// store, once per fed item and record mask for every query that shares
// the program; sinks keep references. These tests pin that form to a
// fresh ItemEncoder's encoding of the DOM-evaluated result (bytes, XML
// size, content hash), over every grid query, a fuzz-generated corpus and
// the sharing cases (one program for several queries, behind different
// projections, across widening, unsubscribe and store chunks), and check
// that a sink's on-demand items() gives back exactly the delivered trees
// at every batch size, with the record path on and off.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/varint.h"
#include "engine/codec.h"
#include "engine/executor.h"
#include "engine/operator.h"
#include "engine/restructure.h"
#include "engine/result_store.h"
#include "obs/metrics_registry.h"
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
        s.xml_size = batch->slot(i).encoded.xml_size;
        s.content_hash = batch->slot(i).encoded.content_hash;
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

  ResultStore store;
  CaptureOp compiled, dom;
  RestructureOp on_records("r", query, &store), on_trees("t", query, &store);
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
  ResultStore store;
  CaptureOp capture;
  RestructureOp restructure("r", query, &store);
  restructure.AddDownstream(&capture);
  ItemBatch input;
  for (const PhotonRecord& record : records) input.AppendRecord(record);
  ASSERT_TRUE(restructure.PushBatch(&input).ok());
  // Store the results again as encoded slots of a batch of our own, then
  // forward them, in reverse, into another batch: the slots keep their
  // references, and the store keeps every entry where it was.
  ItemBatch owned;
  for (const CaptureOp::Seen& seen : capture.seen) {
    ASSERT_TRUE(seen.encoded);
    EncodedResult result;
    result.ref = store.Append(seen.bytes);
    result.xml_size = static_cast<uint32_t>(seen.xml_size);
    result.content_hash = seen.content_hash;
    owned.AppendEncoded(result, {});
  }
  ItemBatch forwarded;
  for (size_t i = owned.size(); i-- > 0;) forwarded.AppendSlot(owned, i);
  store.Append("unrelated");
  for (size_t i = 0; i < owned.size(); ++i) {
    size_t j = owned.size() - 1 - i;
    EXPECT_EQ(forwarded.encoded(j), owned.encoded(i));
    EXPECT_EQ(forwarded.encoded(j).data(), owned.encoded(i).data());
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
  ResultStore store;
  SinkOp sink("s", &store);
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

// --- The result store: one encoding per distinct result. ---

/// Every kept delivery of `got` is byte for byte a fresh encoder's
/// encoding of the DOM result `want` kept at the same position, and the
/// two sinks agree on count, XML size and content hash.
void ExpectSinkMatchesDom(const SinkOp& got, const SinkOp& want) {
  const std::vector<ItemPtr>& dom = want.items();
  ASSERT_EQ(got.retained_results(), dom.size());
  uint64_t bytes = 0, hash = 0;
  for (size_t i = 0; i < dom.size(); ++i) {
    EXPECT_EQ(got.retained(i), FreshEncoding(*dom[i])) << "delivery " << i;
    bytes += dom[i]->SerializedSize();
    hash += HashItemContent(*dom[i]);
  }
  EXPECT_EQ(got.item_count(), dom.size());
  EXPECT_EQ(got.total_bytes(), bytes);
  EXPECT_EQ(want.total_bytes(), bytes);
  EXPECT_EQ(got.content_hash(), hash);
  EXPECT_EQ(want.content_hash(), hash);
}

std::vector<ItemPtr> Photons(size_t count, uint64_t seed = 21) {
  workload::PhotonGenConfig config;
  config.seed = seed;
  config.hot_regions = {{100.0, 140.0, -50.0, -30.0}};
  config.hot_weights = {4.0};
  workload::PhotonGenerator generator(config);
  return generator.Generate(count);
}

std::shared_ptr<const wxquery::AnalyzedQuery> Analyze(const std::string& text) {
  Result<wxquery::AnalyzedQuery> analyzed = wxquery::ParseAndAnalyze(text);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status() << "\n" << text;
  return std::make_shared<const wxquery::AnalyzedQuery>(
      std::move(analyzed).value());
}

/// An operator-level deployment on one stream: per query, entry →
/// ProjectOp(paths) → RestructureOp → SinkOp, fed through the executor
/// with a result store — on records, or (the reference) on trees.
class StreamHarness {
 public:
  explicit StreamHarness(bool record_path) : record_path_(record_path) {
    entry_ = graph_.Add<PassOp>("entry");
  }

  void AddQuery(const std::string& text,
                const std::vector<const char*>& projection) {
    std::vector<xml::Path> paths;
    for (const char* path : projection) {
      paths.push_back(xml::Path::Parse(path).value());
    }
    queries_.push_back(Analyze(text));
    auto* project = graph_.Add<ProjectOp>("project", std::move(paths));
    auto* restructure =
        graph_.Add<RestructureOp>("restructure", queries_.back(), &store_);
    auto* sink = graph_.Add<SinkOp>("sink", &store_);
    sink->EnableContentHash();
    entry_->AddDownstream(project);
    project->AddDownstream(restructure);
    restructure->AddDownstream(sink);
    sinks_.push_back(sink);
  }

  void Run(const std::vector<ItemPtr>& photons, size_t batch_size) {
    std::vector<std::vector<ItemBatch>> batches = {
        ChunkItems(photons, batch_size, /*adopt=*/record_path_)};
    ASSERT_TRUE(RunBatchStreams({entry_}, &batches, /*finish=*/true,
                                /*stamp=*/false, &store_)
                    .ok());
  }

  const SinkOp& sink(size_t i) const { return *sinks_[i]; }
  size_t size() const { return sinks_.size(); }
  const ResultStore& store() const { return store_; }

 private:
  bool record_path_;
  ResultStore store_;
  OperatorGraph graph_;
  PassOp* entry_ = nullptr;
  std::vector<std::shared_ptr<const wxquery::AnalyzedQuery>> queries_;
  std::vector<SinkOp*> sinks_;
};

/// Runs the same queries over the same photons on records and on trees,
/// and checks every sink against its DOM twin. Returns the record run's
/// store for the sharing counts.
struct HarnessPair {
  StreamHarness records{/*record_path=*/true};
  StreamHarness trees{/*record_path=*/false};

  void AddQuery(const std::string& text,
                const std::vector<const char*>& projection) {
    records.AddQuery(text, projection);
    trees.AddQuery(text, projection);
  }
  void RunAndCompare(const std::vector<ItemPtr>& photons,
                     size_t batch_size) {
    records.Run(photons, batch_size);
    trees.Run(photons, batch_size);
    for (size_t q = 0; q < records.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      ExpectSinkMatchesDom(records.sink(q), trees.sink(q));
    }
  }
};

std::string PhotonQuery(const std::string& where, const std::string& ret) {
  return "<out> { for $p in stream(\"photons\")/photons/photon " + where +
         " return " + ret + " } </out>";
}

TEST(ResultStoreTest, OneProgramBehindDifferentMasksEncodesPerMask) {
  // Both queries return the coord subtree, which is a different tree
  // under each projection: the cache must not hand one mask's result to
  // the other.
  const std::string query =
      PhotonQuery("", "<v> { $p/coord } { $p/en } </v>");
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    HarnessPair pair;
    pair.AddQuery(query, {"coord/cel", "en"});
    pair.AddQuery(query, {"coord/det", "en"});
    pair.AddQuery(query, {"coord/det", "en"});
    std::vector<ItemPtr> photons = Photons(200);
    pair.RunAndCompare(photons, batch_size);
    // Per photon: one encoding per mask, the third query shares the
    // second's.
    EXPECT_EQ(pair.records.store().encoded(), 2 * photons.size());
    EXPECT_EQ(pair.records.store().shared(), photons.size());
  }
}

TEST(ResultStoreTest, QueriesWithDistinctProgramsShareNothing) {
  // Different element names make different programs: every result is
  // encoded, through the same cache path, and none is handed out twice.
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    HarnessPair pair;
    pair.AddQuery(PhotonQuery("", "<a> { $p/en } </a>"), {"en"});
    pair.AddQuery(PhotonQuery("", "<b> { $p/en } </b>"), {"en"});
    std::vector<ItemPtr> photons = Photons(120);
    pair.RunAndCompare(photons, batch_size);
    EXPECT_EQ(pair.records.store().encoded(), 2 * photons.size());
    EXPECT_EQ(pair.records.store().shared(), 0u);
  }
}

TEST(ResultStoreTest, SlotsPushedOutsideASourceBatchAreEncodedAfresh) {
  // A batch pushed straight into the graph has no fed-item origins, so
  // two operators with one program cannot share: each encodes its own.
  std::shared_ptr<const wxquery::AnalyzedQuery> query =
      Analyze(PhotonQuery("", "<v> { $p/en } </v>"));
  ResultStore store;
  OperatorGraph graph;
  auto* entry = graph.Add<PassOp>("entry");
  std::vector<SinkOp*> sinks;
  for (int q = 0; q < 2; ++q) {
    auto* restructure = graph.Add<RestructureOp>("restructure", query, &store);
    auto* sink = graph.Add<SinkOp>("sink", &store);
    entry->AddDownstream(restructure);
    restructure->AddDownstream(sink);
    sinks.push_back(sink);
  }
  std::vector<ItemPtr> photons = Photons(40);
  for (int push = 0; push < 2; ++push) {
    ItemBatch batch = ItemBatch::FromItems(photons, /*adopt=*/true);
    ASSERT_TRUE(entry->PushBatch(&batch).ok());
  }
  EXPECT_EQ(store.encoded(), 2 * 2 * photons.size());
  EXPECT_EQ(store.shared(), 0u);
  for (SinkOp* sink : sinks) {
    ASSERT_EQ(sink->item_count(), 2 * photons.size());
    for (size_t i = 0; i < sink->item_count(); ++i) {
      EXPECT_EQ(sink->retained(i), sinks[0]->retained(i));
    }
  }
}

TEST(ResultStoreTest, SequenceAndIfProgramsShareEveryResultOfAnInput) {
  // A top-level sequence with a conditional emits two or three results
  // per input; all of them come from the cache for the sharers.
  const std::string query = PhotonQuery(
      "", "( $p/en, if $p/en >= 1.3 then <hard> { $p/en } </hard> "
          "else $p/coord/det, <w> { $p/coord/cel/ra } </w> )");
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    HarnessPair pair;
    for (int q = 0; q < 3; ++q) {
      pair.AddQuery(query, {"en", "coord"});
    }
    pair.RunAndCompare(Photons(150), batch_size);
    const ResultStore& store = pair.records.store();
    EXPECT_GT(store.encoded(), 2 * 150u);
    EXPECT_EQ(store.shared(), 2 * store.encoded());
    EXPECT_EQ(pair.records.sink(0).item_count(), store.encoded());
  }
}

TEST(ResultStoreTest, ResultsAcrossStoreChunkBoundariesStayIntact) {
  // Whole photons, three sharers: well over one chunk of entries, so
  // entries that no longer fit start new chunks while earlier references
  // are held.
  const std::string query = PhotonQuery("", "$p");
  HarnessPair pair;
  for (int q = 0; q < 3; ++q) pair.AddQuery(query, {"coord", "en", "phc"});
  pair.RunAndCompare(Photons(3000), 64);
  EXPECT_GT(pair.records.store().bytes(), 2 * ResultStore::kChunkBytes);
}

TEST(ResultStoreTest, AppendNeverMovesEarlierEntries) {
  ResultStore store;
  std::vector<std::string> entries;
  std::vector<ResultRef> refs;
  // Entries of growing size, one longer than a chunk, and one that no
  // longer fits after it; then enough small ones to fill further chunks.
  for (size_t size : {size_t{100}, size_t{ResultStore::kChunkBytes - 50},
                      size_t{200}, size_t{ResultStore::kChunkBytes + 7},
                      size_t{130}}) {
    entries.push_back(std::string(size, static_cast<char>('a' + size % 26)));
  }
  for (int i = 0; i < 3000; ++i) entries.push_back(std::to_string(i * 7919));
  for (const std::string& entry : entries) {
    refs.push_back(store.Append(entry));
  }
  uint64_t bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_EQ(refs[i].bytes(), entries[i]) << "entry " << i;
    std::string prefix;
    PutVarint(&prefix, entries[i].size());
    bytes += prefix.size() + entries[i].size();
  }
  EXPECT_EQ(store.encoded(), entries.size());
  EXPECT_EQ(store.bytes(), bytes);
}

/// The paper's extended-example topology with the photon stream at SP4,
/// keeping results; `record_path` off and one item per batch is the DOM
/// reference.
std::unique_ptr<sharing::StreamShareSystem> MakeSystem(bool record_path,
                                                       size_t batch_size) {
  sharing::SystemConfig config;
  config.keep_results = true;
  config.record_path = record_path;
  config.batch_size = batch_size;
  config.planner.enable_widening = true;
  auto system = std::make_unique<sharing::StreamShareSystem>(
      network::Topology::ExtendedExample(), config);
  EXPECT_TRUE(system
                  ->RegisterStream("photons",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 4)
                  .ok());
  auto path = [](const char* text) { return xml::Path::Parse(text).value(); };
  EXPECT_TRUE(
      system->SetRange("photons", path("coord/cel/ra"), {0.0, 360.0}).ok());
  EXPECT_TRUE(
      system->SetRange("photons", path("coord/cel/dec"), {-90.0, 90.0}).ok());
  EXPECT_TRUE(system->SetRange("photons", path("en"), {0.1, 2.4}).ok());
  return system;
}

/// The same registrations, feeds and unsubscribes on a record-path system
/// and on its DOM reference.
class TwinSystems {
 public:
  explicit TwinSystems(size_t batch_size)
      : records_(MakeSystem(true, batch_size)),
        dom_(MakeSystem(false, 1)) {}

  sharing::RegistrationResult Register(const std::string& text,
                                       network::NodeId vq) {
    sharing::RegistrationResult result;
    for (auto* system : {dom_.get(), records_.get()}) {
      Result<sharing::RegistrationResult> registered = system->RegisterQuery(
          text, vq, sharing::Strategy::kStreamSharing);
      EXPECT_TRUE(registered.ok() && registered->accepted)
          << registered.status();
      if (!registered.ok() || registered->sink == nullptr) continue;
      registered->sink->EnableContentHash();
      result = *registered;
    }
    return result;
  }

  void Feed(size_t count) {
    std::vector<ItemPtr> photons = Photons(count, ++feeds_);
    for (auto* system : {dom_.get(), records_.get()}) {
      ASSERT_TRUE(system->Feed({{"photons", photons}}).ok());
    }
  }

  void Unsubscribe(int query_id) {
    for (auto* system : {dom_.get(), records_.get()}) {
      ASSERT_TRUE(system->Unsubscribe(query_id).ok());
    }
  }

  void ExpectActiveSinksMatchDom() const {
    for (const sharing::RegistrationResult& registration :
         records_->registrations()) {
      if (!records_->IsActive(registration.query_id)) continue;
      SCOPED_TRACE("query " + std::to_string(registration.query_id));
      ExpectSinkMatchesDom(
          *registration.sink,
          *dom_->registrations()[registration.query_id].sink);
    }
  }

  /// engine.results.<name> of the record-path system.
  double ResultsGauge(const std::string& name) const {
    obs::MetricsRegistry registry;
    records_->ExportMetrics(&registry);
    return registry.GetGauge("engine.results." + name)->Value();
  }

  const sharing::StreamShareSystem& records() const { return *records_; }

 private:
  std::unique_ptr<sharing::StreamShareSystem> records_;
  std::unique_ptr<sharing::StreamShareSystem> dom_;
  uint64_t feeds_ = 0;
};

constexpr const char* kBoxWhere =
    "where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0 "
    "and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0";
constexpr const char* kBoxReturn =
    "<a> { $p/coord/cel/ra } { $p/coord/cel/dec } { $p/en } </a>";

TEST(ResultStoreTest, ThreeQueriesWithOneProgramShareOneEncoding) {
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    TwinSystems twins(batch_size);
    const std::string query = PhotonQuery(kBoxWhere, kBoxReturn);
    for (network::NodeId vq : {1, 2, 3}) twins.Register(query, vq);
    twins.Feed(300);
    twins.ExpectActiveSinksMatchDom();
    const double encoded = twins.ResultsGauge("encoded");
    EXPECT_GT(encoded, 0.0);
    EXPECT_EQ(twins.ResultsGauge("shared"), 2 * encoded);
    EXPECT_GT(twins.ResultsGauge("store_bytes"), encoded);
    // All three keep the very same entries.
    const auto& regs = twins.records().registrations();
    ASSERT_GT(regs[0].sink->retained_results(), 0u);
    EXPECT_EQ(regs[2].sink->retained(0).data(),
              regs[0].sink->retained(0).data());
  }
}

TEST(ResultStoreTest, StreamWidenedMidRunKeepsEveryEncodingExact) {
  // B overlaps A's box without being contained in it: B's plan widens
  // A's stream, so A's records arrive under a wider selection from then
  // on. Both return the same program.
  const std::string box_b =
      "where $p/coord/cel/ra >= 110.0 and $p/coord/cel/ra <= 130.0 "
      "and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0";
  for (size_t batch_size : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    TwinSystems twins(batch_size);
    twins.Register(PhotonQuery(kBoxWhere, kBoxReturn), 1);
    twins.Feed(200);
    sharing::RegistrationResult b =
        twins.Register(PhotonQuery(box_b, kBoxReturn), 3);
    ASSERT_TRUE(b.plan.inputs[0].widening.has_value());
    twins.Feed(300);
    twins.ExpectActiveSinksMatchDom();
    EXPECT_GT(twins.ResultsGauge("shared"), 0.0);
  }
}

TEST(ResultStoreTest, UnsubscribeDropsOnlyTheLeaversReferences) {
  TwinSystems twins(64);
  const std::string query = PhotonQuery(kBoxWhere, kBoxReturn);
  for (network::NodeId vq : {1, 2, 3}) twins.Register(query, vq);
  twins.Feed(300);
  const auto& regs = twins.records().registrations();
  std::vector<std::vector<std::string>> kept(3);
  std::vector<std::vector<std::string>> trees(3);
  for (int q : {0, 2}) {
    for (size_t i = 0; i < regs[q].sink->retained_results(); ++i) {
      kept[q].emplace_back(regs[q].sink->retained(i));
    }
    for (const ItemPtr& item : regs[q].sink->items()) {
      trees[q].push_back(xml::WriteCompact(*item));
    }
  }
  ASSERT_FALSE(kept[0].empty());
  const double store_bytes = twins.ResultsGauge("store_bytes");

  twins.Unsubscribe(1);
  EXPECT_EQ(regs[1].sink->retained_results(), 0u);
  EXPECT_EQ(twins.ResultsGauge("store_bytes"), store_bytes);
  for (int q : {0, 2}) {
    ASSERT_EQ(regs[q].sink->retained_results(), kept[q].size());
    ASSERT_EQ(regs[q].sink->items().size(), trees[q].size());
    for (size_t i = 0; i < kept[q].size(); ++i) {
      EXPECT_EQ(regs[q].sink->retained(i), kept[q][i]);
      EXPECT_EQ(xml::WriteCompact(*regs[q].sink->items()[i]), trees[q][i]);
    }
  }
  twins.Feed(200);
  twins.ExpectActiveSinksMatchDom();
}

}  // namespace
}  // namespace streamshare::engine
