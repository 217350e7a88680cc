// M4 — microbenchmarks of the XML substrate: photon serialization,
// document parsing, streaming item reading, and selection/projection
// operator throughput on photon items.

#include <benchmark/benchmark.h>

#include "engine/executor.h"
#include "engine/operator.h"
#include "workload/photon_gen.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

using namespace streamshare;

namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

std::string PhotonDocument(size_t count) {
  workload::PhotonGenConfig config;
  workload::PhotonGenerator generator(config);
  std::string doc = "<photons>";
  for (const engine::ItemPtr& photon : generator.Generate(count)) {
    doc += xml::WriteCompact(*photon);
  }
  doc += "</photons>";
  return doc;
}

void BM_SerializePhoton(benchmark::State& state) {
  workload::PhotonGenerator generator(workload::PhotonGenConfig{});
  engine::ItemPtr photon = generator.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xml::WriteCompact(*photon));
  }
}
BENCHMARK(BM_SerializePhoton);

void BM_ParsePhotonDocument(benchmark::State& state) {
  std::string doc = PhotonDocument(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xml::ParseDocument(doc));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParsePhotonDocument)->Arg(64)->Arg(512);

void BM_ItemReader(benchmark::State& state) {
  std::string doc = PhotonDocument(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    xml::XmlItemReader reader(doc);
    size_t items = 0;
    while (true) {
      auto item = reader.NextItem();
      if (!item.ok() || *item == nullptr) break;
      ++items;
    }
    benchmark::DoNotOptimize(items);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ItemReader)->Arg(64)->Arg(512);

void BM_SelectThroughput(benchmark::State& state) {
  workload::PhotonGenerator generator(workload::PhotonGenConfig{});
  std::vector<engine::ItemPtr> photons = generator.Generate(2048);
  // Opaque slots: the operators' DOM evaluation.
  std::vector<engine::ItemBatch> batches =
      engine::ChunkItems(photons, /*batch_size=*/64, /*adopt=*/false);
  std::vector<predicate::AtomicPredicate> box{
      predicate::AtomicPredicate::Compare(P("coord/cel/ra"),
                                          predicate::ComparisonOp::kGe,
                                          Decimal::Parse("120.0").value()),
      predicate::AtomicPredicate::Compare(P("coord/cel/ra"),
                                          predicate::ComparisonOp::kLe,
                                          Decimal::Parse("138.0").value()),
      predicate::AtomicPredicate::Compare(
          P("coord/cel/dec"), predicate::ComparisonOp::kGe,
          Decimal::Parse("-49.0").value()),
      predicate::AtomicPredicate::Compare(
          P("coord/cel/dec"), predicate::ComparisonOp::kLe,
          Decimal::Parse("-40.0").value()),
  };
  for (auto _ : state) {
    state.PauseTiming();
    engine::OperatorGraph graph;
    auto* select = graph.Add<engine::SelectOp>("sel", box);
    auto* sink = graph.Add<engine::SinkOp>("sink");
    select->AddDownstream(sink);
    state.ResumeTiming();
    for (engine::ItemBatch& batch : batches) {
      benchmark::DoNotOptimize(select->PushBatch(&batch));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(photons.size()));
}
BENCHMARK(BM_SelectThroughput);

void BM_ProjectThroughput(benchmark::State& state) {
  workload::PhotonGenerator generator(workload::PhotonGenConfig{});
  std::vector<engine::ItemPtr> photons = generator.Generate(2048);
  // Opaque slots: the operators' DOM evaluation.
  std::vector<engine::ItemBatch> batches =
      engine::ChunkItems(photons, /*batch_size=*/64, /*adopt=*/false);
  std::vector<xml::Path> output{P("coord/cel/ra"), P("coord/cel/dec"),
                                P("en"), P("det_time")};
  for (auto _ : state) {
    state.PauseTiming();
    engine::OperatorGraph graph;
    auto* project = graph.Add<engine::ProjectOp>("proj", output);
    auto* sink = graph.Add<engine::SinkOp>("sink");
    project->AddDownstream(sink);
    state.ResumeTiming();
    for (engine::ItemBatch& batch : batches) {
      benchmark::DoNotOptimize(project->PushBatch(&batch));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(photons.size()));
}
BENCHMARK(BM_ProjectThroughput);

}  // namespace

BENCHMARK_MAIN();
