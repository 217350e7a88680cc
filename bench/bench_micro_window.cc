// M3 — microbenchmarks of the window aggregation operators: throughput of
// WindowAggOp across window shapes, and of the Fig.-5 recombination
// operator.

#include <benchmark/benchmark.h>

#include "engine/executor.h"
#include "engine/window_agg.h"
#include "workload/photon_gen.h"

using namespace streamshare;

namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

/// Opaque-slot batches of `items` (the operators' DOM evaluation).
std::vector<engine::ItemBatch> OpaqueBatches(
    const std::vector<engine::ItemPtr>& items) {
  return engine::ChunkItems(items, /*batch_size=*/64, /*adopt=*/false);
}

std::vector<engine::ItemPtr> Photons(size_t count) {
  workload::PhotonGenConfig config;
  workload::PhotonGenerator generator(config);
  return generator.Generate(count);
}

void RunWindowBench(benchmark::State& state,
                    properties::WindowSpec window) {
  std::vector<engine::ItemPtr> photons = Photons(4096);
  std::vector<engine::ItemBatch> batches = OpaqueBatches(photons);
  for (auto _ : state) {
    state.PauseTiming();
    engine::OperatorGraph graph;
    auto* agg = graph.Add<engine::WindowAggOp>(
        "agg", properties::AggregateFunc::kAvg, P("en"), window);
    auto* sink = graph.Add<engine::SinkOp>("sink");
    agg->AddDownstream(sink);
    state.ResumeTiming();
    for (engine::ItemBatch& batch : batches) {
      benchmark::DoNotOptimize(agg->PushBatch(&batch));
    }
    benchmark::DoNotOptimize(agg->Finish());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(photons.size()));
}

void BM_TumblingCountWindow(benchmark::State& state) {
  RunWindowBench(state,
                 properties::WindowSpec::Count(state.range(0)).value());
}
BENCHMARK(BM_TumblingCountWindow)->Arg(16)->Arg(128);

void BM_SlidingCountWindow(benchmark::State& state) {
  RunWindowBench(
      state,
      properties::WindowSpec::Count(state.range(0), state.range(0) / 4)
          .value());
}
BENCHMARK(BM_SlidingCountWindow)->Arg(16)->Arg(128);

void BM_TimeWindow(benchmark::State& state) {
  RunWindowBench(state, properties::WindowSpec::Diff(
                            P("det_time"),
                            Decimal::FromInt(state.range(0)),
                            Decimal::FromInt(state.range(0) / 2))
                            .value());
}
BENCHMARK(BM_TimeWindow)->Arg(20)->Arg(80);

void BM_AggCombine(benchmark::State& state) {
  // Pre-compute a fine aggregate stream once.
  properties::WindowSpec fine =
      properties::WindowSpec::Diff(P("det_time"), Decimal::FromInt(20),
                                   Decimal::FromInt(10))
          .value();
  properties::WindowSpec coarse =
      properties::WindowSpec::Diff(P("det_time"), Decimal::FromInt(60),
                                   Decimal::FromInt(40))
          .value();
  std::vector<engine::ItemPtr> fine_items;
  {
    engine::ResultStore store;
    engine::OperatorGraph graph;
    auto* agg = graph.Add<engine::WindowAggOp>(
        "agg", properties::AggregateFunc::kAvg, P("en"), fine);
    auto* sink = graph.Add<engine::SinkOp>("sink", &store);
    agg->AddDownstream(sink);
    std::vector<std::vector<engine::ItemBatch>> input = {
        OpaqueBatches(Photons(8192))};
    if (!engine::RunBatchStreams({agg}, &input).ok()) {
      state.SkipWithError("fine aggregation failed");
      return;
    }
    fine_items = sink->items();
  }
  std::vector<engine::ItemBatch> batches = OpaqueBatches(fine_items);
  for (auto _ : state) {
    state.PauseTiming();
    engine::OperatorGraph graph;
    auto* combine = graph.Add<engine::AggCombineOp>(
        "combine", properties::AggregateFunc::kAvg, fine, coarse);
    auto* sink = graph.Add<engine::SinkOp>("sink");
    combine->AddDownstream(sink);
    state.ResumeTiming();
    for (engine::ItemBatch& batch : batches) {
      benchmark::DoNotOptimize(combine->PushBatch(&batch));
    }
    benchmark::DoNotOptimize(combine->Finish());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fine_items.size()));
}
BENCHMARK(BM_AggCombine);

}  // namespace

BENCHMARK_MAIN();
