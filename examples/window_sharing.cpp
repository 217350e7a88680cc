// Window-aggregate sharing in isolation (§3.3, Fig. 5): computes a fine
// sliding average (|det_time diff 20 step 10|) once, then derives a
// coarser aggregate (|det_time diff 60 step 40|) two ways — directly from
// the item stream, and by recombining the fine aggregate values — and
// shows that both yield identical windows while the recombination
// processes orders of magnitude fewer items.

#include <cstdio>
#include <vector>

#include "engine/executor.h"
#include "engine/window_agg.h"
#include "workload/photon_gen.h"

using namespace streamshare;

int main() {
  xml::Path en = xml::Path::Parse("en").value();
  xml::Path det_time = xml::Path::Parse("det_time").value();
  properties::WindowSpec fine =
      properties::WindowSpec::Diff(det_time, Decimal::FromInt(20),
                                   Decimal::FromInt(10))
          .value();
  properties::WindowSpec coarse =
      properties::WindowSpec::Diff(det_time, Decimal::FromInt(60),
                                   Decimal::FromInt(40))
          .value();

  workload::PhotonGenConfig config;
  workload::PhotonGenerator generator(config);
  std::vector<engine::ItemPtr> photons = generator.Generate(5000);

  engine::OperatorGraph graph;
  // Chain 1: fine aggregation, then recombination into coarse windows.
  auto* fine_agg = graph.Add<engine::WindowAggOp>(
      "fine", properties::AggregateFunc::kAvg, en, fine);
  auto* fine_sink = graph.Add<engine::SinkOp>("fine-sink", true);
  auto* combine = graph.Add<engine::AggCombineOp>(
      "combine", properties::AggregateFunc::kAvg, fine, coarse);
  auto* combined_sink = graph.Add<engine::SinkOp>("combined-sink", true);
  fine_agg->AddDownstream(fine_sink);
  fine_agg->AddDownstream(combine);
  combine->AddDownstream(combined_sink);

  // Chain 2: direct coarse aggregation over the raw items.
  auto* direct = graph.Add<engine::WindowAggOp>(
      "direct", properties::AggregateFunc::kAvg, en, coarse);
  auto* direct_sink = graph.Add<engine::SinkOp>("direct-sink", true);
  direct->AddDownstream(direct_sink);

  // Both chains see the same photons, adopted into record batches.
  std::vector<std::vector<engine::ItemBatch>> fine_input = {
      engine::ChunkItems(photons, /*batch_size=*/64, /*adopt=*/true)};
  std::vector<std::vector<engine::ItemBatch>> direct_input = fine_input;
  Status status = engine::RunBatchStreams({fine_agg}, &fine_input);
  if (status.ok()) status = engine::RunBatchStreams({direct}, &direct_input);
  if (!status.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  std::printf("Window-aggregate sharing (Fig. 5)\n");
  std::printf("=================================\n\n");
  std::printf("photons processed          : %zu\n", photons.size());
  std::printf("fine windows (Q3 shape)    : %llu\n",
              static_cast<unsigned long long>(fine_sink->item_count()));
  std::printf("coarse via recombination   : %llu\n",
              static_cast<unsigned long long>(combined_sink->item_count()));
  std::printf("coarse via direct agg      : %llu\n\n",
              static_cast<unsigned long long>(direct_sink->item_count()));

  size_t compared = std::min(combined_sink->items().size(),
                             direct_sink->items().size());
  size_t mismatches = 0;
  for (size_t i = 0; i < compared; ++i) {
    if (!combined_sink->items()[i]->Equals(*direct_sink->items()[i])) {
      ++mismatches;
    }
  }
  std::printf("windows compared           : %zu, mismatches: %zu\n",
              compared, mismatches);

  // Show the first few coarse averages.
  std::printf("\nfirst coarse windows (seq : avg en):\n");
  for (size_t i = 0; i < std::min<size_t>(5, compared); ++i) {
    Result<engine::AggItem> agg =
        engine::ParseAggItem(*combined_sink->items()[i]);
    if (!agg.ok()) continue;
    Result<Decimal> avg = agg->Finalize(properties::AggregateFunc::kAvg);
    std::printf("  %3lld : %s keV\n",
                static_cast<long long>(agg->seq),
                avg.ok() ? avg->ToString().c_str() : "(empty)");
  }
  std::printf(
      "\nThe recombination consumed %llu aggregate items instead of %zu "
      "photons (%.0fx fewer).\n",
      static_cast<unsigned long long>(fine_sink->item_count()),
      photons.size(),
      static_cast<double>(photons.size()) /
          std::max<double>(1.0, static_cast<double>(
                                    fine_sink->item_count())));
  return mismatches == 0 ? 0 : 1;
}
