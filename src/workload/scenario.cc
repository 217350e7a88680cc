#include "workload/scenario.h"

#include <algorithm>
#include <random>

#include "workload/paper_queries.h"

namespace streamshare::workload {

namespace {

PhotonGenConfig DefaultPhotonConfig(uint64_t seed) {
  PhotonGenConfig config;
  config.seed = seed;
  // The vela region and its neighbourhood are bright: selections on the
  // predefined boxes see a workload-relevant selectivity instead of the
  // vanishing fraction a uniform sky would give them.
  config.hot_regions = {
      {120.0, 138.0, -49.0, -40.0},  // vela
      {130.5, 135.5, -48.0, -45.0},  // RX J0852
      {80.0, 95.0, -72.0, -64.0},    // LMC
      {160.0, 180.0, -60.0, -50.0},  // Carina
  };
  config.hot_weights = {1.5, 0.5, 0.5, 0.5};
  config.base_weight = 4.0;
  return config;
}

Status InstallStatistics(sharing::StreamShareSystem* system,
                         const StreamSpec& stream) {
  auto path = [](const char* text) {
    return xml::Path::Parse(text).value();
  };
  SS_RETURN_IF_ERROR(system->SetRange(stream.name, path("coord/cel/ra"),
                                      {0.0, 360.0}));
  SS_RETURN_IF_ERROR(system->SetRange(stream.name, path("coord/cel/dec"),
                                      {-90.0, 90.0}));
  SS_RETURN_IF_ERROR(system->SetRange(
      stream.name, path("en"), {stream.gen.en_min, stream.gen.en_max}));
  SS_RETURN_IF_ERROR(
      system->SetRange(stream.name, path("phc"), {0.0, 255.0}));
  SS_RETURN_IF_ERROR(
      system->SetRange(stream.name, path("coord/det/dx"), {0.0, 511.0}));
  SS_RETURN_IF_ERROR(
      system->SetRange(stream.name, path("coord/det/dy"), {0.0, 511.0}));
  // det_time spans the whole run; its range only matters for selections on
  // it (none in the templates), but its increment drives time-window
  // frequency estimation.
  SS_RETURN_IF_ERROR(
      system->SetRange(stream.name, path("det_time"), {0.0, 1e9}));
  return system->SetAvgIncrement(stream.name, path("det_time"),
                                 stream.gen.det_time_increment_mean);
}

}  // namespace

ScenarioSpec ExtendedExampleScenario(uint64_t seed, size_t query_count) {
  ScenarioSpec scenario;
  scenario.name = "extended-example";
  scenario.topology = network::Topology::ExtendedExample(
      kDefaultBandwidthKbps, kDefaultMaxLoad);

  StreamSpec stream;
  stream.name = "photons";
  stream.source = 4;  // P0's super-peer
  stream.gen = DefaultPhotonConfig(seed);
  scenario.streams.push_back(std::move(stream));

  // The paper's four example queries at the super-peers their thin peers
  // attach to (P1@SP1, P2@SP7, P3@SP3, P4@SP0).
  scenario.queries.push_back({kQuery1, 1});
  scenario.queries.push_back({kQuery2, 7});
  scenario.queries.push_back({kQuery3, 3});
  scenario.queries.push_back({kQuery4, 0});

  QueryGenerator generator(QueryGenConfig::Default(seed + 1, "photons"));
  // Astronomer peers attach across the backbone; the source super-peer
  // itself registers no queries.
  const network::NodeId targets[] = {1, 7, 3, 0, 5, 2, 6};
  size_t target_index = 0;
  while (scenario.queries.size() < query_count) {
    scenario.queries.push_back(
        {generator.Next(),
         targets[target_index++ % (sizeof(targets) / sizeof(targets[0]))]});
  }
  return scenario;
}

ScenarioSpec GridScenario(uint64_t seed, size_t query_count,
                          double bandwidth_kbps, double max_load) {
  ScenarioSpec scenario;
  scenario.name = "grid-4x4";
  scenario.topology =
      network::Topology::Grid(4, 4, bandwidth_kbps, max_load);

  StreamSpec first;
  first.name = "photons";
  first.source = 0;
  first.gen = DefaultPhotonConfig(seed);
  scenario.streams.push_back(std::move(first));

  StreamSpec second;
  second.name = "photons2";
  second.source = 15;  // opposite corner
  second.gen = DefaultPhotonConfig(seed + 100);
  scenario.streams.push_back(std::move(second));

  QueryGenerator gen_first(QueryGenConfig::Default(seed + 1, "photons"));
  QueryGenerator gen_second(QueryGenConfig::Default(seed + 2, "photons2"));
  std::mt19937_64 rng(seed + 3);
  std::uniform_int_distribution<int> target_dist(0, 15);
  std::uniform_int_distribution<int> stream_dist(0, 1);
  for (size_t i = 0; i < query_count; ++i) {
    std::string text =
        stream_dist(rng) == 0 ? gen_first.Next() : gen_second.Next();
    scenario.queries.push_back({std::move(text), target_dist(rng)});
  }
  return scenario;
}

Result<std::unique_ptr<sharing::StreamShareSystem>> BuildSystem(
    const ScenarioSpec& scenario, sharing::SystemConfig config) {
  auto system = std::make_unique<sharing::StreamShareSystem>(
      scenario.topology, config);
  for (const StreamSpec& stream : scenario.streams) {
    SS_RETURN_IF_ERROR(system->RegisterStream(
        stream.name, PhotonGenerator::Schema(), stream.gen.frequency_hz,
        stream.source));
    SS_RETURN_IF_ERROR(InstallStatistics(system.get(), stream));
  }
  return system;
}

StreamItems GenerateItems(const ScenarioSpec& scenario,
                          size_t items_per_stream) {
  StreamItems items;
  for (const StreamSpec& stream : scenario.streams) {
    PhotonGenerator generator(stream.gen);
    items[stream.name] = generator.Generate(items_per_stream);
  }
  return items;
}

StreamItems SliceItems(const StreamItems& items, size_t from, size_t to) {
  StreamItems slice;
  for (const auto& [name, list] : items) {
    size_t hi = std::min(to, list.size());
    size_t lo = std::min(from, hi);
    slice[name].assign(list.begin() + lo, list.begin() + hi);
  }
  return slice;
}

Status ApplyChurn(sharing::StreamShareSystem* system,
                  const ChurnEvent& event) {
  if (event.kind == ChurnEvent::Kind::kFailPeer) {
    return system->FailPeer(event.peer).status();
  }
  return system->CutLink(event.link_a, event.link_b).status();
}

ChurnWalk::ChurnWalk(std::vector<ChurnEvent> events,
                     size_t items_per_stream)
    : events_(std::move(events)), items_per_stream_(items_per_stream) {
  for (ChurnEvent& event : events_) {
    event.at_offset = std::min(event.at_offset, items_per_stream_);
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at_offset < b.at_offset;
                   });
}

Status ChurnWalk::RunTo(size_t stop, const FeedStep& feed,
                        const ApplyStep& apply) {
  stop = std::min(stop, items_per_stream_);
  auto feed_to = [&](size_t to) -> Status {
    if (to <= fed_) return Status::Ok();
    SS_RETURN_IF_ERROR(feed(fed_, to));
    fed_ = to;
    return Status::Ok();
  };
  while (next_ < events_.size() && events_[next_].at_offset <= stop) {
    SS_RETURN_IF_ERROR(feed_to(events_[next_].at_offset));
    SS_RETURN_IF_ERROR(apply(events_[next_]));
    ++next_;
  }
  return feed_to(stop);
}

Result<ScenarioRun> RunScenario(const ScenarioSpec& scenario,
                                sharing::Strategy strategy,
                                sharing::SystemConfig config,
                                size_t items_per_stream,
                                const std::vector<ChurnEvent>& churn) {
  ScenarioRun run;
  SS_ASSIGN_OR_RETURN(run.system, BuildSystem(scenario, config));
  for (const QuerySpec& query : scenario.queries) {
    Result<sharing::RegistrationResult> result =
        run.system->RegisterQuery(query.text, query.target, strategy);
    if (!result.ok()) {
      ++run.registration_failures;
      continue;
    }
    if (result->accepted) {
      ++run.accepted;
      // Kept results are there to be compared (query-stats, serve-plane
      // identity checks); the order-insensitive hash makes that cheap.
      if (config.keep_results && result->sink != nullptr) {
        result->sink->EnableContentHash();
      }
    } else {
      ++run.rejected;
    }
  }
  for (const StreamSpec& stream : scenario.streams) {
    run.duration_s =
        std::max(run.duration_s, static_cast<double>(items_per_stream) /
                                     stream.gen.frequency_hz);
  }
  StreamItems items = GenerateItems(scenario, items_per_stream);
  if (churn.empty()) {
    SS_RETURN_IF_ERROR(run.system->Run(items));
    return run;
  }
  ChurnWalk walk(churn, items_per_stream);
  SS_RETURN_IF_ERROR(walk.RunToEnd(
      [&](size_t from, size_t to) {
        return run.system->Feed(SliceItems(items, from, to));
      },
      [&](const ChurnEvent& event) {
        run.churn.push_back(event);
        return ApplyChurn(run.system.get(), event);
      }));
  SS_RETURN_IF_ERROR(run.system->Shutdown());
  return run;
}

}  // namespace streamshare::workload
