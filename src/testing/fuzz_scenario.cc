#include "testing/fuzz_scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace streamshare::testing {

namespace {

std::string FormatFixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

/// Appends "lhs >= v" style conjuncts for the set box sides.
void AppendBoxConjuncts(const FuzzQuerySpec& spec, const std::string& prefix,
                        std::vector<std::string>* conjuncts) {
  if (spec.ra_min) {
    conjuncts->push_back(prefix + "coord/cel/ra >= " +
                         FormatFixed(*spec.ra_min, 1));
  }
  if (spec.ra_max) {
    conjuncts->push_back(prefix + "coord/cel/ra <= " +
                         FormatFixed(*spec.ra_max, 1));
  }
  if (spec.dec_min) {
    conjuncts->push_back(prefix + "coord/cel/dec >= " +
                         FormatFixed(*spec.dec_min, 1));
  }
  if (spec.dec_max) {
    conjuncts->push_back(prefix + "coord/cel/dec <= " +
                         FormatFixed(*spec.dec_max, 1));
  }
  if (spec.en_threshold) {
    conjuncts->push_back(prefix + "en >= " +
                         FormatFixed(*spec.en_threshold, 2));
  }
  if (spec.det_skew) {
    conjuncts->push_back(prefix + "coord/det/dx <= " + prefix +
                         "coord/det/dy + " + FormatFixed(*spec.det_skew, 1));
  }
}

std::string JoinAnd(const std::vector<std::string>& conjuncts) {
  std::string out;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) out += " and ";
    out += conjuncts[i];
  }
  return out;
}

}  // namespace

uint64_t DetRng::Next() {
  // splitmix64: fully specified, so scenarios replay across platforms.
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t DetRng::Below(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

int64_t DetRng::Between(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
}

double DetRng::Unit() { return std::ldexp(static_cast<double>(Next() >> 11), -53); }

double DetRng::BetweenReal(double lo, double hi) {
  return lo + Unit() * (hi - lo);
}

std::string FuzzQuerySpec::ToQueryText() const {
  if (kind == Kind::kSelection) {
    std::vector<std::string> conjuncts;
    AppendBoxConjuncts(*this, "$p/", &conjuncts);
    std::string text = "<photons> { for $p in stream(\"" + stream +
                       "\")/photons/photon";
    if (!conjuncts.empty()) text += " where " + JoinAnd(conjuncts);
    if (projection.empty()) {
      text += " return $p } </photons>";
      return text;
    }
    text += " return <hit>";
    for (const std::string& path : projection) {
      text += " { $p/" + path + " }";
    }
    text += " </hit> } </photons>";
    return text;
  }

  std::vector<std::string> conjuncts;
  AppendBoxConjuncts(*this, "", &conjuncts);
  std::string text =
      "<photons> { for $w in stream(\"" + stream + "\")/photons/photon";
  if (!conjuncts.empty()) text += " [" + JoinAnd(conjuncts) + "]";
  if (window_type == properties::WindowType::kDiff) {
    text += " |det_time diff " + std::to_string(window_size) + " step " +
            std::to_string(window_step) + "|";
  } else {
    text += " |count " + std::to_string(window_size) + " step " +
            std::to_string(window_step) + "|";
  }
  text += " let $a := " + agg_func + "($w/en)";
  if (agg_filter) {
    text += " where $a >= " + FormatFixed(*agg_filter, 2);
  }
  text += " return <agg_en> { $a } </agg_en> } </photons>";
  return text;
}

workload::PhotonGenConfig FuzzStreamSpec::ToGenConfig() const {
  workload::PhotonGenConfig config;
  config.seed = gen_seed;
  config.frequency_hz = frequency_hz;
  config.det_time_increment_mean = det_time_increment_mean;
  // hot_regions are attached by StreamGenConfig from the scenario's pool.
  return config;
}

Result<network::Topology> FuzzTopologySpec::Build() const {
  network::Topology topology;
  for (int p = 0; p < peers; ++p) {
    topology.AddPeer("SP" + std::to_string(p), max_load);
  }
  for (const auto& [a, b] : links) {
    SS_RETURN_IF_ERROR(topology.AddLink(a, b, bandwidth_kbps).status());
  }
  return topology;
}

std::string FuzzScenario::ToString() const {
  std::string out = "scenario seed=" + std::to_string(seed) + " peers=" +
                    std::to_string(topology.peers) + " links=" +
                    std::to_string(topology.links.size()) + " items=" +
                    std::to_string(items_per_stream) + "\n";
  for (const FuzzStreamSpec& stream : streams) {
    out += "  stream " + stream.name + " @SP" +
           std::to_string(stream.source) + " " +
           FormatFixed(stream.frequency_hz, 1) + "Hz\n";
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    out += "  q" + std::to_string(q) + " @SP" +
           std::to_string(queries[q].target) + ": " +
           queries[q].ToQueryText() + "\n";
  }
  for (const workload::ChurnEvent& event : churn) {
    if (event.kind == workload::ChurnEvent::Kind::kFailPeer) {
      out += "  churn fail-peer SP" + std::to_string(event.peer);
    } else {
      out += "  churn cut-link " + std::to_string(event.link_a) + "-" +
             std::to_string(event.link_b);
    }
    out += " @item " + std::to_string(event.at_offset) + "\n";
  }
  return out;
}

namespace {

/// Per-scenario sky-box pool: a handful of base boxes plus sub-boxes of
/// some of them (containment is what creates reuse-with-residual plans).
std::vector<workload::SkyBox> GenerateBoxPool(DetRng* rng) {
  std::vector<workload::SkyBox> boxes;
  int base_count = static_cast<int>(rng->Between(2, 4));
  for (int i = 0; i < base_count; ++i) {
    workload::SkyBox box;
    box.ra_min = rng->BetweenReal(0.0, 300.0);
    box.ra_max = box.ra_min + rng->BetweenReal(10.0, 50.0);
    box.dec_min = rng->BetweenReal(-85.0, 55.0);
    box.dec_max = box.dec_min + rng->BetweenReal(8.0, 30.0);
    boxes.push_back(box);
  }
  // Sub-boxes of random base boxes.
  int sub_count = static_cast<int>(rng->Between(1, 2));
  for (int i = 0; i < sub_count; ++i) {
    workload::SkyBox box = boxes[rng->Below(base_count)];
    double ra_span = box.ra_max - box.ra_min;
    double dec_span = box.dec_max - box.dec_min;
    box.ra_min += rng->BetweenReal(0.0, 0.3) * ra_span;
    box.ra_max -= rng->BetweenReal(0.0, 0.3) * ra_span;
    box.dec_min += rng->BetweenReal(0.0, 0.3) * dec_span;
    box.dec_max -= rng->BetweenReal(0.0, 0.3) * dec_span;
    boxes.push_back(box);
  }
  return boxes;
}

/// Projection subsets; selections always keep ra/dec so residual
/// re-filtering behind a projected shared stream stays possible.
const char* const kProjectionSubsets[][5] = {
    {"coord/cel/ra", "coord/cel/dec", "phc", "en", "det_time"},
    {"coord/cel/ra", "coord/cel/dec", "en", "det_time", nullptr},
    {"coord/cel/ra", "coord/cel/dec", "en", nullptr, nullptr},
    {"coord/cel/ra", "coord/cel/dec", "det_time", nullptr, nullptr},
};
constexpr size_t kProjectionSubsetCount =
    sizeof(kProjectionSubsets) / sizeof(kProjectionSubsets[0]);

const char* const kAggFuncs[] = {"avg", "sum", "count", "min", "max"};

FuzzQuerySpec GenerateQuery(DetRng* rng, const FuzzScenario& scenario,
                            const std::vector<std::pair<int, int>>& windows) {
  FuzzQuerySpec spec;
  const FuzzStreamSpec& stream =
      scenario.streams[rng->Below(scenario.streams.size())];
  spec.stream = stream.name;
  spec.target = static_cast<network::NodeId>(
      rng->Below(static_cast<uint64_t>(scenario.topology.peers)));

  // Predicates shared by both kinds: a pool box (sometimes shrunk, for
  // containment), an optional energy threshold, an optional cross-variable
  // detector atom. Sides drop independently with small probability so
  // half-open boxes appear too.
  auto fill_box = [&](FuzzQuerySpec* q) {
    if (rng->Chance(0.15)) return;  // no box at all
    workload::SkyBox box = scenario.boxes[rng->Below(scenario.boxes.size())];
    if (rng->Chance(0.35)) {  // contained sub-box
      double ra_span = box.ra_max - box.ra_min;
      double dec_span = box.dec_max - box.dec_min;
      box.ra_min += rng->BetweenReal(0.0, 0.25) * ra_span;
      box.ra_max -= rng->BetweenReal(0.0, 0.25) * ra_span;
      box.dec_min += rng->BetweenReal(0.0, 0.25) * dec_span;
      box.dec_max -= rng->BetweenReal(0.0, 0.25) * dec_span;
    }
    if (!rng->Chance(0.1)) q->ra_min = box.ra_min;
    if (!rng->Chance(0.1)) q->ra_max = box.ra_max;
    if (!rng->Chance(0.1)) q->dec_min = box.dec_min;
    if (!rng->Chance(0.1)) q->dec_max = box.dec_max;
  };
  fill_box(&spec);
  if (rng->Chance(0.4)) {
    spec.en_threshold = 0.25 * rng->Between(1, 8);  // 0.25 .. 2.0 keV
  }
  if (rng->Chance(0.2)) {
    spec.det_skew = 32.0 * rng->Between(0, 12);  // dx <= dy + skew
  }

  if (rng->Chance(0.65)) {
    spec.kind = FuzzQuerySpec::Kind::kSelection;
    if (!rng->Chance(0.25)) {  // 25% whole-item returns
      const char* const* subset =
          kProjectionSubsets[rng->Below(kProjectionSubsetCount)];
      for (size_t i = 0; i < 5 && subset[i] != nullptr; ++i) {
        spec.projection.push_back(subset[i]);
      }
    }
    return spec;
  }

  spec.kind = FuzzQuerySpec::Kind::kAggregation;
  auto [size, step] = windows[rng->Below(windows.size())];
  spec.window_size = size;
  spec.window_step = step;
  spec.window_type = rng->Chance(0.3) ? properties::WindowType::kCount
                                      : properties::WindowType::kDiff;
  spec.agg_func = kAggFuncs[rng->Below(5)];
  if (spec.agg_func == std::string("avg") && rng->Chance(0.3)) {
    spec.agg_filter = 0.25 * rng->Between(2, 6);
  }
  return spec;
}

}  // namespace

FuzzScenario GenerateScenario(uint64_t seed,
                              const GeneratorOptions& options) {
  DetRng rng(seed * 0x2545F4914F6CDD1Dull + 1);
  FuzzScenario scenario;
  scenario.seed = seed;

  // Topology: a random spanning tree (node i hangs off a random earlier
  // node) plus a few chords. Always connected; capacities high enough
  // that no plan is rejected — the differential oracle tests semantics,
  // not admission control.
  scenario.topology.peers = static_cast<int>(
      rng.Between(options.min_peers, options.max_peers));
  for (int p = 1; p < scenario.topology.peers; ++p) {
    scenario.topology.links.emplace_back(
        static_cast<int>(rng.Below(static_cast<uint64_t>(p))), p);
  }
  int chords = static_cast<int>(rng.Between(0, scenario.topology.peers / 2));
  for (int i = 0; i < chords; ++i) {
    int a = static_cast<int>(
        rng.Below(static_cast<uint64_t>(scenario.topology.peers)));
    int b = static_cast<int>(
        rng.Below(static_cast<uint64_t>(scenario.topology.peers)));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    bool duplicate = false;
    for (const auto& link : scenario.topology.links) {
      if (link == std::make_pair(a, b)) duplicate = true;
    }
    if (!duplicate) scenario.topology.links.emplace_back(a, b);
  }

  scenario.boxes = GenerateBoxPool(&rng);

  int stream_count = static_cast<int>(
      rng.Between(options.min_streams, options.max_streams));
  for (int s = 0; s < stream_count; ++s) {
    FuzzStreamSpec stream;
    stream.name = s == 0 ? "photons" : "photons" + std::to_string(s + 1);
    stream.source = static_cast<network::NodeId>(
        rng.Below(static_cast<uint64_t>(scenario.topology.peers)));
    stream.gen_seed = rng.Next() | 1;
    stream.frequency_hz = static_cast<double>(rng.Between(50, 200));
    stream.det_time_increment_mean = 0.125 * rng.Between(2, 8);
    for (size_t b = 0; b < scenario.boxes.size(); ++b) {
      stream.hot_weights.push_back(0.25 * rng.Between(0, 8));
    }
    scenario.streams.push_back(std::move(stream));
  }

  // Window (Δ, µ) pool: a recombinable family over a base step, plus one
  // deliberately non-dividing pair (µ ∤ Δ) — legal queries whose windows
  // simply never share.
  std::vector<std::pair<int, int>> windows;
  int base = static_cast<int>(rng.Between(4, 12));
  windows.emplace_back(2 * base, base);
  windows.emplace_back(4 * base, 2 * base);
  windows.emplace_back(6 * base, 2 * base);
  windows.emplace_back(8 * base, 4 * base);
  windows.emplace_back(3 * base + 1, 2 * base);  // µ ∤ Δ
  int query_count = static_cast<int>(
      rng.Between(options.min_queries, options.max_queries));
  for (int q = 0; q < query_count; ++q) {
    scenario.queries.push_back(GenerateQuery(&rng, scenario, windows));
  }

  scenario.items_per_stream = static_cast<size_t>(rng.Between(
      static_cast<int64_t>(options.min_items),
      static_cast<int64_t>(options.max_items)));

  // Churn draws come strictly after every clean draw, so enabling churn
  // never perturbs the clean part a seed generates.
  if (options.churn_probability > 0.0 &&
      rng.Chance(options.churn_probability)) {
    // Redundancy chords: recovery is only interesting when the residual
    // topology can still route around a failure, and random spanning
    // trees rarely can. Scenarios that carry churn get a few extra links
    // the clean generator would not have drawn — scenarios without churn
    // (in particular every scenario at the default probability 0) are
    // untouched.
    int extra_links = static_cast<int>(
        rng.Between(1, std::max(2, scenario.topology.peers / 2)));
    for (int i = 0; i < extra_links; ++i) {
      int a = static_cast<int>(
          rng.Below(static_cast<uint64_t>(scenario.topology.peers)));
      int b = static_cast<int>(
          rng.Below(static_cast<uint64_t>(scenario.topology.peers)));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      bool duplicate = false;
      for (const auto& link : scenario.topology.links) {
        if (link == std::make_pair(a, b)) duplicate = true;
      }
      if (!duplicate) scenario.topology.links.emplace_back(a, b);
    }
    int count = static_cast<int>(rng.Between(options.min_churn_events,
                                             options.max_churn_events));
    // Mid-band offsets: early enough that windows are mid-flight, late
    // enough that pre-failure output exists to diff against.
    std::vector<size_t> offsets;
    for (int i = 0; i < count; ++i) {
      offsets.push_back(static_cast<size_t>(
          rng.Between(static_cast<int64_t>(scenario.items_per_stream / 4),
                      static_cast<int64_t>(
                          (scenario.items_per_stream * 3) / 4))));
    }
    std::sort(offsets.begin(), offsets.end());
    // Assign events in offset order so independence is checkable as we
    // go: no repeated peer, no link cut twice or after an endpoint died.
    // Stream sources never fail — killing the producer severs the whole
    // workload, which tests nothing recovery-specific.
    std::vector<bool> failed(scenario.topology.peers, false);
    std::vector<bool> source(scenario.topology.peers, false);
    for (const FuzzStreamSpec& stream : scenario.streams) {
      source[stream.source] = true;
    }
    std::set<std::pair<int, int>> cut;
    // True iff the surviving peers stay mutually reachable after also
    // failing `extra_peer` (or -1) and cutting `extra_cut` (or {-1,-1}).
    // Failures that keep the residual graph connected are the ones
    // recovery can *re-plan* around instead of tearing queries down, so
    // the generator prefers them — "gap, not garbage" is only testable
    // when a gap is actually recoverable.
    auto residual_connected = [&](int extra_peer,
                                  std::pair<int, int> extra_cut) {
      auto alive = [&](int p) { return !failed[p] && p != extra_peer; };
      std::vector<std::vector<int>> adjacency(scenario.topology.peers);
      for (const auto& link : scenario.topology.links) {
        if (cut.count(link) != 0 || link == extra_cut) continue;
        if (!alive(link.first) || !alive(link.second)) continue;
        adjacency[link.first].push_back(link.second);
        adjacency[link.second].push_back(link.first);
      }
      int start = -1, alive_count = 0;
      for (int p = 0; p < scenario.topology.peers; ++p) {
        if (!alive(p)) continue;
        ++alive_count;
        if (start < 0) start = p;
      }
      if (start < 0) return false;
      std::vector<bool> seen(scenario.topology.peers, false);
      std::vector<int> stack = {start};
      seen[start] = true;
      int visited = 1;
      while (!stack.empty()) {
        int p = stack.back();
        stack.pop_back();
        for (int n : adjacency[p]) {
          if (seen[n]) continue;
          seen[n] = true;
          ++visited;
          stack.push_back(n);
        }
      }
      return visited == alive_count;
    };
    for (size_t offset : offsets) {
      std::vector<int> peer_candidates;
      for (int p = 0; p < scenario.topology.peers; ++p) {
        if (!failed[p] && !source[p]) peer_candidates.push_back(p);
      }
      std::vector<std::pair<int, int>> link_candidates;
      for (const auto& link : scenario.topology.links) {
        if (failed[link.first] || failed[link.second]) continue;
        if (cut.count(link) != 0) continue;
        link_candidates.push_back(link);
      }
      // Prefer survivable events 3:1 when any exist; the disconnecting
      // ones stay in the mix to keep the kLost teardown path exercised.
      std::vector<int> safe_peers;
      for (int p : peer_candidates) {
        if (residual_connected(p, {-1, -1})) safe_peers.push_back(p);
      }
      std::vector<std::pair<int, int>> safe_links;
      for (const auto& link : link_candidates) {
        if (residual_connected(-1, link)) safe_links.push_back(link);
      }
      bool prefer_safe =
          (!safe_peers.empty() || !safe_links.empty()) && !rng.Chance(0.25);
      if (prefer_safe) {
        peer_candidates = safe_peers;
        link_candidates = safe_links;
      }
      if (peer_candidates.empty() && link_candidates.empty()) break;
      workload::ChurnEvent event;
      event.at_offset = offset;
      bool fail_peer = !peer_candidates.empty() &&
                       (link_candidates.empty() || rng.Chance(0.5));
      if (fail_peer) {
        event.kind = workload::ChurnEvent::Kind::kFailPeer;
        event.peer = peer_candidates[rng.Below(peer_candidates.size())];
        failed[event.peer] = true;
      } else {
        event.kind = workload::ChurnEvent::Kind::kCutLink;
        auto link = link_candidates[rng.Below(link_candidates.size())];
        event.link_a = link.first;
        event.link_b = link.second;
        cut.insert(link);
      }
      scenario.churn.push_back(event);
    }
  }
  return scenario;
}

workload::PhotonGenConfig StreamGenConfig(const FuzzScenario& scenario,
                                          const FuzzStreamSpec& stream) {
  workload::PhotonGenConfig config = stream.ToGenConfig();
  for (size_t b = 0; b < scenario.boxes.size(); ++b) {
    double weight =
        b < stream.hot_weights.size() ? stream.hot_weights[b] : 0.0;
    if (weight <= 0.0) continue;
    config.hot_regions.push_back(scenario.boxes[b]);
    config.hot_weights.push_back(weight);
  }
  return config;
}

}  // namespace streamshare::testing
