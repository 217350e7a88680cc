// Registration-cost scaling: indexed candidate lookup vs the flat
// per-node registry scan, out to 100k installed queries.
//
// Two 4×4-grid workloads (capacities raised so admission never caps the
// stream population — the index is what's under test):
//
//   * pooled — every query constant comes from a predefined discrete set
//     (the paper's §4 methodology: "chosen uniformly from a predefined
//     set of values to enable a certain degree of shareability"). The
//     distinct-predicate pool is bounded, so dominance groups absorb the
//     growing population and indexed registration cost must stay flat —
//     this is the curve the CI gate pins (p99@100k ≤ 3× p99@1k).
//
//   * open — the historical continuous-constant draw: every contained
//     selection is a distinct box, so the set of *genuinely distinct*
//     reuse candidates grows with the population and any exact planner
//     must cost them all. Reported for contrast (near-linear by nature);
//     the index still wins on the constant (signature work per candidate)
//     but cannot flatten inherent candidate growth.
//
// Output is `key=value` (plus `#` commentary), piped into
// tools/bench_to_json to persist BENCH_registration.json:
//
//   ./bench/bench_scaling_registration | \
//       ./tools/bench_to_json BENCH_registration.json
//
// Args: [pooled_total] [pooled_flat_cap] [open_total]
// (defaults 100000 10000 10000; smaller values for quick local runs).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "workload/query_gen.h"
#include "workload/scenario.h"

using namespace streamshare;

namespace {

constexpr size_t kCheckpoints[] = {1000,  2000,  5000, 10000,
                                   20000, 50000, 100000};

// Mirrors GridScenario's query mix (two streams, uniform targets) with a
// configurable contained-selection constant pool.
std::vector<workload::QuerySpec> GridQueries(uint64_t seed, size_t count,
                                             int shrink_steps) {
  workload::QueryGenConfig first =
      workload::QueryGenConfig::Default(seed + 1, "photons");
  workload::QueryGenConfig second =
      workload::QueryGenConfig::Default(seed + 2, "photons2");
  first.shrink_steps = shrink_steps;
  second.shrink_steps = shrink_steps;
  workload::QueryGenerator gen_first(first);
  workload::QueryGenerator gen_second(second);
  std::mt19937_64 rng(seed + 3);
  std::uniform_int_distribution<int> target_dist(0, 15);
  std::uniform_int_distribution<int> stream_dist(0, 1);
  std::vector<workload::QuerySpec> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string text =
        stream_dist(rng) == 0 ? gen_first.Next() : gen_second.Next();
    queries.push_back({std::move(text), target_dist(rng)});
  }
  return queries;
}

double Percentile(std::vector<double>* window, double fraction) {
  if (window->empty()) return 0.0;
  std::sort(window->begin(), window->end());
  size_t index = static_cast<size_t>(fraction * (window->size() - 1));
  return (*window)[index];
}

Status RunArm(const std::string& arm, bool indexed, int shrink_steps,
              size_t total, uint64_t seed) {
  // Query generation is excluded from the measurements; capacities are
  // raised so every plan is feasible and the population keeps growing.
  std::vector<workload::QuerySpec> queries =
      GridQueries(seed, total, shrink_steps);
  workload::ScenarioSpec scenario = workload::GridScenario(
      seed, /*query_count=*/0, /*bandwidth_kbps=*/1e9, /*max_load=*/1e9);
  sharing::SystemConfig config;
  config.candidate_index = indexed;
  SS_ASSIGN_OR_RETURN(auto system,
                      workload::BuildSystem(scenario, config));

  std::vector<double> window;
  long long window_candidates = 0;
  long accepted = 0;
  size_t next_checkpoint = 0;
  for (size_t i = 0; i < total; ++i) {
    SS_ASSIGN_OR_RETURN(
        sharing::RegistrationResult result,
        system->RegisterQuery(queries[i].text, queries[i].target,
                              sharing::Strategy::kStreamSharing));
    if (result.accepted) ++accepted;
    window.push_back(result.registration_micros);
    window_candidates += result.search.candidates_examined;
    size_t registered = i + 1;
    if (next_checkpoint < std::size(kCheckpoints) &&
        registered == kCheckpoints[next_checkpoint]) {
      double p50 = Percentile(&window, 0.50);
      double p99 = Percentile(&window, 0.99);
      std::printf("%s_p50_us_%zu=%.1f\n", arm.c_str(), registered, p50);
      std::printf("%s_p99_us_%zu=%.1f\n", arm.c_str(), registered, p99);
      std::printf("%s_avg_candidates_%zu=%.1f\n", arm.c_str(), registered,
                  static_cast<double>(window_candidates) / window.size());
      std::fflush(stdout);
      window.clear();
      window_candidates = 0;
      ++next_checkpoint;
    }
  }
  std::printf("%s_total=%zu\n", arm.c_str(), total);
  std::printf("%s_accepted=%ld\n", arm.c_str(), accepted);
  if (const sharing::CandidateIndex* index = system->candidate_index()) {
    std::printf("%s_live_streams=%zu\n", arm.c_str(), index->live_count());
    std::printf("%s_shapes=%zu\n", arm.c_str(), index->shape_count());
    std::printf("%s_families=%zu\n", arm.c_str(), index->family_count());
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  size_t pooled_total = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : 100000;
  size_t flat_cap = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10000;
  size_t open_total = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                               : 10000;
  constexpr uint64_t kSeed = 19;

  std::printf("# Registration-cost scaling, 4x4 grid, stream sharing, %u "
              "hw threads.\n",
              std::thread::hardware_concurrency());
  std::printf("hw_threads=%u\n", std::thread::hardware_concurrency());
  std::printf(
      "# pooled_indexed: discrete constant pool, candidate index on — the "
      "gated curve.\n");
  Status status = RunArm("pooled_indexed", /*indexed=*/true,
                         /*shrink_steps=*/2, pooled_total, kSeed);
  if (status.ok()) {
    std::printf("# pooled_flat: same workload, flat per-node scan.\n");
    status = RunArm("pooled_flat", /*indexed=*/false, /*shrink_steps=*/2,
                    std::min(flat_cap, pooled_total), kSeed);
  }
  if (status.ok()) {
    std::printf(
        "# open_indexed: continuous constants — candidate growth is "
        "inherent to the workload, not index overhead.\n");
    status = RunArm("open_indexed", /*indexed=*/true, /*shrink_steps=*/0,
                    open_total, kSeed);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "scaling bench failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
