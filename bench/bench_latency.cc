// Measured-latency plane on the 4×4 grid workload: per-query end-to-end
// p50/p99 under the tcp transport (one worker thread per partition, the
// channels real localhost sockets), plus a serial
// stamping-overhead pair (the same record-path run with measure_latency
// on and off, the median of fifteen paired trials) that CI gates on.
//
// Output is `key=value` lines; pipe through tools/bench_to_json to
// persist BENCH_latency.json:
//
//   ./bench/bench_latency | ./tools/bench_to_json BENCH_latency.json
//
// Usage: bench_latency [items_per_stream] [query_count]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "workload/scenario.h"

using namespace streamshare;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The q-quantile of `values` (q in [0,1]), interpolated linearly
/// between the order statistics; 0 for an empty list.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lower = static_cast<size_t>(rank);
  size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] + (rank - lower) * (values[upper] - values[lower]);
}

Result<std::unique_ptr<sharing::StreamShareSystem>> Deploy(
    const workload::ScenarioSpec& scenario,
    const sharing::SystemConfig& config) {
  SS_ASSIGN_OR_RETURN(std::unique_ptr<sharing::StreamShareSystem> system,
                      workload::BuildSystem(scenario, config));
  for (const workload::QuerySpec& query : scenario.queries) {
    Result<sharing::RegistrationResult> result = system->RegisterQuery(
        query.text, query.target, sharing::Strategy::kStreamSharing);
    SS_RETURN_IF_ERROR(result.status());
  }
  return system;
}

/// Emits `<mode>.q<id>.{p50_us,p99_us,stamped}` for every accepted query
/// of `system`. A query whose sink saw no stamped item (e.g. a windowed
/// aggregate whose windows all flushed at end of stream) reports zeros —
/// a stable key set matters more than suppressing empty series.
void PrintQueryLatencies(const sharing::StreamShareSystem& system,
                         const char* mode) {
  for (const sharing::RegistrationResult& registration :
       system.registrations()) {
    if (!registration.accepted || registration.sink == nullptr) continue;
    const obs::Histogram* hist = registration.sink->latency_histogram();
    uint64_t stamped = hist != nullptr ? hist->Count() : 0;
    double p50 = stamped > 0 ? hist->Quantile(0.50) : 0.0;
    double p99 = stamped > 0 ? hist->Quantile(0.99) : 0.0;
    std::printf("%s.q%d.p50_us=%.1f\n", mode, registration.query_id, p50);
    std::printf("%s.q%d.p99_us=%.1f\n", mode, registration.query_id, p99);
    std::printf("%s.q%d.stamped=%llu\n", mode, registration.query_id,
                static_cast<unsigned long long>(stamped));
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t items_per_stream = 2000;
  int query_count = 40;
  if (argc > 1) items_per_stream = std::strtoul(argv[1], nullptr, 10);
  if (argc > 2) query_count = std::atoi(argv[2]);

  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, query_count);

  sharing::SystemConfig config;  // stamping on by default

  std::map<std::string, std::vector<engine::ItemPtr>> items;
  size_t total_items = 0;
  for (const workload::StreamSpec& stream : scenario.streams) {
    workload::PhotonGenerator generator(stream.gen);
    items[stream.name] = generator.Generate(items_per_stream);
    total_items += items_per_stream;
  }
  auto make_batches = [&](const sharing::SystemConfig& cfg) {
    std::map<std::string, std::vector<engine::ItemBatch>> batches;
    for (const workload::StreamSpec& stream : scenario.streams) {
      workload::PhotonGenerator generator(stream.gen);
      batches[stream.name] = generator.GenerateBatches(
          items_per_stream, cfg.parallel.batch_size);
    }
    return batches;
  };

  std::printf("# grid, %d queries, %zu items/stream, %u hw threads\n",
              query_count, items_per_stream,
              std::thread::hardware_concurrency());
  std::printf("bench=latency\n");
  std::printf("workload=grid4x4\n");
  std::printf("hw_threads=%u\n", std::thread::hardware_concurrency());
  std::printf("queries=%d\n", query_count);
  std::printf("items_total=%zu\n", total_items);

  // --- Stamping-overhead pair: identical serial record-path runs, one
  // clock read per fed batch apart. CI gates on the relative difference, so
  // the measurement must beat scheduler noise: each trial runs the two
  // configurations back to back (alternating which goes first), and the
  // overhead is the median of the per-trial paired overheads. A pair
  // shares one stretch of host speed; the best run of each side could
  // come from different stretches.
  {
    constexpr int kTrials = 15;
    std::vector<double> stamped_rates, unstamped_rates, overheads;
    for (int trial = 0; trial < kTrials; ++trial) {
      for (bool stamping : {trial % 2 == 1, trial % 2 == 0}) {
        sharing::SystemConfig serial_config = config;
        serial_config.measure_latency = stamping;
        Result<std::unique_ptr<sharing::StreamShareSystem>> system =
            Deploy(scenario, serial_config);
        if (!system.ok()) {
          std::fprintf(stderr, "deploy failed: %s\n",
                       system.status().ToString().c_str());
          return 1;
        }
        auto batches = make_batches(serial_config);
        Clock::time_point start = Clock::now();
        Status status = (*system)->Run(&batches);
        double elapsed = SecondsSince(start);
        if (!status.ok()) {
          std::fprintf(stderr, "serial run failed: %s\n",
                       status.ToString().c_str());
          return 1;
        }
        double rate = static_cast<double>(total_items) / elapsed;
        (stamping ? stamped_rates : unstamped_rates).push_back(rate);
      }
      double unstamped = unstamped_rates.back();
      overheads.push_back(
          unstamped > 0 ? (unstamped - stamped_rates.back()) / unstamped * 100
                        : 0.0);
    }
    std::printf("stamped_items_per_s=%.1f\n", Quantile(stamped_rates, 0.5));
    std::printf("unstamped_items_per_s=%.1f\n",
                Quantile(unstamped_rates, 0.5));
    std::printf("stamping_overhead_pct=%.2f\n", Quantile(overheads, 0.5));
    std::printf("stamping_overhead_pct_q1=%.2f\n",
                Quantile(overheads, 0.25));
    std::printf("stamping_overhead_pct_q3=%.2f\n",
                Quantile(overheads, 0.75));
  }

  // --- tcp transport: one worker thread per partition; the stamping
  // runs above share the registry's latency series, so zero it first.
  obs::MetricsRegistry::Default().ResetAll();
  {
    sharing::SystemConfig tcp_config = config;
    tcp_config.executor = sharing::ExecutorKind::kTcp;
    Result<std::unique_ptr<sharing::StreamShareSystem>> system =
        Deploy(scenario, tcp_config);
    if (!system.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   system.status().ToString().c_str());
      return 1;
    }
    Clock::time_point start = Clock::now();
    Status status = (*system)->Run(items);
    double elapsed = SecondsSince(start);
    if (!status.ok()) {
      std::fprintf(stderr, "tcp run failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("tcp_items_per_s=%.1f\n",
                static_cast<double>(total_items) / elapsed);
    PrintQueryLatencies(**system, "tcp");
  }
  return 0;
}
