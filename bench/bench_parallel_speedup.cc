// Serial vs. peer-partitioned parallel execution on the 4×4 grid
// workload (Fig. 7 scenario: 16 super-peers, 2 photon streams, 100
// queries under stream sharing). Feeds the same logical streams through
// three identically-deployed systems — the serial executor on record
// slots, the serial executor with record_path off (every slot an opaque
// DOM item: serial_dom_items_per_s, and record_speedup = serial over
// that), and the parallel executor — verifies the outputs are
// bit-identical, and prints items/s for all three plus queue blocking
// totals.
//
// Output is `key=value` lines (plus human-readable commentary on lines
// starting with '#'); pipe through tools/bench_to_json to persist
// BENCH_engine.json. Usage: bench_parallel_speedup [items_per_stream]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "workload/scenario.h"

using namespace streamshare;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
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

}  // namespace

int main(int argc, char** argv) {
  size_t items_per_stream = 2000;
  if (argc > 1) items_per_stream = std::strtoul(argv[1], nullptr, 10);

  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, /*query_count=*/100);

  sharing::SystemConfig config;
  config.keep_results = true;  // needed for the bit-identity check

  sharing::SystemConfig dom_config = config;
  dom_config.record_path = false;  // opaque-slot (DOM evaluation) baseline

  sharing::SystemConfig parallel_config = config;
  parallel_config.executor = sharing::ExecutorKind::kParallel;

  Result<std::unique_ptr<sharing::StreamShareSystem>> serial =
      Deploy(scenario, config);
  Result<std::unique_ptr<sharing::StreamShareSystem>> serial_dom =
      Deploy(scenario, dom_config);
  Result<std::unique_ptr<sharing::StreamShareSystem>> parallel =
      Deploy(scenario, parallel_config);
  if (!serial.ok() || !serial_dom.ok() || !parallel.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 (!serial.ok()   ? serial
                  : !serial_dom.ok() ? serial_dom
                                     : parallel)
                     .status()
                     .ToString()
                     .c_str());
    return 1;
  }

  // The serial record run is fed straight from generator record batches
  // (no source DOM at all); the DOM and parallel runs get materialized
  // item lists from identically-seeded generators, so all three runs see
  // the same logical stream.
  std::map<std::string, std::vector<engine::ItemPtr>> items;
  std::map<std::string, std::vector<engine::ItemBatch>> batches;
  size_t total_items = 0;
  for (const workload::StreamSpec& stream : scenario.streams) {
    workload::PhotonGenerator generator(stream.gen);
    items[stream.name] = generator.Generate(items_per_stream);
    workload::PhotonGenerator record_generator(stream.gen);
    batches[stream.name] = record_generator.GenerateBatches(
        items_per_stream, config.parallel.batch_size);
    total_items += items_per_stream;
  }

  // Profiling aid: BENCH_SERIAL_ONLY=1 runs just the serial record path
  // (no DOM baseline, no parallel run, no identity check) so a profile
  // samples exactly the configuration under study.
  const bool serial_only = std::getenv("BENCH_SERIAL_ONLY") != nullptr;

  Clock::time_point start = Clock::now();
  Status status = (*serial)->Run(&batches);
  double serial_s = SecondsSince(start);
  if (!status.ok()) {
    std::fprintf(stderr, "serial run failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (serial_only) {
    std::printf("serial_items_per_s=%.1f\n",
                static_cast<double>(total_items) / serial_s);
    return 0;
  }

  start = Clock::now();
  status = (*serial_dom)->Run(items);
  double serial_dom_s = SecondsSince(start);
  if (!status.ok()) {
    std::fprintf(stderr, "serial DOM run failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  start = Clock::now();
  status = (*parallel)->Run(items);
  double parallel_s = SecondsSince(start);
  if (!status.ok()) {
    std::fprintf(stderr, "parallel run failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // Bit-identity: every query's result items must match the serial run's,
  // in order.
  bool identical = true;
  const auto& serial_regs = (*serial)->registrations();
  for (const auto* other : {&**serial_dom, &**parallel}) {
    const auto& other_regs = other->registrations();
    for (size_t q = 0; q < serial_regs.size() && identical; ++q) {
      const engine::SinkOp* expect = serial_regs[q].sink;
      const engine::SinkOp* got = other_regs[q].sink;
      if ((expect == nullptr) != (got == nullptr)) identical = false;
      if (expect == nullptr || got == nullptr) continue;
      if (expect->items().size() != got->items().size()) {
        identical = false;
        break;
      }
      for (size_t i = 0; i < expect->items().size(); ++i) {
        if (!expect->items()[i]->Equals(*got->items()[i])) {
          identical = false;
          break;
        }
      }
    }
  }

  uint64_t producer_blocked_ns = 0, consumer_blocked_ns = 0;
  uint64_t max_queue_depth = 0;
  const std::vector<engine::ParallelWorkerStats>& worker_stats =
      (*parallel)->run_stats().workers;
  size_t workers = worker_stats.size();
  for (const engine::ParallelWorkerStats& stats : worker_stats) {
    producer_blocked_ns += stats.producer_blocked_ns;
    consumer_blocked_ns += stats.consumer_blocked_ns;
    max_queue_depth = std::max(max_queue_depth, stats.max_queue_depth);
  }

  double serial_rate = static_cast<double>(total_items) / serial_s;
  double serial_dom_rate = static_cast<double>(total_items) / serial_dom_s;
  double parallel_rate = static_cast<double>(total_items) / parallel_s;
  std::printf("# 4x4 grid, 100 queries, %zu items/stream, %u hw threads\n",
              items_per_stream, std::thread::hardware_concurrency());
  std::printf("bench=parallel_speedup\n");
  std::printf("workload=grid4x4\n");
  std::printf("items_total=%zu\n", total_items);
  std::printf("hw_threads=%u\n", std::thread::hardware_concurrency());
  std::printf("workers=%zu\n", workers);
  for (size_t w = 0; w < workers; ++w) {
    const engine::ParallelWorkerStats& stats = worker_stats[w];
    std::printf("# worker %zu: %zu peers, %zu ops, %llu entries\n", w,
                stats.peers.size(), stats.operator_count,
                static_cast<unsigned long long>(stats.entries_received));
  }
  std::printf("serial_items_per_s=%.1f\n", serial_rate);
  std::printf("serial_dom_items_per_s=%.1f\n", serial_dom_rate);
  std::printf("record_speedup=%.3f\n",
              serial_dom_rate > 0 ? serial_rate / serial_dom_rate : 0.0);
  std::printf("parallel_items_per_s=%.1f\n", parallel_rate);
  std::printf("speedup=%.3f\n",
              serial_rate > 0 ? parallel_rate / serial_rate : 0.0);
  std::printf("identical=%d\n", identical ? 1 : 0);
  std::printf("producer_blocked_ms=%.3f\n",
              static_cast<double>(producer_blocked_ns) / 1e6);
  std::printf("consumer_blocked_ms=%.3f\n",
              static_cast<double>(consumer_blocked_ns) / 1e6);
  std::printf("queue_max_depth=%llu\n",
              static_cast<unsigned long long>(max_queue_depth));
  std::printf("queue_capacity=%zu\n", config.parallel.queue_capacity);
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: parallel output is not identical to serial\n");
    return 1;
  }
  return 0;
}
