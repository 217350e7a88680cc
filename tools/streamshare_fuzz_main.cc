// streamshare_fuzz — differential fuzzing driver. Generates seeded
// scenarios, runs each one through the oracle (serial reference vs
// transport-loopback vs transport-TCP, plus the sharing-vs-baseline
// oracle) and reports divergences. On failure the scenario is shrunk to
// a minimal reproducer and written out as replayable JSON plus a
// ready-to-commit C++ regression test.
//
//   streamshare_fuzz [--seeds=N] [--seed-base=B] [--seed=S]
//                    [--scenario=FILE] [--out-dir=DIR] [--metrics=FILE]
//                    [--no-loopback] [--no-tcp] [--no-shrink] [--churn=P]
//                    [--sweep-flow] [--dom-path] [--serve] [--crash]
//                    [--inject-mode=MODE] [--inject-min-window=N]
//                    [--inject-churn-mode=MODE]
//
// --seeds sweeps seeds [B, B+N); --seed runs exactly one; --scenario
// replays a JSON file emitted by an earlier run. --inject-mode plants a
// deliberate divergence in the named mode (self-test of the harness);
// --inject-churn-mode plants one in a churned recovery mode.
//
// --churn=P gives each generated scenario probability P of carrying
// mid-run kill-peer / cut-link events (chaos testing; the recovery
// oracle then checks the "gap, not garbage" invariants). --sweep-flow
// derives the transport flow-control and TCP retry knobs (credit
// window, send timeout, retry count/backoff, connect retries) from each
// seed, so a sweep exercises many transport configurations instead of
// only the production defaults. --dom-path turns the compact-record hot
// path off in every mode (by default the non-reference modes run it, so
// each equivalence diff is also a DOM-vs-record differential). --serve
// adds the serve oracle arm: every scenario also runs through a live
// streamshare_serve daemon + client over localhost TCP and the
// client-side deliveries must match the serial reference byte for byte.
// Real sockets per scenario make it the slowest arm — CI gates it to a
// small seed count. --crash adds the durability arm on top: the daemon
// runs in a forked child armed with seed-derived crashpoints, SIGKILLs
// itself mid-operation, recovers from checkpoint + write-ahead log, and
// the history the client accumulated across all lives must still match
// that same reference (a crash indistinguishable from a drain for every
// acknowledged operation).
//
// Exit codes: 0 clean, 1 divergence found, 2 infrastructure failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "testing/fuzz_scenario.h"
#include "testing/oracle.h"
#include "testing/reproducer.h"
#include "testing/scenario_json.h"
#include "testing/shrink.h"

using namespace streamshare;
using namespace streamshare::testing;

namespace {

struct Options {
  uint64_t seeds = 100;
  uint64_t seed_base = 1;
  bool single_seed = false;
  uint64_t seed = 0;
  std::string scenario_path;
  std::string out_dir = ".";
  std::string metrics_path;
  bool shrink = true;
  double churn_probability = 0.0;
  bool sweep_flow = false;
  OracleOptions oracle;
};

/// Seed-derived transport knobs for --sweep-flow. Drawn from a distinct
/// stream (seed ^ tag) so they never correlate with the scenario's own
/// draws. Timeouts stay generous — the sweep is after correctness under
/// odd configurations, not artificial deadline failures.
void DeriveFlowKnobs(uint64_t seed, OracleOptions* oracle) {
  DetRng rng(seed ^ 0xf10bcafeULL);
  oracle->flow.initial_credits =
      static_cast<int>(uint64_t{1} << rng.Between(3, 8));
  oracle->flow.send_timeout_ms = static_cast<int>(1000 * rng.Between(1, 4));
  oracle->flow.max_retries = static_cast<int>(rng.Between(1, 4));
  oracle->flow.retry_backoff_ms = static_cast<int>(rng.Between(1, 25));
  oracle->tcp.connect_retries = static_cast<int>(rng.Between(0, 3));
  oracle->tcp.connect_backoff_ms = static_cast<int>(rng.Between(1, 10));
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--seeds=N] [--seed-base=B] [--seed=S] "
               "[--scenario=FILE] [--out-dir=DIR] [--metrics=FILE] "
               "[--no-loopback] [--no-tcp] [--no-shrink] [--churn=P] "
               "[--sweep-flow] [--dom-path] [--serve] [--crash] [--flat-bfs] "
               "[--inject-mode=MODE] [--inject-min-window=N] "
               "[--inject-churn-mode=MODE]\n",
               program);
  return 2;
}

/// Runs one scenario; on divergence shrinks and writes the reproducer.
/// Returns 0 clean, 1 divergence, 2 infra failure.
int RunOne(const FuzzScenario& scenario, const Options& options) {
  auto report = RunOracle(scenario, options.oracle);
  if (!report.ok()) {
    std::fprintf(stderr, "seed %llu: infrastructure failure: %s\n",
                 static_cast<unsigned long long>(scenario.seed),
                 report.status().ToString().c_str());
    if (options.oracle.metrics != nullptr) {
      options.oracle.metrics->GetCounter("fuzz.infra_failures")->Add(1);
    }
    return 2;
  }
  if (report->ok()) return 0;

  std::fprintf(stderr, "seed %llu: DIVERGENCE\n%s\n",
               static_cast<unsigned long long>(scenario.seed),
               report->failure.c_str());

  // The shrink candidates and the final re-run are not fuzzed scenarios:
  // they run without the registry so the fuzz.* totals count each seed
  // once.
  OracleOptions rerun = options.oracle;
  rerun.metrics = nullptr;
  FuzzScenario minimal = scenario;
  if (options.shrink) {
    ShrinkStats stats;
    minimal = Shrink(
        scenario,
        [&](const FuzzScenario& candidate) {
          auto r = RunOracle(candidate, rerun);
          return r.ok() && !r->ok();
        },
        /*max_rounds=*/4, &stats);
    std::fprintf(stderr,
                 "seed %llu: shrunk to %zu queries / %zu items "
                 "(%d oracle runs, %d reductions)\n",
                 static_cast<unsigned long long>(scenario.seed),
                 minimal.queries.size(), minimal.items_per_stream,
                 stats.predicate_runs, stats.accepted_steps);
  }

  auto final_report = RunOracle(minimal, rerun);
  const std::string failure =
      final_report.ok() ? final_report->failure : report->failure;
  auto path = WriteReproducer(minimal, options.out_dir, failure);
  if (path.ok()) {
    std::fprintf(stderr, "seed %llu: reproducer written to %s\n",
                 static_cast<unsigned long long>(scenario.seed),
                 path->c_str());
  } else {
    std::fprintf(stderr, "seed %llu: failed to write reproducer: %s\n",
                 static_cast<unsigned long long>(scenario.seed),
                 path.status().ToString().c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--seeds", &value)) {
      options.seeds = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed-base", &value)) {
      options.seed_base = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      options.single_seed = true;
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--scenario", &value)) {
      options.scenario_path = value;
    } else if (ParseFlag(argv[i], "--out-dir", &value)) {
      options.out_dir = value;
    } else if (ParseFlag(argv[i], "--metrics", &value)) {
      options.metrics_path = value;
    } else if (std::strcmp(argv[i], "--no-loopback") == 0) {
      options.oracle.run_loopback = false;
    } else if (std::strcmp(argv[i], "--no-tcp") == 0) {
      options.oracle.run_tcp = false;
    } else if (std::strcmp(argv[i], "--dom-path") == 0) {
      options.oracle.record_path = false;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      options.oracle.run_serve = true;
    } else if (std::strcmp(argv[i], "--crash") == 0) {
      options.oracle.run_crash = true;
    } else if (std::strcmp(argv[i], "--flat-bfs") == 0) {
      options.oracle.run_flat_bfs = true;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      options.shrink = false;
    } else if (ParseFlag(argv[i], "--churn", &value)) {
      options.churn_probability = std::strtod(value.c_str(), nullptr);
    } else if (std::strcmp(argv[i], "--sweep-flow") == 0) {
      options.sweep_flow = true;
    } else if (ParseFlag(argv[i], "--inject-mode", &value)) {
      options.oracle.inject_divergence_mode = value;
    } else if (ParseFlag(argv[i], "--inject-min-window", &value)) {
      options.oracle.inject_min_window =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--inject-churn-mode", &value)) {
      options.oracle.inject_churn_mode = value;
    } else {
      return Usage(argv[0]);
    }
  }

  obs::MetricsRegistry metrics;
  options.oracle.metrics = &metrics;

  int worst = 0;
  if (!options.scenario_path.empty()) {
    auto scenario = ReadScenarioFile(options.scenario_path);
    if (!scenario.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n",
                   options.scenario_path.c_str(),
                   scenario.status().ToString().c_str());
      return 2;
    }
    worst = RunOne(*scenario, options);
  } else if (options.single_seed) {
    GeneratorOptions gen;
    gen.churn_probability = options.churn_probability;
    if (options.sweep_flow) DeriveFlowKnobs(options.seed, &options.oracle);
    worst = RunOne(GenerateScenario(options.seed, gen), options);
  } else {
    GeneratorOptions gen;
    gen.churn_probability = options.churn_probability;
    for (uint64_t s = 0; s < options.seeds; ++s) {
      const uint64_t seed = options.seed_base + s;
      if (options.sweep_flow) DeriveFlowKnobs(seed, &options.oracle);
      int rc = RunOne(GenerateScenario(seed, gen), options);
      if (rc > worst) worst = rc;
      if ((s + 1) % 50 == 0) {
        std::fprintf(stderr, "... %llu/%llu seeds\n",
                     static_cast<unsigned long long>(s + 1),
                     static_cast<unsigned long long>(options.seeds));
      }
    }
  }

  auto snapshot = metrics.Snapshot();
  if (!options.metrics_path.empty()) {
    Status st = obs::WriteMetricsFile(snapshot, options.metrics_path);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  for (const auto& m : snapshot) {
    if (m.name.rfind("fuzz.", 0) == 0) {
      std::fprintf(stderr, "%s = %.0f\n", m.name.c_str(), m.value);
    }
  }
  return worst;
}
