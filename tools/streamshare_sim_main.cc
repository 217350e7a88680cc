// streamshare_sim — run one of the paper's evaluation scenarios from the
// command line and print the measured per-peer / per-connection series.
//
//   streamshare_sim [--scenario=extended|grid] [--strategy=data|query|share]
//                   [--queries=N] [--items=N] [--seed=N] [--widening]
//                   [--hierarchical] [--enforce-limits]
//                   [--executor=serial|parallel] [--transport=loopback|tcp]
//                   [--transport-threads] [--fail-peer=ID@OFFSET]
//                   [--cut-link=A-B@OFFSET] [--trace=FILE]
//                   [--metrics=FILE] [--explain] [--log]
//                   [--latency-report] [--no-stamping] [--query-stats]
//
// --transport runs the deployed network over the transport layer (binary
// codec + credit-based flow control) instead of in-process pointer
// handoff; with tcp every super-peer partition becomes its own OS
// process exchanging frames over localhost sockets
// (--transport-threads keeps tcp in one process, e.g. under TSAN).
//
// --fail-peer / --cut-link (repeatable) inject failures mid-run: after
// OFFSET items per stream the peer dies / the link goes down, the
// orphaned subscriptions are re-planned against the surviving topology,
// and the remaining items keep flowing. A recovery report per event
// (re-planned queries with old vs new C(P), lost queries, destroyed
// windows) is printed after the run. Churn forces tcp into thread mode.
//
// Observability: --trace writes a Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto), --metrics writes a registry snapshot
// (JSON, or CSV when FILE ends in .csv), --explain prints the candidate
// plans Subscribe costed per query with the chosen one marked (plus each
// accepted query's predicted-vs-measured latency), and --log streams
// structured events to stderr. --latency-report prints the per-query
// latency audit table: the plan's estimated delivery latency next to the
// p50/p99 actually measured at the sink from per-item ingress stamps.
// --no-stamping disables the measured-latency plane (items are not
// stamped; the audit has nothing to report). --query-stats keeps every
// sink's results and prints one `q<id> items=N bytes=N hash=N` line per
// query — the same observation a live streamshare_client prints, so a
// batch run and a served run of the same scenario diff directly
// (scripts/serve_smoke.sh does exactly that).
//
// Exit code 0 on success.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sharing/latency_audit.h"
#include "workload/scenario.h"

using namespace streamshare;

namespace {

struct Options {
  std::string scenario = "extended";
  sharing::Strategy strategy = sharing::Strategy::kStreamSharing;
  size_t queries = 25;
  size_t items = 2000;
  uint64_t seed = 11;
  bool widening = false;
  bool enforce_limits = false;
  bool hierarchical = false;
  bool parallel = false;
  std::string transport;  // empty = no transport layer
  bool transport_threads = false;
  bool explain = false;
  bool log = false;
  bool latency_report = false;
  bool no_stamping = false;
  bool query_stats = false;
  std::string trace_path;
  std::string metrics_path;
  std::vector<workload::ChurnEvent> churn;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// "<id>@<offset>" → kFailPeer event.
bool ParseFailPeer(const std::string& value, workload::ChurnEvent* event) {
  size_t at = value.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= value.size()) {
    return false;
  }
  event->kind = workload::ChurnEvent::Kind::kFailPeer;
  event->peer = static_cast<network::NodeId>(
      std::strtol(value.substr(0, at).c_str(), nullptr, 10));
  event->at_offset = static_cast<size_t>(
      std::strtoull(value.c_str() + at + 1, nullptr, 10));
  return true;
}

/// "<a>-<b>@<offset>" → kCutLink event.
bool ParseCutLink(const std::string& value, workload::ChurnEvent* event) {
  size_t dash = value.find('-');
  size_t at = value.find('@');
  if (dash == std::string::npos || at == std::string::npos || dash == 0 ||
      at < dash + 2 || at + 1 >= value.size()) {
    return false;
  }
  event->kind = workload::ChurnEvent::Kind::kCutLink;
  event->link_a = static_cast<network::NodeId>(
      std::strtol(value.substr(0, dash).c_str(), nullptr, 10));
  event->link_b = static_cast<network::NodeId>(
      std::strtol(value.substr(dash + 1, at - dash - 1).c_str(), nullptr,
                  10));
  event->at_offset = static_cast<size_t>(
      std::strtoull(value.c_str() + at + 1, nullptr, 10));
  return true;
}

int Usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario=extended|grid] "
      "[--strategy=data|query|share] [--queries=N] [--items=N] "
      "[--seed=N] [--widening] [--hierarchical] [--enforce-limits] "
      "[--executor=serial|parallel] [--transport=loopback|tcp] "
      "[--transport-threads] [--fail-peer=ID@OFFSET] "
      "[--cut-link=A-B@OFFSET] [--trace=FILE] [--metrics=FILE] "
      "[--explain] [--log] [--latency-report] [--no-stamping] "
      "[--query-stats]\n",
      program);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--scenario", &value)) {
      options.scenario = value;
    } else if (ParseFlag(argv[i], "--strategy", &value)) {
      if (value == "data") {
        options.strategy = sharing::Strategy::kDataShipping;
      } else if (value == "query") {
        options.strategy = sharing::Strategy::kQueryShipping;
      } else if (value == "share") {
        options.strategy = sharing::Strategy::kStreamSharing;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--queries", &value)) {
      options.queries = static_cast<size_t>(std::strtoull(
          value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--items", &value)) {
      options.items = static_cast<size_t>(std::strtoull(
          value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--widening") == 0) {
      options.widening = true;
    } else if (std::strcmp(argv[i], "--hierarchical") == 0) {
      options.hierarchical = true;
    } else if (std::strcmp(argv[i], "--enforce-limits") == 0) {
      options.enforce_limits = true;
    } else if (ParseFlag(argv[i], "--executor", &value)) {
      if (value == "serial") {
        options.parallel = false;
      } else if (value == "parallel") {
        options.parallel = true;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--transport", &value)) {
      if (value != "loopback" && value != "tcp") return Usage(argv[0]);
      options.transport = value;
    } else if (std::strcmp(argv[i], "--transport-threads") == 0) {
      options.transport_threads = true;
    } else if (ParseFlag(argv[i], "--fail-peer", &value)) {
      workload::ChurnEvent event;
      if (!ParseFailPeer(value, &event)) return Usage(argv[0]);
      options.churn.push_back(event);
    } else if (ParseFlag(argv[i], "--cut-link", &value)) {
      workload::ChurnEvent event;
      if (!ParseCutLink(value, &event)) return Usage(argv[0]);
      options.churn.push_back(event);
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      options.trace_path = value;
    } else if (ParseFlag(argv[i], "--metrics", &value)) {
      options.metrics_path = value;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      options.explain = true;
    } else if (std::strcmp(argv[i], "--log") == 0) {
      options.log = true;
    } else if (std::strcmp(argv[i], "--latency-report") == 0) {
      options.latency_report = true;
    } else if (std::strcmp(argv[i], "--no-stamping") == 0) {
      options.no_stamping = true;
    } else if (std::strcmp(argv[i], "--query-stats") == 0) {
      options.query_stats = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!options.trace_path.empty()) {
    obs::TraceRecorder::Default().SetEnabled(true);
  }
  if (options.log) {
    obs::EventLog::Default().SetSink(std::make_shared<obs::StderrSink>());
  }

  workload::ScenarioSpec scenario;
  if (options.scenario == "extended") {
    scenario =
        workload::ExtendedExampleScenario(options.seed, options.queries);
  } else if (options.scenario == "grid") {
    scenario = workload::GridScenario(options.seed, options.queries);
  } else {
    return Usage(argv[0]);
  }

  sharing::SystemConfig config;
  config.planner.enable_widening = options.widening;
  config.enforce_limits = options.enforce_limits;
  config.measure_latency = !options.no_stamping;
  // Query stats need the delivery log (and RunScenario hashes kept
  // sinks), so the observation matches what a live client accumulates.
  config.keep_results = options.query_stats;
  if (options.parallel) {
    config.executor = sharing::ExecutorKind::kParallel;
  }
  if (!options.transport.empty()) {
    // TCP defaults to one OS process per super-peer partition; loopback
    // pipes cannot cross fork() and always run worker threads. Churn
    // needs segmented feeding, which keeps window state in one address
    // space — it forces thread mode too.
    config.executor = sharing::ExecutorKind::kTransport;
    config.transport = options.transport;
    config.transport_processes = options.transport == "tcp" &&
                                 !options.transport_threads &&
                                 options.churn.empty();
  }
  std::stable_sort(options.churn.begin(), options.churn.end(),
                   [](const workload::ChurnEvent& a,
                      const workload::ChurnEvent& b) {
                     return a.at_offset < b.at_offset;
                   });
  if (options.hierarchical) {
    // Quadrants for the grid; halves for the extended example.
    size_t peers = scenario.topology.peer_count();
    config.subnet_assignment.resize(peers);
    if (options.scenario == "grid") {
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          config.subnet_assignment[r * 4 + c] =
              (r >= 2 ? 2 : 0) + (c >= 2 ? 1 : 0);
        }
      }
    } else {
      config.subnet_assignment = {0, 1, 1, 1, 0, 0, 0, 1};
    }
  }
  Result<workload::ScenarioRun> run = workload::RunScenario(
      scenario, options.strategy, config, options.items, options.churn);
  if (!run.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 run.status().ToString().c_str());
    return 2;
  }

  const network::Topology& topology = scenario.topology;
  const engine::Metrics& metrics = run->system->metrics();
  std::printf("scenario=%s strategy=%s queries=%zu items=%zu seed=%llu\n",
              options.scenario.c_str(),
              std::string(sharing::StrategyToString(options.strategy))
                  .c_str(),
              options.queries, options.items,
              static_cast<unsigned long long>(options.seed));
  std::printf("accepted=%d rejected=%d duration=%.1fs\n\n", run->accepted,
              run->rejected, run->duration_s);

  std::printf("%-8s %14s %14s\n", "peer", "cpu %", "work units");
  for (size_t peer = 0; peer < topology.peer_count(); ++peer) {
    std::printf("%-8s %14.2f %14.1f\n", topology.peer(peer).name.c_str(),
                metrics.PeerCpuPercent(static_cast<network::NodeId>(peer),
                                       run->duration_s,
                                       topology.peer(peer).max_load),
                metrics.WorkAtPeer(static_cast<network::NodeId>(peer)));
  }
  std::printf("\n%-12s %14s %14s\n", "connection", "kbps", "bytes");
  for (size_t link = 0; link < topology.link_count(); ++link) {
    const network::Link& l = topology.link(link);
    std::string label = std::to_string(l.a) + "-" + std::to_string(l.b);
    std::printf("%-12s %14.2f %14llu\n", label.c_str(),
                metrics.LinkKbps(static_cast<network::LinkId>(link),
                                 run->duration_s),
                static_cast<unsigned long long>(metrics.BytesOnLink(
                    static_cast<network::LinkId>(link))));
  }
  std::printf("\ntotal bytes=%llu total work=%.1f streams=%zu\n",
              static_cast<unsigned long long>(metrics.TotalBytes()),
              metrics.TotalWork(),
              run->system->registry().streams().size());

  if (options.parallel) {
    std::printf("\n%-8s %10s %10s %16s %16s %10s\n", "worker", "peers",
                "entries", "prod blocked ms", "cons blocked ms",
                "max depth");
    const auto& worker_stats = run->system->run_stats().workers;
    for (size_t w = 0; w < worker_stats.size(); ++w) {
      const engine::ParallelWorkerStats& stats = worker_stats[w];
      std::string peers;
      for (size_t i = 0; i < stats.peers.size(); ++i) {
        if (i > 0) peers += ",";
        peers += topology.peer(stats.peers[i]).name;
      }
      std::printf("%-8zu %10s %10llu %16.2f %16.2f %10llu\n", w,
                  peers.c_str(),
                  static_cast<unsigned long long>(stats.entries_received),
                  static_cast<double>(stats.producer_blocked_ns) / 1e6,
                  static_cast<double>(stats.consumer_blocked_ns) / 1e6,
                  static_cast<unsigned long long>(stats.max_queue_depth));
    }
  }

  if (!options.transport.empty()) {
    const transport::RunStats& tstats = run->system->run_stats();
    std::printf("\ntransport=%s processes=%zu\n", tstats.transport.c_str(),
                tstats.process_count);
    std::printf("%-12s %12s %12s %12s %10s\n", "channel", "frames",
                "wire bytes", "items", "stalls");
    for (const transport::ChannelTrafficStats& channel : tstats.channels) {
      std::string label = "w" + std::to_string(channel.source_worker) +
                          "->w" + std::to_string(channel.target_worker);
      std::printf("%-12s %12llu %12llu %12llu %10llu\n", label.c_str(),
                  static_cast<unsigned long long>(channel.stats.frames_sent),
                  static_cast<unsigned long long>(channel.stats.bytes_sent),
                  static_cast<unsigned long long>(
                      channel.stats.items_delivered),
                  static_cast<unsigned long long>(
                      channel.stats.credit_stalls));
    }
  }

  if (!options.churn.empty()) {
    std::printf("\n=== recovery ===\n");
    const auto& reports = run->system->recovery_reports();
    for (size_t i = 0; i < reports.size(); ++i) {
      std::printf("event %zu @item %zu:\n%s", i,
                  options.churn[i].at_offset,
                  reports[i].ToString().c_str());
    }
  }

  if (options.query_stats) {
    std::printf("\n=== query stats ===\n");
    for (const sharing::RegistrationResult& registration :
         run->system->registrations()) {
      if (!registration.accepted || registration.sink == nullptr) {
        std::printf("q%d rejected\n", registration.query_id);
        continue;
      }
      std::printf("q%d items=%llu bytes=%llu hash=%llu\n",
                  registration.query_id,
                  static_cast<unsigned long long>(
                      registration.sink->item_count()),
                  static_cast<unsigned long long>(
                      registration.sink->total_bytes()),
                  static_cast<unsigned long long>(
                      registration.sink->content_hash()));
    }
  }

  std::vector<sharing::QueryLatencyAudit> audits =
      sharing::CollectLatencyAudit(run->system->registrations());
  std::map<int, const sharing::QueryLatencyAudit*> audit_by_query;
  for (const sharing::QueryLatencyAudit& audit : audits) {
    audit_by_query[audit.query_id] = &audit;
  }

  if (options.latency_report) {
    std::printf("\n%s", sharing::FormatLatencyReport(audits).c_str());
  }

  if (options.explain) {
    // Candidate-plan cost breakdown: every plan Subscribe costed, with
    // the one the cost model chose marked '*'. The chosen line's C(P)
    // equals the deployed plan's per-input cost.
    std::printf("\n=== explain: candidate plans ===\n");
    for (const sharing::RegistrationResult& registration :
         run->system->registrations()) {
      std::printf("q%d%s\n", registration.query_id,
                  registration.accepted ? "" : " [rejected]");
      auto audit_it = audit_by_query.find(registration.query_id);
      if (audit_it != audit_by_query.end() &&
          audit_it->second->has_measurement()) {
        const sharing::QueryLatencyAudit& audit = *audit_it->second;
        std::printf(
            "    latency: predicted=%.3fms measured p50=%.3fms "
            "p99=%.3fms over %llu stamped items\n",
            audit.predicted_ms, audit.measured_p50_ms,
            audit.measured_p99_ms,
            static_cast<unsigned long long>(audit.stamped_items));
      }
      if (registration.search.candidates.empty()) {
        std::printf("    (strategy bypasses the candidate search)\n");
        continue;
      }
      for (const sharing::CandidatePlanInfo& candidate :
           registration.search.candidates) {
        const char* reuse_peer =
            candidate.reuse_node >= 0 &&
                    static_cast<size_t>(candidate.reuse_node) <
                        topology.peer_count()
                ? topology.peer(candidate.reuse_node).name.c_str()
                : "?";
        std::printf("  %c input=%s reuse=#%d@%s cost=%.6f%s%s\n",
                    candidate.chosen ? '*' : ' ',
                    candidate.input_stream.c_str(),
                    candidate.reused_stream, reuse_peer,
                    candidate.cost,
                    candidate.feasible ? "" : " [infeasible]",
                    candidate.widening ? " [widening]" : "");
      }
    }
  }

  if (!options.metrics_path.empty()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    run->system->ExportMetrics(&registry);
    Status status =
        obs::WriteMetricsFile(registry.Snapshot(), options.metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "writing metrics failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    std::printf("metrics written to %s\n", options.metrics_path.c_str());
  }
  if (!options.trace_path.empty()) {
    Status status =
        obs::TraceRecorder::Default().WriteJson(options.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "writing trace failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    std::printf("trace written to %s (%zu events)\n",
                options.trace_path.c_str(),
                obs::TraceRecorder::Default().event_count());
  }
  return 0;
}
