#include "testing/oracle.h"

#include <map>
#include <memory>
#include <set>
#include <tuple>

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "serve/crash_oracle.h"
#include "serve/crashpoint.h"
#include "serve/serve_oracle.h"
#include "serve/wal.h"
#include "sharing/system.h"
#include "xml/xml_writer.h"

namespace streamshare::testing {

namespace {

using sharing::ExecutorKind;
using sharing::RegistrationResult;
using sharing::StreamShareSystem;
using sharing::SystemConfig;

/// The oracle's scenario as the workload module sees it: the fuzz form
/// rendered down to a ScenarioSpec. Every arm — in-process or hosted by a
/// daemon — builds its system from this one spec through
/// workload::BuildSystem, so the planners all see the same statistics.
Result<workload::ScenarioSpec> ToScenarioSpec(
    const FuzzScenario& scenario) {
  workload::ScenarioSpec spec;
  spec.name = "fuzz-" + std::to_string(scenario.seed);
  SS_ASSIGN_OR_RETURN(spec.topology, scenario.topology.Build());
  for (const FuzzStreamSpec& stream : scenario.streams) {
    workload::StreamSpec out;
    out.name = stream.name;
    out.source = stream.source;
    out.gen = StreamGenConfig(scenario, stream);
    spec.streams.push_back(std::move(out));
  }
  for (const FuzzQuerySpec& query : scenario.queries) {
    spec.queries.push_back({query.ToQueryText(), query.target});
  }
  return spec;
}

struct BuiltSystem {
  std::unique_ptr<StreamShareSystem> system;
  std::vector<QueryObservation> registrations;
  /// Scenario query index -> index into system->registrations(), or -1
  /// when RegisterQuery failed outright (failed calls append nothing).
  std::vector<int> registration_index;
};

/// Builds a system for the scenario, registers every query under
/// `strategy`, and enables content hashing on all sinks. Keeps results
/// only when asked (the two serial systems that item-diff). The transport
/// knobs under test ride along in every config so the transport-mode runs
/// exercise them.
Result<BuiltSystem> BuildAndRegister(const workload::ScenarioSpec& spec,
                                     sharing::Strategy strategy,
                                     SystemConfig config,
                                     const OracleOptions& options) {
  config.flow = options.flow;
  config.tcp = options.tcp;
  BuiltSystem built;
  SS_ASSIGN_OR_RETURN(built.system, workload::BuildSystem(spec, config));
  for (const workload::QuerySpec& query : spec.queries) {
    QueryObservation observation;
    Result<RegistrationResult> result =
        built.system->RegisterQuery(query.text, query.target, strategy);
    if (!result.ok()) {
      observation.registration_error = result.status().ToString();
      built.registration_index.push_back(-1);
    } else {
      observation.accepted = result->accepted;
      if (result->sink != nullptr) result->sink->EnableContentHash();
      built.registration_index.push_back(result->query_id);
    }
    built.registrations.push_back(std::move(observation));
  }
  return built;
}

/// Folds the post-run sink state into the registration observations.
void Observe(const BuiltSystem& built, ModeObservation* mode) {
  mode->queries = built.registrations;
  const std::vector<RegistrationResult>& registrations =
      built.system->registrations();
  for (size_t q = 0; q < mode->queries.size(); ++q) {
    int index = built.registration_index[q];
    if (index < 0) continue;
    const engine::SinkOp* sink = registrations[index].sink;
    if (sink == nullptr) continue;
    mode->queries[q].items = sink->item_count();
    mode->queries[q].bytes = sink->total_bytes();
    mode->queries[q].content_hash = sink->content_hash();
  }
}

std::string DescribeQuery(const FuzzScenario& scenario, size_t q) {
  return "q" + std::to_string(q) + " [" +
         scenario.queries[q].ToQueryText() + "]";
}

/// One churned execution: the scenario's items fed in segments with the
/// churn events applied at their offsets, plus what every sink held right
/// after each recovery completed (the epoch boundaries the invariants
/// diff against).
struct ChurnRun {
  ModeObservation final_mode;
  /// after_event[j][q]: query q's sink right after event j's recovery.
  std::vector<std::vector<QueryObservation>> after_event;
  std::vector<recover::RecoveryReport> reports;
  /// Scenario query index -> query id (as BuiltSystem::registration_index).
  std::vector<int> registration_index;
};

Result<ChurnRun> RunChurned(const FuzzScenario& scenario,
                            const workload::ScenarioSpec& spec,
                            const workload::StreamItems& items,
                            SystemConfig config, const char* name,
                            const OracleOptions& options) {
  SS_ASSIGN_OR_RETURN(
      BuiltSystem built,
      BuildAndRegister(spec, sharing::Strategy::kStreamSharing, config,
                       options));
  ChurnRun run;
  workload::ChurnWalk walk(scenario.churn, scenario.items_per_stream);
  SS_RETURN_IF_ERROR(walk.RunToEnd(
      [&](size_t from, size_t to) {
        return built.system->Feed(workload::SliceItems(items, from, to))
            .WithContext(name);
      },
      [&](const workload::ChurnEvent& event) -> Status {
        SS_RETURN_IF_ERROR(workload::ApplyChurn(built.system.get(), event)
                               .WithContext(name));
        ModeObservation snapshot;
        Observe(built, &snapshot);
        run.after_event.push_back(std::move(snapshot.queries));
        return Status::Ok();
      }));
  SS_RETURN_IF_ERROR(built.system->Shutdown().WithContext(name));
  run.final_mode.mode = name;
  Observe(built, &run.final_mode);
  run.reports = built.system->recovery_reports();
  run.registration_index = built.registration_index;
  return run;
}

bool SameObservation(const QueryObservation& a, const QueryObservation& b) {
  return a.accepted == b.accepted && a.items == b.items &&
         a.bytes == b.bytes && a.content_hash == b.content_hash;
}

std::string ObservationString(const QueryObservation& o) {
  return "items=" + std::to_string(o.items) + " bytes=" +
         std::to_string(o.bytes) + " hash=" +
         std::to_string(o.content_hash);
}

}  // namespace

Result<OracleReport> RunOracle(const FuzzScenario& scenario,
                               const OracleOptions& options) {
  OracleReport report;
  auto fail = [&report](std::string message) {
    if (report.failure.empty()) report.failure = std::move(message);
  };

  SS_ASSIGN_OR_RETURN(workload::ScenarioSpec spec, ToScenarioSpec(scenario));
  const workload::StreamItems items =
      workload::GenerateItems(spec, scenario.items_per_stream);

  // --- Reference: stream sharing, serial executor, kept results. The
  // reference always evaluates opaque (DOM) slots, so when the other
  // modes run the record path the N-way diff is also the DOM-vs-record
  // differential. -------------------------------------------------------
  SystemConfig serial_config;
  serial_config.keep_results = true;
  serial_config.record_path = false;
  SS_ASSIGN_OR_RETURN(
      BuiltSystem reference,
      BuildAndRegister(spec, sharing::Strategy::kStreamSharing,
                       serial_config, options));
  SS_RETURN_IF_ERROR(reference.system->Run(items));
  ModeObservation reference_mode;
  reference_mode.mode = "serial";
  Observe(reference, &reference_mode);
  report.modes.push_back(reference_mode);

  for (const QueryObservation& query : reference_mode.queries) {
    if (query.accepted) ++report.accepted;
    report.total_results += query.items;
  }
  for (const RegistrationResult& registration :
       reference.system->registrations()) {
    if (!registration.accepted || registration.plan.inputs.empty()) {
      continue;
    }
    bool derived = false;
    for (const sharing::InputPlan& input : registration.plan.inputs) {
      if (input.reused_stream >= 0 &&
          !reference.system->registry()
               .stream(input.reused_stream)
               .IsOriginal()) {
        derived = true;
      }
    }
    if (derived) ++report.shared_reuses;
  }

  // --- The partitioned executor modes. --------------------------------
  struct ModeSpec {
    const char* name;
    ExecutorKind executor;
  };
  std::vector<ModeSpec> mode_specs;
  if (options.run_loopback) {
    mode_specs.push_back({"transport-loopback", ExecutorKind::kLoopback});
  }
  if (options.run_tcp) {
    mode_specs.push_back({"transport-tcp", ExecutorKind::kTcp});
  }

  for (const ModeSpec& mode_spec : mode_specs) {
    SystemConfig config;  // no keep_results: counts/bytes/hashes suffice
    config.executor = mode_spec.executor;
    config.record_path = options.record_path;
    SS_ASSIGN_OR_RETURN(
        BuiltSystem built,
        BuildAndRegister(spec, sharing::Strategy::kStreamSharing,
                         config, options));
    SS_RETURN_IF_ERROR(built.system->Run(items).WithContext(mode_spec.name));
    ModeObservation mode;
    mode.mode = mode_spec.name;
    Observe(built, &mode);

    if (!options.inject_divergence_mode.empty() &&
        options.inject_divergence_mode == mode_spec.name) {
      // Deliberate equivalence bug (self-test): aggregation queries with
      // a big enough window report one item too few and a skewed hash.
      for (size_t q = 0; q < mode.queries.size(); ++q) {
        const FuzzQuerySpec& query = scenario.queries[q];
        if (query.kind == FuzzQuerySpec::Kind::kAggregation &&
            query.window_size >= options.inject_min_window &&
            mode.queries[q].items > 0) {
          mode.queries[q].items -= 1;
          mode.queries[q].content_hash ^= 0xDEADBEEF;
        }
      }
    }
    report.modes.push_back(std::move(mode));
  }

  // --- N-way diff against the serial reference. ------------------------
  for (size_t m = 1; m < report.modes.size(); ++m) {
    const ModeObservation& mode = report.modes[m];
    for (size_t q = 0; q < mode.queries.size(); ++q) {
      const QueryObservation& expected = reference_mode.queries[q];
      const QueryObservation& actual = mode.queries[q];
      if (expected.accepted != actual.accepted ||
          expected.registration_error != actual.registration_error) {
        report.equivalence_ok = false;
        fail(mode.mode + ": registration outcome diverged on " +
             DescribeQuery(scenario, q));
        continue;
      }
      if (expected.items != actual.items ||
          expected.bytes != actual.bytes ||
          expected.content_hash != actual.content_hash) {
        report.equivalence_ok = false;
        fail(mode.mode + ": results diverged on " +
             DescribeQuery(scenario, q) + " — serial items=" +
             std::to_string(expected.items) + " bytes=" +
             std::to_string(expected.bytes) + " hash=" +
             std::to_string(expected.content_hash) + ", " + mode.mode +
             " items=" + std::to_string(actual.items) + " bytes=" +
             std::to_string(actual.bytes) + " hash=" +
             std::to_string(actual.content_hash));
      }
    }
  }

  // --- Latency-plane oracle: stamping must never change results. -------
  // The reference above ran with stamping on (the default). Re-run it
  // with measure_latency off and demand bit-identical sink observations;
  // then check the stamped reference itself saw monotone ingress ticks
  // (serial feeding is ordered) and never stamped more than it delivered.
  {
    SystemConfig unstamped_config = serial_config;
    unstamped_config.measure_latency = false;
    SS_ASSIGN_OR_RETURN(
        BuiltSystem unstamped,
        BuildAndRegister(spec, sharing::Strategy::kStreamSharing,
                         unstamped_config, options));
    SS_RETURN_IF_ERROR(
        unstamped.system->Run(items).WithContext("serial-unstamped"));
    ModeObservation unstamped_mode;
    unstamped_mode.mode = "serial-unstamped";
    Observe(unstamped, &unstamped_mode);
    for (size_t q = 0; q < unstamped_mode.queries.size(); ++q) {
      if (!SameObservation(reference_mode.queries[q],
                           unstamped_mode.queries[q])) {
        report.latency_ok = false;
        fail("latency oracle: stamping changed results on " +
             DescribeQuery(scenario, q) + " — stamped " +
             ObservationString(reference_mode.queries[q]) +
             ", unstamped " +
             ObservationString(unstamped_mode.queries[q]));
      }
    }
    for (const RegistrationResult& registration :
         reference.system->registrations()) {
      if (!registration.accepted || registration.sink == nullptr) continue;
      report.stamped_results += registration.sink->stamped_count();
      if (registration.sink->stamp_regressions() != 0) {
        report.latency_ok = false;
        fail("latency oracle: q" +
             std::to_string(registration.query_id) + " observed " +
             std::to_string(registration.sink->stamp_regressions()) +
             " ingress-tick regressions on the serial reference");
      }
      // Every stamp belongs to a delivered item. Strict equality would be
      // wrong for windowed queries: windows flushed at Finish are emitted
      // after the feeding scopes unwind and are deliberately unstamped.
      if (registration.sink->stamped_count() >
          registration.sink->item_count()) {
        report.latency_ok = false;
        fail("latency oracle: q" +
             std::to_string(registration.query_id) + " stamped " +
             std::to_string(registration.sink->stamped_count()) + " of " +
             std::to_string(registration.sink->item_count()) +
             " delivered items on the serial reference");
      }
    }
  }

  // --- Sharing oracle: item-identical to data shipping, C(P) no worse. --
  SS_ASSIGN_OR_RETURN(
      BuiltSystem baseline,
      BuildAndRegister(spec, sharing::Strategy::kDataShipping,
                       serial_config, options));
  SS_RETURN_IF_ERROR(baseline.system->Run(items));

  const auto& all_shared_regs = reference.system->registrations();
  const auto& all_baseline_regs = baseline.system->registrations();
  for (size_t q = 0; q < scenario.queries.size(); ++q) {
    int shared_index = reference.registration_index[q];
    int baseline_index = baseline.registration_index[q];
    if ((shared_index < 0) != (baseline_index < 0)) {
      report.sharing_ok = false;
      fail("sharing oracle: " + DescribeQuery(scenario, q) +
           " registration outcome differs between sharing and data "
           "shipping");
      continue;
    }
    if (shared_index < 0) continue;
    const RegistrationResult& shared_reg = all_shared_regs[shared_index];
    const RegistrationResult& baseline_reg =
        all_baseline_regs[baseline_index];
    if (shared_reg.sink == nullptr || baseline_reg.sink == nullptr) {
      continue;
    }
    const auto& shared_items = shared_reg.sink->items();
    const auto& baseline_items = baseline_reg.sink->items();
    if (shared_items.size() != baseline_items.size()) {
      report.sharing_ok = false;
      fail("sharing oracle: " + DescribeQuery(scenario, q) +
           " delivered " + std::to_string(shared_items.size()) +
           " items shared vs " + std::to_string(baseline_items.size()) +
           " items independent");
      continue;
    }
    for (size_t i = 0; i < shared_items.size(); ++i) {
      if (!shared_items[i]->Equals(*baseline_items[i])) {
        report.sharing_ok = false;
        fail("sharing oracle: " + DescribeQuery(scenario, q) + " item " +
             std::to_string(i) + " differs — shared " +
             xml::WriteCompact(*shared_items[i]) + " vs independent " +
             xml::WriteCompact(*baseline_items[i]));
        break;
      }
    }

    // Plan-cost half: the chosen plan must never beat the fallback it
    // displaced on price. Per input stream: chosen C(P) <= baseline C(P).
    std::map<std::string, double> baseline_cost;
    for (const sharing::CandidatePlanInfo& candidate :
         shared_reg.search.candidates) {
      if (candidate.baseline) {
        baseline_cost.emplace(candidate.input_stream, candidate.cost);
      }
    }
    for (const sharing::CandidatePlanInfo& candidate :
         shared_reg.search.candidates) {
      if (!candidate.chosen) continue;
      auto it = baseline_cost.find(candidate.input_stream);
      if (it == baseline_cost.end()) continue;
      // Allow for FP noise in cost accumulation; a real regression is
      // orders of magnitude above this.
      if (candidate.cost > it->second * (1.0 + 1e-9) + 1e-12) {
        report.sharing_ok = false;
        fail("sharing oracle: " + DescribeQuery(scenario, q) +
             " chose a plan with C(P)=" + std::to_string(candidate.cost) +
             " over a cheaper no-sharing baseline C(P)=" +
             std::to_string(it->second));
      }
    }
  }

  // --- Index-vs-BFS arm: the candidate index must never change planning
  // outcomes, only the set of candidates examined (ARCHITECTURE.md
  // invariant 10). Replay the registrations on a flat-BFS system and
  // demand identical chosen plans and identical delivered results; the
  // indexed run's generated candidates must be a subset of the flat
  // walk's, and its examination count no larger. -------------------------
  if (options.run_flat_bfs) {
    auto index_fail = [&](std::string message) {
      report.index_ok = false;
      fail("index oracle: " + std::move(message));
    };
    SystemConfig flat_config = serial_config;
    flat_config.candidate_index = false;
    SS_ASSIGN_OR_RETURN(
        BuiltSystem flat,
        BuildAndRegister(spec, sharing::Strategy::kStreamSharing,
                         flat_config, options));
    const auto& indexed_regs = reference.system->registrations();
    const auto& flat_regs = flat.system->registrations();
    for (size_t q = 0; q < scenario.queries.size(); ++q) {
      int indexed_id = reference.registration_index[q];
      int flat_id = flat.registration_index[q];
      if ((indexed_id < 0) != (flat_id < 0)) {
        index_fail(DescribeQuery(scenario, q) +
                   " registration outcome differs between indexed and "
                   "flat lookup");
        continue;
      }
      if (indexed_id < 0) continue;
      const RegistrationResult& indexed = indexed_regs[indexed_id];
      const RegistrationResult& walked = flat_regs[flat_id];
      if (indexed.accepted != walked.accepted) {
        index_fail(DescribeQuery(scenario, q) +
                   " admission diverged — indexed accepted=" +
                   std::to_string(indexed.accepted) + ", flat accepted=" +
                   std::to_string(walked.accepted));
        continue;
      }
      if (indexed.plan.inputs.size() != walked.plan.inputs.size()) {
        index_fail(DescribeQuery(scenario, q) + " chose " +
                   std::to_string(indexed.plan.inputs.size()) +
                   " input plans indexed vs " +
                   std::to_string(walked.plan.inputs.size()) + " flat");
        continue;
      }
      for (size_t i = 0; i < indexed.plan.inputs.size(); ++i) {
        const sharing::InputPlan& a = indexed.plan.inputs[i];
        const sharing::InputPlan& b = walked.plan.inputs[i];
        // Both runs cost identical plans with identical arithmetic, so
        // C(P) must agree to the bit, not just within tolerance.
        if (a.reused_stream != b.reused_stream ||
            a.reuse_node != b.reuse_node ||
            a.widening.has_value() != b.widening.has_value() ||
            a.cost != b.cost || a.feasible != b.feasible) {
          index_fail(
              DescribeQuery(scenario, q) + " input " + a.input_stream_name +
              ": chosen plan diverged — indexed reuses stream " +
              std::to_string(a.reused_stream) + " at node " +
              std::to_string(a.reuse_node) + " C(P)=" +
              std::to_string(a.cost) + ", flat reuses stream " +
              std::to_string(b.reused_stream) + " at node " +
              std::to_string(b.reuse_node) + " C(P)=" +
              std::to_string(b.cost));
        }
      }
      if (indexed.search.candidates_examined >
          walked.search.candidates_examined) {
        index_fail(DescribeQuery(scenario, q) + ": indexed lookup examined " +
                   std::to_string(indexed.search.candidates_examined) +
                   " candidates, more than the flat walk's " +
                   std::to_string(walked.search.candidates_examined));
      }
      std::set<std::tuple<std::string, network::StreamId,
                          network::NodeId, bool>>
          flat_candidates;
      for (const sharing::CandidatePlanInfo& candidate :
           walked.search.candidates) {
        flat_candidates.emplace(candidate.input_stream,
                                candidate.reused_stream,
                                candidate.reuse_node, candidate.widening);
      }
      for (const sharing::CandidatePlanInfo& candidate :
           indexed.search.candidates) {
        if (flat_candidates.count({candidate.input_stream,
                                   candidate.reused_stream,
                                   candidate.reuse_node,
                                   candidate.widening}) == 0) {
          index_fail(DescribeQuery(scenario, q) +
                     ": indexed search generated a candidate the flat "
                     "walk never saw — stream " +
                     std::to_string(candidate.reused_stream) + " at node " +
                     std::to_string(candidate.reuse_node));
        }
      }
    }
    SS_RETURN_IF_ERROR(flat.system->Run(items).WithContext("serial-flat"));
    ModeObservation flat_mode;
    flat_mode.mode = "serial-flat-bfs";
    Observe(flat, &flat_mode);
    for (size_t q = 0; q < flat_mode.queries.size(); ++q) {
      if (!SameObservation(reference_mode.queries[q],
                           flat_mode.queries[q])) {
        index_fail("results diverged on " + DescribeQuery(scenario, q) +
                   " — indexed " +
                   ObservationString(reference_mode.queries[q]) +
                   ", flat " + ObservationString(flat_mode.queries[q]));
      }
    }
    report.modes.push_back(std::move(flat_mode));
  }

  // --- Recovery oracle: replay with churn and diff the epochs. ----------
  if (!scenario.churn.empty()) {
    report.churn_events = static_cast<int>(scenario.churn.size());
    auto recovery_fail = [&](std::string message) {
      report.recovery_ok = false;
      fail("recovery oracle: " + std::move(message));
    };

    struct ChurnSpec {
      const char* name;
      ExecutorKind executor;
      /// Disable the candidate index (the flat-BFS churn differential:
      /// install/GC/recovery index maintenance must keep planning
      /// outcomes identical through failures).
      bool flat = false;
    };
    std::vector<ChurnSpec> churn_specs = {
        {"serial+churn", ExecutorKind::kSerial}};
    if (options.run_loopback) {
      churn_specs.push_back(
          {"transport-loopback+churn", ExecutorKind::kLoopback});
    }
    if (options.run_tcp) {
      churn_specs.push_back({"transport-tcp+churn", ExecutorKind::kTcp});
    }
    if (options.run_flat_bfs) {
      churn_specs.push_back(
          {"serial-flat+churn", ExecutorKind::kSerial, true});
    }

    std::vector<ChurnRun> runs;
    for (const ChurnSpec& churn_spec : churn_specs) {
      SystemConfig config;
      config.executor = churn_spec.executor;
      config.record_path = options.record_path &&
                           churn_spec.executor != ExecutorKind::kSerial;
      config.candidate_index = !churn_spec.flat;
      SS_ASSIGN_OR_RETURN(
          ChurnRun run,
          RunChurned(scenario, spec, items, config, churn_spec.name,
                     options));
      if (!options.inject_churn_mode.empty() &&
          options.inject_churn_mode == churn_spec.name) {
        // Planted recovery bug (self-test): the mode under-reports — a
        // failure that only exists while churn events remain, so the
        // shrinker must preserve them.
        for (QueryObservation& query : run.final_mode.queries) {
          if (query.items > 0) {
            query.items -= 1;
            query.content_hash ^= 0xBADC0DEull;
          }
        }
      }
      report.modes.push_back(run.final_mode);
      runs.push_back(std::move(run));
    }

    const ChurnRun& serial_churn = runs.front();
    for (const recover::RecoveryReport& event : serial_churn.reports) {
      report.churn_replans += static_cast<int>(event.replans);
      report.churn_lost +=
          static_cast<int>(event.lost_queries + event.dead_targets);
    }

    // (i) Cross-mode agreement: final sinks, every post-recovery epoch
    // snapshot, and the recovery outcomes themselves.
    for (size_t m = 1; m < runs.size(); ++m) {
      const ChurnRun& other = runs[m];
      const std::string& mode = other.final_mode.mode;
      // A flat-BFS churn divergence is an index violation (the indexed
      // serial run is the arm under test), not a recovery bug.
      const bool flat_arm = mode.find("flat") != std::string::npos;
      auto churn_fail = [&](std::string message) {
        if (flat_arm) {
          report.index_ok = false;
          fail("index oracle: " + std::move(message));
        } else {
          recovery_fail(std::move(message));
        }
      };
      for (size_t q = 0; q < scenario.queries.size(); ++q) {
        if (!SameObservation(serial_churn.final_mode.queries[q],
                             other.final_mode.queries[q])) {
          churn_fail(
              mode + " diverged from serial+churn on " +
              DescribeQuery(scenario, q) + " — serial " +
              ObservationString(serial_churn.final_mode.queries[q]) +
              ", " + mode + " " +
              ObservationString(other.final_mode.queries[q]));
        }
      }
      for (size_t j = 0; j < serial_churn.after_event.size() &&
                         j < other.after_event.size();
           ++j) {
        for (size_t q = 0; q < scenario.queries.size(); ++q) {
          if (!SameObservation(serial_churn.after_event[j][q],
                               other.after_event[j][q])) {
            churn_fail(mode + ": post-recovery snapshot of event " +
                          std::to_string(j) + " diverged on " +
                          DescribeQuery(scenario, q));
          }
        }
      }
      if (other.reports.size() != serial_churn.reports.size()) {
        churn_fail(mode + ": recovered " +
                      std::to_string(other.reports.size()) +
                      " events, serial+churn recovered " +
                      std::to_string(serial_churn.reports.size()));
        continue;
      }
      for (size_t j = 0; j < serial_churn.reports.size(); ++j) {
        const auto& expected = serial_churn.reports[j].queries;
        const auto& actual = other.reports[j].queries;
        bool same = expected.size() == actual.size();
        for (size_t k = 0; same && k < expected.size(); ++k) {
          same = expected[k].query_id == actual[k].query_id &&
                 expected[k].outcome == actual[k].outcome;
        }
        if (!same) {
          churn_fail(mode + ": recovery outcomes of event " +
                        std::to_string(j) +
                        " diverged from serial+churn");
        }
      }
    }

    // Classify every query from the serial churned run's reports: touched
    // by any event, torn down at some event, re-planned at the last one.
    const size_t query_count = scenario.queries.size();
    std::vector<bool> affected(query_count, false);
    std::vector<bool> final_replanned(query_count, false);
    std::vector<int> terminal_event(query_count, -1);
    std::map<int, size_t> by_query_id;
    for (size_t q = 0; q < query_count; ++q) {
      if (serial_churn.registration_index[q] >= 0) {
        by_query_id[serial_churn.registration_index[q]] = q;
      }
    }
    for (size_t j = 0; j < serial_churn.reports.size(); ++j) {
      for (const recover::QueryRecovery& rec :
           serial_churn.reports[j].queries) {
        auto it = by_query_id.find(rec.query_id);
        if (it == by_query_id.end()) continue;
        size_t q = it->second;
        affected[q] = true;
        if (rec.outcome != recover::QueryRecovery::Outcome::kReplanned &&
            terminal_event[q] < 0) {
          terminal_event[q] = static_cast<int>(j);
        }
        if (j + 1 == serial_churn.reports.size()) {
          final_replanned[q] =
              rec.outcome == recover::QueryRecovery::Outcome::kReplanned;
        }
      }
    }

    // (ii) Subscriptions no failure touched must match the no-failure
    // reference bit for bit.
    for (size_t q = 0; q < query_count; ++q) {
      if (affected[q] || serial_churn.registration_index[q] < 0) continue;
      if (!SameObservation(serial_churn.final_mode.queries[q],
                           reference_mode.queries[q])) {
        recovery_fail(
            "untouched " + DescribeQuery(scenario, q) +
            " diverged from the no-failure reference — churned " +
            ObservationString(serial_churn.final_mode.queries[q]) +
            ", reference " +
            ObservationString(reference_mode.queries[q]));
      }
    }

    // (iii) Torn-down subscriptions (dead target, no surviving plan) must
    // emit nothing after their terminal event.
    for (size_t q = 0; q < query_count; ++q) {
      if (terminal_event[q] < 0) continue;
      const QueryObservation& at_teardown =
          serial_churn.after_event[terminal_event[q]][q];
      const QueryObservation& final_obs =
          serial_churn.final_mode.queries[q];
      if (final_obs.items != at_teardown.items ||
          final_obs.content_hash != at_teardown.content_hash) {
        recovery_fail("torn-down " + DescribeQuery(scenario, q) +
                      " kept producing after event " +
                      std::to_string(terminal_event[q]) + " — at teardown " +
                      ObservationString(at_teardown) + ", final " +
                      ObservationString(final_obs));
      }
    }

    // (iv) Gap, not garbage: a subscription re-planned at the last event
    // must produce post-recovery output item-identical to a fresh run
    // that never saw a failure — same damaged topology, resume-mode
    // deployment, fed only the post-recovery items. Counts, bytes and the
    // additive content hash all subtract across the epoch boundary.
    bool any_final_replan = false;
    for (size_t q = 0; q < query_count; ++q) {
      any_final_replan = any_final_replan || final_replanned[q];
    }
    if (any_final_replan) {
      SystemConfig restricted_config;
      restricted_config.resume_mode = true;
      restricted_config.record_path = false;  // pure DOM reference
      SS_ASSIGN_OR_RETURN(
          BuiltSystem restricted,
          BuildAndRegister(spec, sharing::Strategy::kStreamSharing,
                           restricted_config, options));
      // The same walk as the churned runs, but the items before the last
      // event (in walk order) are never fed: the fresh run starts there.
      workload::ChurnWalk walk(scenario.churn, scenario.items_per_stream);
      const size_t resume_from = walk.last_offset();
      auto feed = [&](size_t from, size_t to) -> Status {
        if (from < resume_from) return Status::Ok();
        return restricted.system->Feed(workload::SliceItems(items, from, to));
      };
      auto apply = [&](const workload::ChurnEvent& event) {
        return workload::ApplyChurn(restricted.system.get(), event);
      };
      SS_RETURN_IF_ERROR(walk.RunToEnd(feed, apply)
                             .WithContext("restricted reference"));
      SS_RETURN_IF_ERROR(restricted.system->Shutdown().WithContext(
          "restricted reference"));
      ModeObservation restricted_mode;
      restricted_mode.mode = "restricted-reference";
      Observe(restricted, &restricted_mode);

      const std::vector<QueryObservation>& last_snapshot =
          serial_churn.after_event.back();
      for (size_t q = 0; q < query_count; ++q) {
        if (!final_replanned[q]) continue;
        const QueryObservation& final_obs =
            serial_churn.final_mode.queries[q];
        const QueryObservation& snap = last_snapshot[q];
        QueryObservation delta;
        delta.items = final_obs.items - snap.items;
        delta.bytes = final_obs.bytes - snap.bytes;
        delta.content_hash = final_obs.content_hash - snap.content_hash;
        const QueryObservation& fresh = restricted_mode.queries[q];
        if (delta.items != fresh.items || delta.bytes != fresh.bytes ||
            delta.content_hash != fresh.content_hash) {
          recovery_fail(
              "re-planned " + DescribeQuery(scenario, q) +
              " is not gap-clean — post-recovery delta " +
              ObservationString(delta) + ", fresh restricted run " +
              ObservationString(fresh));
        }
      }
    }
  }

  // --- Serve arm: the same scenario hosted by a live daemon, every
  // subscription installed over the CONTROL plane, every delivery
  // accumulated client-side from RESULT frames over real TCP. The diff
  // target is the serial reference — or, when the scenario churns, the
  // serial churned run, since the daemon applies the same events through
  // its FailPeer/CutLink verbs. ----------------------------------------
  if (options.run_serve) {
    bool registration_errors = false;
    for (const QueryObservation& query : reference_mode.queries) {
      registration_errors =
          registration_errors || !query.registration_error.empty();
    }
    // A subscription the planner cannot even parse comes back from the
    // daemon as a failed call, not an observation; nothing to diff.
    if (!registration_errors) {
      serve::ServeRunOptions serve_options;
      serve_options.items_per_stream = scenario.items_per_stream;
      serve_options.feed_chunk = 13;  // ragged on purpose
      serve_options.system.record_path = options.record_path;
      serve_options.churn = scenario.churn;
      SS_ASSIGN_OR_RETURN(
          serve::ServeRunReport serve_run,
          serve::RunScenarioThroughDaemon(spec, serve_options));

      const char* expected_name =
          scenario.churn.empty() ? "serial" : "serial+churn";
      const std::vector<QueryObservation>* expected =
          &reference_mode.queries;
      for (const ModeObservation& mode : report.modes) {
        if (mode.mode == expected_name) expected = &mode.queries;
      }

      ModeObservation serve_mode;
      serve_mode.mode = "serve";
      for (const serve::ServeQueryObservation& observed :
           serve_run.queries) {
        QueryObservation query;
        query.accepted = observed.accepted;
        query.items = observed.items;
        query.bytes = observed.bytes;
        query.content_hash = observed.content_hash;
        serve_mode.queries.push_back(std::move(query));
      }

      if (serve_mode.queries.size() != expected->size()) {
        report.serve_ok = false;
        fail("serve arm: daemon answered " +
             std::to_string(serve_mode.queries.size()) +
             " subscriptions for " + std::to_string(expected->size()) +
             " queries");
      } else {
        for (size_t q = 0; q < expected->size(); ++q) {
          if ((*expected)[q].accepted != serve_mode.queries[q].accepted) {
            report.serve_ok = false;
            fail("serve arm: admission outcome diverged on " +
                 DescribeQuery(scenario, q) + " — " + expected_name +
                 " accepted=" +
                 std::to_string((*expected)[q].accepted) + ", serve " +
                 std::to_string(serve_mode.queries[q].accepted));
            continue;
          }
          if (!SameObservation((*expected)[q], serve_mode.queries[q])) {
            report.serve_ok = false;
            fail("serve arm: deliveries diverged on " +
                 DescribeQuery(scenario, q) + " — " + expected_name +
                 " " + ObservationString((*expected)[q]) + ", serve " +
                 ObservationString(serve_mode.queries[q]));
          }
        }
      }
      // Appended only now: `expected` may point into report.modes.
      report.modes.push_back(std::move(serve_mode));
    }
  }

  // --- Crash arm: the serve workload again, but the daemon lives in a
  // forked child armed with seed-derived crashpoints that SIGKILL it
  // mid-operation; every life recovers from checkpoint + WAL and the
  // run completes across however many deaths it takes. The recovered
  // history must equal the same reference the serve arm diffs against —
  // a crash indistinguishable from a drain for acked operations. -------
  if (options.run_crash) {
    bool registration_errors = false;
    for (const QueryObservation& query : reference_mode.queries) {
      registration_errors =
          registration_errors || !query.registration_error.empty();
    }
    if (!registration_errors) {
      serve::CrashRunOptions crash_options;
      crash_options.items_per_stream = scenario.items_per_stream;
      crash_options.feed_chunk = 13;
      crash_options.system.record_path = options.record_path;
      crash_options.churn = scenario.churn;
      // Derive which lives die where from the scenario seed: 1-3 armed
      // lives, each at a seed-chosen crashpoint, hit counts 1-4 so the
      // same point can pass a few times before firing (startup folds hit
      // checkpoint points once per recovery).
      const std::vector<std::string>& points =
          serve::crashpoint::AllPoints();
      DetRng crash_rng(scenario.seed ^ 0xc4a5ed0ull);
      int armed = static_cast<int>(crash_rng.Between(1, 3));
      for (int i = 0; i < armed; ++i) {
        const std::string& point = points[crash_rng.Below(points.size())];
        int hits = static_cast<int>(crash_rng.Between(1, 4));
        crash_options.crash_specs.push_back(point + ":" +
                                            std::to_string(hits));
      }
      char state_template[] = "/tmp/ss-crash-XXXXXX";
      char* state_dir = ::mkdtemp(state_template);
      if (state_dir == nullptr) {
        return Status::Internal("mkdtemp failed for the crash arm");
      }
      crash_options.state_dir = state_dir;
      Result<serve::CrashRunReport> crash_run =
          serve::RunCrashScenario(spec, crash_options);
      std::remove((crash_options.state_dir + "/checkpoint").c_str());
      std::remove(
          serve::DefaultWalPath(crash_options.state_dir + "/checkpoint")
              .c_str());
      ::rmdir(state_dir);
      SS_RETURN_IF_ERROR(crash_run.status());
      report.crash_lives = crash_run->lives;
      report.crash_crashes = crash_run->crashes;

      const char* expected_name =
          scenario.churn.empty() ? "serial" : "serial+churn";
      const std::vector<QueryObservation>* expected =
          &reference_mode.queries;
      for (const ModeObservation& mode : report.modes) {
        if (mode.mode == expected_name) expected = &mode.queries;
      }

      ModeObservation crash_mode;
      crash_mode.mode = "crash";
      for (const serve::ServeQueryObservation& observed :
           crash_run->queries) {
        QueryObservation query;
        query.accepted = observed.accepted;
        query.items = observed.items;
        query.bytes = observed.bytes;
        query.content_hash = observed.content_hash;
        crash_mode.queries.push_back(std::move(query));
      }

      if (crash_mode.queries.size() != expected->size()) {
        report.crash_ok = false;
        fail("crash arm: recovered daemon answered " +
             std::to_string(crash_mode.queries.size()) +
             " subscriptions for " + std::to_string(expected->size()) +
             " queries (" + std::to_string(crash_run->crashes) +
             " crashes over " + std::to_string(crash_run->lives) +
             " lives)");
      } else {
        for (size_t q = 0; q < expected->size(); ++q) {
          if ((*expected)[q].accepted != crash_mode.queries[q].accepted) {
            report.crash_ok = false;
            fail("crash arm: admission outcome diverged on " +
                 DescribeQuery(scenario, q) + " — " + expected_name +
                 " accepted=" +
                 std::to_string((*expected)[q].accepted) + ", recovered " +
                 std::to_string(crash_mode.queries[q].accepted) + " (" +
                 std::to_string(crash_run->crashes) + " crashes over " +
                 std::to_string(crash_run->lives) + " lives)");
            continue;
          }
          if (!SameObservation((*expected)[q], crash_mode.queries[q])) {
            report.crash_ok = false;
            fail("crash arm: recovered history diverged on " +
                 DescribeQuery(scenario, q) + " — " + expected_name + " " +
                 ObservationString((*expected)[q]) + ", recovered " +
                 ObservationString(crash_mode.queries[q]) + " (" +
                 std::to_string(crash_run->crashes) + " crashes over " +
                 std::to_string(crash_run->lives) + " lives)");
          }
        }
      }
      // Appended only now: `expected` may point into report.modes.
      report.modes.push_back(std::move(crash_mode));
    }
  }

  if (options.metrics != nullptr) {
    options.metrics->GetCounter("fuzz.scenarios")->Add(1);
    options.metrics->GetCounter("fuzz.queries")
        ->Add(scenario.queries.size());
    // Coverage: what the scenario actually exercised, so a sweep's totals
    // show the harness built and observed the same systems.
    options.metrics->GetCounter("fuzz.accepted")->Add(report.accepted);
    options.metrics->GetCounter("fuzz.results")->Add(report.total_results);
    options.metrics->GetCounter("fuzz.shared_reuses")
        ->Add(report.shared_reuses);
    options.metrics->GetCounter("fuzz.churn_replans")
        ->Add(report.churn_replans);
    options.metrics->GetCounter("fuzz.churn_lost")->Add(report.churn_lost);
    options.metrics->GetCounter("fuzz.stamped_results")
        ->Add(report.stamped_results);
    if (!report.equivalence_ok) {
      options.metrics->GetCounter("fuzz.divergences")->Add(1);
    }
    if (!report.sharing_ok) {
      options.metrics->GetCounter("fuzz.sharing_violations")->Add(1);
    }
    if (!report.recovery_ok) {
      options.metrics->GetCounter("fuzz.recovery_violations")->Add(1);
    }
    if (!report.latency_ok) {
      options.metrics->GetCounter("fuzz.latency_violations")->Add(1);
    }
    if (!report.serve_ok) {
      options.metrics->GetCounter("fuzz.serve_violations")->Add(1);
    }
    if (!report.crash_ok) {
      options.metrics->GetCounter("fuzz.crash_violations")->Add(1);
    }
    if (!report.index_ok) {
      options.metrics->GetCounter("fuzz.index_violations")->Add(1);
    }
  }
  return report;
}

}  // namespace streamshare::testing
