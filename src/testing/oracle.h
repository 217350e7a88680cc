// The differential oracle. One scenario is executed two ways — the
// serial reference on DOM slots and the serial record path — and every
// query's sink observations (item count, byte count, order-insensitive
// content hash) are N-way diffed. Separately the *sharing* oracle checks
// the paper's core claim: the stream-sharing deployment delivers
// item-identical results to an independent data-shipping evaluation of
// the same subscriptions, and the plan Subscribe chose never costs more
// than the no-sharing baseline plan it was allowed to fall back to.
//
// Scenarios carrying churn events additionally exercise the *recovery*
// oracle: the same workload is replayed with peers killed / links cut at
// fixed item offsets (on DOM slots and on the record path), and the
// invariant is "gap, not garbage" — every subscription re-planned at the
// last failure must produce post-recovery output item-identical to a
// fresh no-failure run restricted to the post-recovery epochs, every
// untouched subscription must match the clean reference exactly, and
// every torn-down subscription must emit nothing after its terminal
// event.
//
// A divergence is a report, not an error Status: Status is reserved for
// infrastructure failures (a scenario that cannot even be built), so a
// sweep can distinguish "the system disagrees with itself" from "the
// harness broke".

#ifndef STREAMSHARE_TESTING_ORACLE_H_
#define STREAMSHARE_TESTING_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "testing/fuzz_scenario.h"

namespace streamshare::testing {

/// What one execution mode observed at one query's sink.
struct QueryObservation {
  bool accepted = false;
  std::string registration_error;  // non-empty if RegisterQuery failed
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t content_hash = 0;
};

struct ModeObservation {
  std::string mode;
  std::vector<QueryObservation> queries;
};

struct OracleOptions {
  /// Serve arm: run the scenario through a live streamshare_serve daemon
  /// + client over localhost TCP (subscriptions via the CONTROL plane,
  /// deliveries via RESULT frames) and diff the client-side accumulation
  /// against the serial reference — churned scenarios diff against the
  /// serial churned run. Real sockets make it the slowest arm, so the
  /// fuzz tool gates it behind --serve.
  bool run_serve = false;

  /// Crash-durability arm: run the scenario through a daemon hosted in a
  /// forked child that SIGKILLs itself at crashpoints derived from the
  /// scenario seed (serve/crashpoint.h), recover each life from
  /// checkpoint + write-ahead log, and diff the client's accumulated
  /// deliveries against the same serial reference the serve arm uses.
  /// The invariant is ARCHITECTURE.md invariant 11: a crash is
  /// indistinguishable from a drain for every acknowledged operation.
  /// Forks real processes, so the fuzz tool gates it behind --crash.
  bool run_crash = false;

  /// Index-vs-BFS differential arm: replay the scenario on a serial
  /// system with the candidate index disabled (the flat per-node registry
  /// walk is Algorithm 1's oracle form) and demand identical planning
  /// outcomes — same acceptance, same reused stream / reuse node /
  /// widening / C(P) per input — and identical sink results. Scenarios
  /// with churn events additionally replay the churned run flat and diff
  /// final observations plus recovery outcomes (ARCHITECTURE.md
  /// invariant 10: the index never changes planning outcomes, only the
  /// set of candidates examined). The arm also rebuilds every indexed
  /// registration from its plan choices on a fresh system, as recovery
  /// does, and demands the searched plan and results back with no
  /// candidate examined (invariant 12).
  bool run_flat_bfs = false;

  /// Self-test hook: perturbs the named mode's observed content hash and
  /// item count for aggregation queries with window size >= min_window —
  /// a deliberately injected equivalence bug the harness must catch and
  /// shrink (tests/test_fuzz_harness.cc demos this).
  std::string inject_divergence_mode;
  int inject_min_window = 0;

  /// Self-test hook for the recovery oracle: perturbs the named *churned*
  /// mode's final observations, a planted recovery bug that only
  /// reproduces while churn events remain — the shrinker must keep them.
  std::string inject_churn_mode;

  /// Drive the serial-record modes (serial-record, serial-record+churn)
  /// and the serve/crash arms over the compact-record hot path
  /// (default). The serial reference always evaluates on DOM trees, so
  /// with this on the serial-record diffs are the DOM-vs-record
  /// differential. Off (the fuzz tool's --dom-path), every mode feeds
  /// opaque DOM slots through the same batch execution path.
  bool record_path = true;

  /// When set, per-scenario divergence counters are folded in:
  /// fuzz.scenarios, fuzz.queries, fuzz.divergences,
  /// fuzz.sharing_violations, fuzz.recovery_violations,
  /// fuzz.index_violations, fuzz.infra_failures; and the coverage
  /// totals fuzz.accepted, fuzz.results, fuzz.shared_reuses,
  /// fuzz.churn_replans, fuzz.churn_lost, fuzz.stamped_results.
  obs::MetricsRegistry* metrics = nullptr;
};

struct OracleReport {
  /// Every mode agreed with the serial reference.
  bool equivalence_ok = true;
  /// Sharing-vs-baseline results identical and chosen C(P) <= baseline.
  bool sharing_ok = true;
  /// Recovery invariants held under the scenario's churn events: all
  /// churned modes agreed, subscriptions untouched by any failure matched
  /// the no-failure reference exactly, subscriptions re-planned at the
  /// last failure produced post-recovery output item-identical to a fresh
  /// restricted (resume-mode) run, and torn-down subscriptions emitted
  /// nothing after their terminal event. Vacuously true without churn.
  bool recovery_ok = true;
  /// Latency-plane invariants held: a serial run with stamping disabled
  /// is bit-identical (counts, bytes, content hashes) to the stamped
  /// serial reference — stamping changes metrics, never results — and
  /// the stamped reference observed no ingress-tick regression at any
  /// sink (serial feeding is ordered, so measured stamps must be
  /// monotone non-decreasing).
  bool latency_ok = true;
  /// The serve arm's client-side deliveries (counts, bytes, content
  /// hashes and admission outcomes, accumulated over real TCP) matched
  /// the in-process reference for the same scenario. Vacuously true when
  /// the arm is disabled or the scenario has registration errors (the
  /// serve client surfaces those as call failures, not observations).
  bool serve_ok = true;
  /// The crash arm's recovered history (accumulated across however many
  /// kill-9/restart rounds the armed crashpoints caused) matched the
  /// uninterrupted reference byte-for-byte. Vacuously true when the arm
  /// is disabled or skipped (registration errors).
  bool crash_ok = true;
  /// The indexed run and the flat-BFS run planned identically (chosen
  /// plans, acceptance, C(P)) and delivered identical results, clean and
  /// churned, and every registration rebuilt from its plan choices
  /// equalled the searched one. Vacuously true when the arm is disabled.
  bool index_ok = true;
  /// First divergence, human-readable; empty when ok().
  std::string failure;

  std::vector<ModeObservation> modes;
  int accepted = 0;
  uint64_t total_results = 0;
  /// Registrations whose chosen plan reuses a derived (non-original)
  /// stream — how much sharing the scenario actually exercised.
  int shared_reuses = 0;
  /// Churn events the scenario replayed, and how many subscriptions the
  /// recovery runs re-planned / lost across them (serial churned run).
  int churn_events = 0;
  int churn_replans = 0;
  int churn_lost = 0;
  /// Results the stamped serial reference measured latency for (0 when a
  /// scenario delivered nothing; otherwise every delivered item carried
  /// its stamp to the sink).
  uint64_t stamped_results = 0;

  /// Daemon lives / confirmed SIGKILL deaths the crash arm spanned (0
  /// when the arm is off).
  uint64_t crash_lives = 0;
  uint64_t crash_crashes = 0;

  bool ok() const {
    return equivalence_ok && sharing_ok && recovery_ok && latency_ok &&
           serve_ok && crash_ok && index_ok;
  }
};

/// Executes the scenario under every enabled mode and diffs. Status errors
/// are infrastructure failures only; divergences come back in the report.
Result<OracleReport> RunOracle(const FuzzScenario& scenario,
                               const OracleOptions& options = {});

}  // namespace streamshare::testing

#endif  // STREAMSHARE_TESTING_ORACLE_H_
