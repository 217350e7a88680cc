// Predicted-vs-measured latency audit (the cost-model feedback loop).
//
// Planning estimates a one-way delivery latency for every input it wires
// (InputPlan::estimated_latency_ms, from link latencies along the reuse
// chain). The measured-latency plane (engine/latency.h) independently
// measures what actually happened: every item is stamped at ingress and
// its end-to-end latency recorded into the query sink's histogram. The
// audit pairs the two per query, so a systematic gap between the cost
// model and reality is a number in a metrics snapshot — not a hunch.
//
// Prediction and measurement deliberately measure different clocks: the
// prediction is modeled network propagation over the simulated topology,
// the measurement is real wall time through this process's operators.
// The audit's value is the trend (ratio
// stability across queries and runs), not absolute agreement.

#ifndef STREAMSHARE_SHARING_LATENCY_AUDIT_H_
#define STREAMSHARE_SHARING_LATENCY_AUDIT_H_

#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "sharing/system.h"

namespace streamshare::sharing {

/// One query's predicted-vs-measured pairing.
struct QueryLatencyAudit {
  int query_id = -1;
  /// The plan's estimate: max over the query's inputs (the slowest input
  /// gates a multi-input query's results).
  double predicted_ms = 0.0;
  /// Measured at the sink, bucket-interpolated from the e2e histogram.
  /// 0 when no stamped item reached the sink (stamping off, or no run).
  double measured_p50_ms = 0.0;
  double measured_p99_ms = 0.0;
  uint64_t stamped_items = 0;
  double abs_error_ms = 0.0;  ///< |measured_p50 - predicted|
  /// measured_p50 / predicted; 0 when predicted is 0 (co-located input).
  double ratio = 0.0;

  bool has_measurement() const { return stamped_items > 0; }
};

/// Pairs every accepted registration's plan estimate with its sink's
/// measured histogram. Rejected / torn-down queries are skipped.
std::vector<QueryLatencyAudit> CollectLatencyAudit(
    const std::vector<RegistrationResult>& registrations);

/// Exports audits as latency.audit.q<id>.{predicted_ms, measured_p50_ms,
/// measured_p99_ms, abs_error_ms, ratio} gauges.
void ExportLatencyAudit(const std::vector<QueryLatencyAudit>& audits,
                        obs::MetricsRegistry* registry);

/// Human-readable audit table (streamshare_sim --latency-report).
std::string FormatLatencyReport(
    const std::vector<QueryLatencyAudit>& audits);

}  // namespace streamshare::sharing

#endif  // STREAMSHARE_SHARING_LATENCY_AUDIT_H_
