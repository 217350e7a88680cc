// Query evaluation plans (the P of Algorithm 1): which stream to reuse at
// which node, which operators to install where, which new stream to route
// through the network, and what that costs. Plans are pure descriptions —
// deployment into the engine happens in StreamShareSystem after the
// winning plan is chosen.

#ifndef STREAMSHARE_SHARING_PLAN_H_
#define STREAMSHARE_SHARING_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "network/stream_registry.h"
#include "network/topology.h"
#include "predicate/atomic.h"
#include "properties/operators.h"
#include "properties/window.h"
#include "xml/path.h"

namespace streamshare::sharing {

/// One executable operator the plan installs, with its placement.
struct EngineOpSpec {
  enum class Kind {
    kSelect,          // σ on items
    kProject,         // Π on items
    kWindowAgg,       // window aggregation over items
    kAggCombine,      // recombination of a finer aggregate stream (Fig. 5)
    kAggFilter,       // result filter on aggregate values
    kWindowContents,  // materialization of window contents (no aggregate)
  };

  Kind kind;
  network::NodeId node = -1;
  /// Compensation operators belong to a query's private chain behind the
  /// shared stream (they re-enforce the query's own predicates so that
  /// widening the stream upstream never changes delivered results); they
  /// deploy after the stream's registered tap points regardless of node.
  bool compensation = false;

  // Parameters (used per kind):
  std::vector<predicate::AtomicPredicate> predicates;  // select, aggfilter
  std::vector<xml::Path> output_paths;                 // project
  properties::AggregateFunc func = properties::AggregateFunc::kAvg;
  xml::Path aggregated_element;      // windowagg
  properties::WindowSpec window;      // windowagg / combine target
  properties::WindowSpec fine_window; // combine source

  std::string ToString() const;
};

/// The new shareable stream a plan creates (absent when the plan taps an
/// existing stream at the target node without transforming it).
struct NewStreamSpec {
  /// Content description (registered in the stream registry on deploy).
  properties::InputStreamProperties props;
  network::NodeId source_node = -1;
  network::NodeId target_node = -1;
  std::vector<network::NodeId> route;  // source..target inclusive
  /// Estimated rate, for availability accounting.
  double rate_kbps = 0.0;
};

/// In-place modification of an already-deployed stream so that it regains
/// the data a new subscription needs — the stream-widening extension
/// (paper §6). The stream's selection is relaxed to the DBM join of the
/// old and the new predicates, and its projection keeps the union of the
/// old and the new paths; every consumer re-filters behind its own
/// compensation operators, so widening only ever *adds* items upstream.
struct WideningSpec {
  network::StreamId stream = -1;
  /// The stream's content description after widening.
  properties::InputStreamProperties widened_props;
  /// New predicates / output paths for the deployed σ / Π operators. An
  /// output consisting of the single empty path keeps whole items.
  std::vector<predicate::AtomicPredicate> widened_selection;
  std::vector<xml::Path> widened_output;
  /// Rate/frequency before and after widening; the deltas are billed to
  /// the stream's existing route.
  double old_rate_kbps = 0.0;
  double new_rate_kbps = 0.0;
  double old_freq_hz = 0.0;
  double new_freq_hz = 0.0;
};

/// What Algorithm 1's search settled on for one input stream: the kind of
/// plan, the stream it reuses and the node it taps. The rest of the
/// InputPlan (operators, new stream, C(P), resource deltas) is a pure
/// function of this choice and the system state it was made in, so
/// Planner::Build turns it back into the identical plan without
/// searching — the daemon logs it with every registration and recovery
/// rebuilds from it (ARCHITECTURE.md invariant 12).
struct PlanChoice {
  enum class Kind : uint8_t {
    kShipRaw = 0,  // the original stream shipped raw to the query's peer
    kTap = 1,      // tap `stream` at `node`, residual operators there
    kWiden = 2,    // widen deployed `stream`, then tap it at `node`
  };
  Kind kind = Kind::kShipRaw;
  network::StreamId stream = -1;
  network::NodeId node = -1;

  bool operator==(const PlanChoice&) const = default;
};

/// Plan for answering one input stream of a subscription.
struct InputPlan {
  std::string input_stream_name;
  /// The stream chosen for reuse and the node where it is tapped.
  network::StreamId reused_stream = -1;
  network::NodeId reuse_node = -1;
  /// Set when the reused stream must first be widened.
  std::optional<WideningSpec> widening;
  /// Operators to install (chain order; nodes are reuse_node or the
  /// query's target node).
  std::vector<EngineOpSpec> ops;
  std::optional<NewStreamSpec> new_stream;
  /// Whether the flow routed over new_stream.route is the raw reused
  /// stream (data shipping) rather than the transformed one.
  bool ships_raw_stream = false;

  double cost = 0.0;
  bool feasible = true;
  /// Estimated one-way delivery latency (ms) from the original data
  /// source through the reused stream chain to the query's super-peer.
  double estimated_latency_ms = 0.0;

  /// Resource deltas this plan commits on deployment.
  std::vector<std::pair<network::LinkId, double>> added_bandwidth_kbps;
  std::vector<std::pair<network::NodeId, double>> added_load;

  /// The choice this plan realizes (Planner::Build rebuilds it).
  PlanChoice Choice() const;
  std::string ToString() const;
};

/// The full evaluation plan of a subscription (one entry per input).
struct EvaluationPlan {
  std::vector<InputPlan> inputs;

  double TotalCost() const;
  bool Feasible() const;
  /// One choice per input, in input order.
  std::vector<PlanChoice> Choices() const;
  std::string ToString() const;
};

/// Base load factor bload(o) for an engine operator kind.
double BaseLoadFor(EngineOpSpec::Kind kind, const cost::CostParams& params);

}  // namespace streamshare::sharing

#endif  // STREAMSHARE_SHARING_PLAN_H_
