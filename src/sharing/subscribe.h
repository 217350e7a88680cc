// Algorithm 1 (Subscribe) and plan generation. The Planner produces
// evaluation plans under the three strategies the paper evaluates:
//
//   * data shipping   — route the raw input stream to the query's node,
//                       evaluate everything there;
//   * query shipping  — evaluate everything at the stream's source node,
//                       route the result;
//   * stream sharing  — Algorithm 1: breadth-first search over the network
//                       for reusable (possibly preprocessed) streams,
//                       properties matching, cost-based plan choice,
//                       residual operators installed at the reuse node.
//
// Stream sharing runs in two steps. The search (Algorithm 1's BFS) costs
// every candidate and settles one PlanChoice per input; the build step
// turns a choice into its full InputPlan. A live Subscribe runs both; a
// replay of a logged registration runs only the build (Planner::Build),
// so recovery never searches (ARCHITECTURE.md invariant 12).
//
// One deviation from the paper's pseudo-code, documented in DESIGN.md: when
// a stream matches, we enqueue every node on its route (not only its target
// node) into LV — a stream is available along its whole route, and this is
// what lets Query 2 tap Query 1's stream at the intermediate super-peer SP5
// in the paper's own running example.

#ifndef STREAMSHARE_SHARING_SUBSCRIBE_H_
#define STREAMSHARE_SHARING_SUBSCRIBE_H_

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "matching/match_properties.h"
#include "network/state.h"
#include "network/stream_registry.h"
#include "network/topology.h"
#include "sharing/plan.h"
#include "wxquery/analyzer.h"

namespace streamshare::sharing {

struct PlannerOptions {
  matching::MatchOptions match_options;
  /// Algorithm 1's search pruning: only nodes reached via matching streams
  /// are explored. When false, the BFS also walks topology neighbors
  /// (ablation A1).
  bool prune_search = true;
  /// Stream widening (paper §6, future work): when a candidate stream
  /// does not contain everything a new subscription needs, consider
  /// relaxing the deployed stream's selection/projection so that it does,
  /// paying the bandwidth delta on its existing route. Every plain query
  /// then carries compensation operators in front of its restructuring
  /// step, so widening upstream never changes delivered results. Must be
  /// chosen for the lifetime of a system, not toggled per query.
  bool enable_widening = false;
  /// Restrict reuse to epoch-safe candidates: skip deployed streams that
  /// carry aggregation or window-contents operators, and skip widening.
  /// Failure recovery re-plans under this restriction so a query rebuilt
  /// mid-stream depends only on post-recovery items — a shared aggregate
  /// stream's in-flight windows may straddle the recovery point, which
  /// would break the gap-not-garbage guarantee (windowed residual ops
  /// are instead rebuilt fresh in resume mode).
  bool epoch_safe_only = false;
};

/// One plan the search generated and costed, in generation order. The
/// final choice per input is flagged `chosen`; the rest are the
/// alternatives it beat — the raw material of `--explain`.
struct CandidatePlanInfo {
  std::string input_stream;
  network::StreamId reused_stream = -1;
  network::NodeId reuse_node = -1;
  /// C(P) as computed by cost::CostModel (latency-weighted).
  double cost = 0.0;
  bool feasible = false;
  /// Plan widens a deployed stream (paper §6) before reusing it.
  bool widening = false;
  bool chosen = false;
  /// The no-sharing fallback (original stream shipped to vq, all
  /// evaluation there). Always recorded first per input; the
  /// differential oracle compares the chosen plan's C(P) against it.
  bool baseline = false;
};

/// Search-effort counters of one Subscribe run.
struct SearchStats {
  int nodes_visited = 0;
  int candidates_examined = 0;
  int candidates_matched = 0;
  int plans_generated = 0;
  /// Index-only counters (zero on the flat path): live streams the
  /// candidate index pruned by signature before MatchProperties ran, and
  /// dominated duplicates it collapsed into a group representative.
  int candidates_pruned = 0;
  int candidates_suppressed = 0;
  /// Every costed plan, including the initial ship-to-vq fallback.
  std::vector<CandidatePlanInfo> candidates;
};

class CandidateIndex;

class Planner {
 public:
  /// Scratch memo for one Subscribe input's BFS on the indexed path. Every
  /// entry is a pure function of (interned candidate shape, this input's
  /// binding and canonical properties, the tap node), so all candidates of
  /// one search share it; a hit returns the exact value the plain
  /// computation would, including error statuses — nothing here changes a
  /// planning outcome. The flat oracle path never uses one.
  struct PlanMemo {
    /// EstimateStream(reused.props), keyed by the candidate's shape.
    std::unordered_map<int, Result<cost::StreamEstimate>> reused_estimates;
    /// EstimateStream(sub_props) — the new stream every shared plan ships.
    std::optional<Result<cost::StreamEstimate>> sub_estimate;
    /// PropsEquivalent(reused.props, sub_props), keyed by shape.
    std::unordered_map<int, bool> equivalent;
    /// Selectivity of the residual σ — ResidualOps/BuildPlan emit kSelect
    /// only over binding.item_predicates, so one value serves every plan.
    std::optional<Result<double>> select_selectivity;
    /// WindowUpdateDivisor(binding.stream_name, *binding.window) — the
    /// only window ResidualOps installs as kWindowAgg/kWindowContents.
    std::optional<Result<double>> window_divisor;
    /// RoutePath(v, vq), keyed by tap node v (vq is fixed per search).
    std::unordered_map<network::NodeId,
                       Result<std::vector<network::NodeId>>>
        routes;
    /// LinksOnPath(route of RoutePath(v, vq)), keyed by tap node v.
    std::unordered_map<network::NodeId,
                       Result<std::vector<network::LinkId>>>
        route_links;
    /// PathLatencyMs(route of RoutePath(v, vq)), keyed by tap node v.
    std::unordered_map<network::NodeId, Result<double>> route_latency;
    /// The plan's operator chain, keyed by shape: residual ops built with
    /// the tap node left as -1 (CostPlan substitutes the candidate's
    /// reuse node) plus any compensation ops at vq. Memoized plans carry
    /// an empty `ops` vector and are scored against this template; the
    /// build step regenerates the one winning plan in full.
    std::unordered_map<int, Result<std::vector<EngineOpSpec>>>
        ops_template;
    /// Scratch for CostPlan's per-peer load accumulation (indexed by
    /// node id, reset via `touched_peers` between plans). Replaces a
    /// std::map on the memoized path; summation order is kept identical
    /// by draining touched peers in ascending node order.
    std::vector<double> load_scratch;
    std::vector<char> load_mark;
    std::vector<network::NodeId> touched_peers;
  };

  Planner(const network::Topology* topology,
          const network::NetworkState* state,
          const network::StreamRegistry* registry,
          const cost::CostModel* cost_model, PlannerOptions options)
      : topology_(topology),
        state_(state),
        registry_(registry),
        cost_model_(cost_model),
        options_(options) {}

  const network::StreamRegistry& registry() const { return *registry_; }

  /// Installs (or clears) the candidate index Subscribe consults instead
  /// of the flat per-node registry scan. The index must stay consistent
  /// with the registry (it subscribes to registry mutations); planning
  /// outcomes are identical either way — only the candidates examined
  /// change (ARCHITECTURE.md invariant 10).
  void set_candidate_index(const CandidateIndex* index) { index_ = index; }
  const CandidateIndex* candidate_index() const { return index_; }

  /// Algorithm 1. `vq` is the super-peer the query registers at. When
  /// `allowed_nodes` is non-null the breadth-first search only visits
  /// those peers (the hierarchical-subnet optimization restricts the
  /// search to the query's subnet plus the input's source); the initial
  /// plan — original stream to vq — is always available regardless.
  Result<EvaluationPlan> Subscribe(
      const wxquery::AnalyzedQuery& query, network::NodeId vq,
      SearchStats* stats = nullptr,
      const std::set<network::NodeId>* allowed_nodes = nullptr) const;

  /// The build step alone: the plan `choices` (one per query input, as
  /// EvaluationPlan::Choices returns them) describe, built exactly as
  /// Subscribe builds its winners. Against the system state a search ran
  /// in, Build(query, vq, searched.Choices()) equals the searched plan
  /// bit for bit. InvalidArgument when a choice does not fit that state
  /// (wrong input count, an unknown or retired stream, a node off the
  /// stream's route) — a logged choice replayed out of order.
  Result<EvaluationPlan> Build(const wxquery::AnalyzedQuery& query,
                               network::NodeId vq,
                               const std::vector<PlanChoice>& choices) const;

  /// Baseline: raw stream to vq, all evaluation at vq.
  Result<EvaluationPlan> DataShipping(const wxquery::AnalyzedQuery& query,
                                      network::NodeId vq) const;

  /// Baseline: all evaluation at the source super-peer, result to vq.
  Result<EvaluationPlan> QueryShipping(const wxquery::AnalyzedQuery& query,
                                       network::NodeId vq) const;

  /// generatePlan(p_b, v_b, v_q): plan reusing stream `reused` tapped at
  /// `v`, residual operators at `v`, result routed to `vq`.
  /// `shape`/`memo` (indexed BFS only) memoize the shape- and node-pure
  /// parts of plan generation across the candidates of one search; pass
  /// the defaults everywhere else.
  Result<InputPlan> GenerateSharedPlan(
      const network::RegisteredStream& reused, network::NodeId v,
      network::NodeId vq, const wxquery::StreamBinding& binding,
      const properties::InputStreamProperties& sub_props, int shape = -1,
      PlanMemo* memo = nullptr) const;

  /// Plan that first widens `narrow` (a deployed stream that does NOT
  /// match the subscription) so that it covers the subscription's needs,
  /// then reuses it at `v`. Fails with kUnsupported when the stream is
  /// not widenable (aggregate/window streams, originals, or an upstream
  /// that no longer covers the widened content).
  Result<InputPlan> GenerateWideningPlan(
      const network::RegisteredStream& narrow, network::NodeId v,
      network::NodeId vq, const wxquery::StreamBinding& binding,
      const properties::InputStreamProperties& sub_props) const;

 private:
  /// ShortestPath that routes around dead peers and down links (per
  /// state_->health()); identical to the plain path while all-healthy.
  Result<std::vector<network::NodeId>> RoutePath(network::NodeId from,
                                                 network::NodeId to) const;

  /// The binding's original stream, or NotFound (never registered) /
  /// Unavailable (its source failed).
  Result<const network::RegisteredStream*> LiveOriginal(
      const wxquery::StreamBinding& binding) const;

  /// Algorithm 1's initial plan (lines 3–6), also the data-shipping
  /// baseline: the original stream routed raw from its node to vq, all
  /// evaluation at vq.
  Result<InputPlan> ShipRawPlan(const network::RegisteredStream& original,
                                const wxquery::StreamBinding& binding,
                                network::NodeId vq) const;

  /// The build step for one input: the full, unmemoized InputPlan of
  /// `choice`.
  Result<InputPlan> BuildInput(
      const wxquery::StreamBinding& binding,
      const properties::InputStreamProperties& sub_props,
      network::NodeId vq, const PlanChoice& choice) const;

  /// False when the stream's route crosses a dead peer or a down link —
  /// the stream no longer flows and must not be reused.
  bool StreamUsable(const network::RegisteredStream& stream) const;

  Result<InputPlan> BuildPlan(const network::RegisteredStream& reused,
                              network::NodeId v, network::NodeId vq,
                              const wxquery::StreamBinding& binding,
                              const properties::InputStreamProperties&
                                  sub_props,
                              std::optional<WideningSpec> widening,
                              int shape = -1,
                              PlanMemo* memo = nullptr) const;
  /// Builds the residual operator chain that turns the reused stream into
  /// the subscription's canonical stream; ops are placed at `node`.
  Result<std::vector<EngineOpSpec>> ResidualOps(
      const network::RegisteredStream& reused,
      const wxquery::StreamBinding& binding, network::NodeId node,
      bool reused_is_equivalent) const;

  /// Fills cost / feasibility / resource-delta fields of a plan whose ops
  /// and new_stream are set. `flow_rate_kbps` is the rate of the stream on
  /// the plan's route.
  Status CostPlan(InputPlan* plan, const wxquery::StreamBinding& binding,
                  const network::RegisteredStream& reused,
                  network::NodeId vq, int shape = -1,
                  PlanMemo* memo = nullptr) const;

  /// True if the reused stream's content is already exactly what the
  /// subscription's canonical stream would be.
  bool PropsEquivalent(const properties::InputStreamProperties& a,
                       const properties::InputStreamProperties& b) const;

  const network::Topology* topology_;
  const network::NetworkState* state_;
  const network::StreamRegistry* registry_;
  const cost::CostModel* cost_model_;
  PlannerOptions options_;
  const CandidateIndex* index_ = nullptr;
};

}  // namespace streamshare::sharing

#endif  // STREAMSHARE_SHARING_SUBSCRIBE_H_
