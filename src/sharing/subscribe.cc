#include "sharing/subscribe.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "obs/trace.h"
#include "properties/signature.h"
#include "sharing/candidate_index.h"

namespace streamshare::sharing {

using network::NodeId;
using network::RegisteredStream;
using properties::AggregationOp;
using properties::InputStreamProperties;
using wxquery::AnalyzedQuery;
using wxquery::StreamBinding;

namespace {

/// Reuse of the stream leaves no window state behind the recovery point:
/// plain σ/Π streams are item-by-item, but aggregate and window-contents
/// streams carry windows possibly straddling an epoch boundary.
bool EpochSafeReuse(const RegisteredStream& stream) {
  for (const properties::Operator& op : stream.props.operators) {
    switch (properties::KindOf(op)) {
      case properties::OperatorKind::kAggregation:
      case properties::OperatorKind::kUserDefined:
        return false;
      case properties::OperatorKind::kSelection:
      case properties::OperatorKind::kProjection:
        break;
    }
  }
  return true;
}

}  // namespace

Result<std::vector<NodeId>> Planner::RoutePath(NodeId from,
                                               NodeId to) const {
  const network::PeerHealth& health = state_->health();
  if (health.AllHealthy()) return topology_->ShortestPath(from, to);
  return topology_->ShortestPath(
      from, to,
      [&health](NodeId node) { return health.RoutesThrough(node); },
      [&health](network::LinkId link) { return health.LinkUp(link); });
}

bool Planner::StreamUsable(const RegisteredStream& stream) const {
  const network::PeerHealth& health = state_->health();
  if (health.AllHealthy()) return true;
  for (NodeId node : stream.route) {
    if (!health.RoutesThrough(node)) return false;
  }
  Result<std::vector<network::LinkId>> links =
      topology_->LinksOnPath(stream.route);
  if (!links.ok()) return false;
  for (network::LinkId link : *links) {
    if (!health.LinkUp(link)) return false;
  }
  return true;
}

bool Planner::PropsEquivalent(const InputStreamProperties& a,
                              const InputStreamProperties& b) const {
  matching::MatchOptions complete;
  complete.edge_local_predicates = false;
  return matching::MatchProperties(a, b, complete) &&
         matching::MatchProperties(b, a, complete);
}

Result<std::vector<EngineOpSpec>> Planner::ResidualOps(
    const RegisteredStream& reused, const StreamBinding& binding,
    NodeId node, bool reused_is_equivalent) const {
  std::vector<EngineOpSpec> ops;
  if (reused_is_equivalent) return ops;  // content already exact

  if (binding.aggregate.has_value()) {
    const AggregationOp* reused_agg = reused.props.aggregation();
    if (reused_agg != nullptr) {
      // Reusing an existing aggregate stream: recombine windows if they
      // differ (Fig. 5), re-filter if the subscription filters harder.
      if (reused_agg->window != *binding.window) {
        EngineOpSpec combine;
        combine.kind = EngineOpSpec::Kind::kAggCombine;
        combine.node = node;
        combine.func = binding.aggregate->func;
        combine.fine_window = reused_agg->window;
        combine.window = *binding.window;
        ops.push_back(std::move(combine));
      }
      if (!binding.result_filter.empty() &&
          reused_agg->result_filter != binding.result_filter) {
        EngineOpSpec filter;
        filter.kind = EngineOpSpec::Kind::kAggFilter;
        filter.node = node;
        filter.func = binding.aggregate->func;
        filter.predicates = binding.result_filter;
        ops.push_back(std::move(filter));
      }
      return ops;
    }
    // Reusing a plain (original or filtered/projected) stream: the full
    // aggregation chain runs at the reuse node.
    if (!binding.item_predicates.empty()) {
      EngineOpSpec select;
      select.kind = EngineOpSpec::Kind::kSelect;
      select.node = node;
      select.predicates = binding.item_predicates;
      ops.push_back(std::move(select));
    }
    EngineOpSpec agg;
    agg.kind = EngineOpSpec::Kind::kWindowAgg;
    agg.node = node;
    agg.func = binding.aggregate->func;
    agg.aggregated_element = binding.aggregate->path;
    agg.window = *binding.window;
    ops.push_back(std::move(agg));
    if (!binding.result_filter.empty()) {
      EngineOpSpec filter;
      filter.kind = EngineOpSpec::Kind::kAggFilter;
      filter.node = node;
      filter.func = binding.aggregate->func;
      filter.predicates = binding.result_filter;
      ops.push_back(std::move(filter));
    }
    return ops;
  }

  if (binding.window.has_value()) {
    // Window-contents query: the shared stream carries whole windows.
    // From a window-contents stream only identical content is reusable
    // (filtering inside materialized windows would change neither window
    // boundaries nor membership consistently), so any non-equivalent
    // window stream is unplannable — Subscribe skips such candidates.
    for (const properties::Operator& op : reused.props.operators) {
      if (std::holds_alternative<properties::UserDefinedOp>(op)) {
        return Status::Unsupported(
            "window-contents streams are reusable only when identical");
      }
    }
    if (!binding.item_predicates.empty()) {
      EngineOpSpec select;
      select.kind = EngineOpSpec::Kind::kSelect;
      select.node = node;
      select.predicates = binding.item_predicates;
      ops.push_back(std::move(select));
    }
    if (!binding.returns_whole_item) {
      EngineOpSpec project;
      project.kind = EngineOpSpec::Kind::kProject;
      project.node = node;
      project.output_paths = binding.referenced_paths;
      ops.push_back(std::move(project));
    }
    EngineOpSpec contents;
    contents.kind = EngineOpSpec::Kind::kWindowContents;
    contents.node = node;
    contents.window = *binding.window;
    ops.push_back(std::move(contents));
    return ops;
  }

  // Plain selection/projection query.
  if (!binding.item_predicates.empty()) {
    EngineOpSpec select;
    select.kind = EngineOpSpec::Kind::kSelect;
    select.node = node;
    select.predicates = binding.item_predicates;
    ops.push_back(std::move(select));
  }
  if (!binding.returns_whole_item) {
    EngineOpSpec project;
    project.kind = EngineOpSpec::Kind::kProject;
    project.node = node;
    project.output_paths = binding.referenced_paths;
    ops.push_back(std::move(project));
  }
  return ops;
}

Status Planner::CostPlan(InputPlan* plan, const StreamBinding& binding,
                         const RegisteredStream& reused,
                         NodeId vq, int shape, PlanMemo* memo) const {
  const cost::CostParams& params = cost_model_->params();

  cost::StreamEstimate est_reused;
  if (memo != nullptr && shape >= 0) {
    auto it = memo->reused_estimates.find(shape);
    if (it == memo->reused_estimates.end()) {
      it = memo->reused_estimates
               .emplace(shape, cost_model_->EstimateStream(reused.props))
               .first;
    }
    SS_RETURN_IF_ERROR(it->second.status());
    est_reused = *it->second;
  } else {
    SS_ASSIGN_OR_RETURN(est_reused,
                        cost_model_->EstimateStream(reused.props));
  }

  // Rate and final frequency of the stream this plan materializes. On the
  // memoized path the new stream always carries sub_props (BuildPlan sets
  // it so, and the raw-shipping initial plan never passes a memo).
  cost::StreamEstimate est_final = est_reused;
  if (plan->new_stream.has_value()) {
    if (memo != nullptr) {
      if (!memo->sub_estimate.has_value()) {
        memo->sub_estimate =
            cost_model_->EstimateStream(plan->new_stream->props);
      }
      SS_RETURN_IF_ERROR(memo->sub_estimate->status());
      est_final = **memo->sub_estimate;
    } else {
      SS_ASSIGN_OR_RETURN(
          est_final, cost_model_->EstimateStream(plan->new_stream->props));
    }
    plan->new_stream->rate_kbps =
        plan->ships_raw_stream ? est_reused.RateKbps()
                               : est_final.RateKbps();
  }

  // Per-peer load added by the plan's operators, tracking the running
  // input frequency along the chain. The accumulated selectivity feeds
  // the time-window math: selection thins items but stretches the
  // survivor increment, leaving the window-update frequency invariant.
  // On the memoized path the accumulator is a flat scratch array reset
  // between plans; it is drained in ascending node order, so sums are
  // bit-identical to the std::map the unmemoized path keeps.
  std::map<NodeId, double> load_by_peer;
  const bool use_scratch = memo != nullptr;
  if (use_scratch) {
    if (memo->load_scratch.size() < topology_->peer_count()) {
      memo->load_scratch.assign(topology_->peer_count(), 0.0);
      memo->load_mark.assign(topology_->peer_count(), 0);
    }
    memo->touched_peers.clear();
  }
  auto add_load = [&](NodeId peer, double amount) {
    if (use_scratch) {
      if (memo->load_mark[peer] == 0) {
        memo->load_mark[peer] = 1;
        memo->load_scratch[peer] = 0.0;
        memo->touched_peers.push_back(peer);
      }
      memo->load_scratch[peer] += amount;
    } else {
      load_by_peer[peer] += amount;
    }
  };

  // Memoized plans carry an empty ops vector and are scored against
  // their shape's ops template; a template op's node of -1 stands for
  // the plan's reuse node.
  const std::vector<EngineOpSpec>* ops = &plan->ops;
  if (memo != nullptr && shape >= 0) {
    auto it = memo->ops_template.find(shape);
    if (it != memo->ops_template.end() && it->second.ok()) {
      ops = &*it->second;
    }
  }
  double freq = est_reused.frequency_hz;
  double selectivity_so_far = 1.0;
  for (const EngineOpSpec& op : *ops) {
    double input_freq = freq;
    switch (op.kind) {
      case EngineOpSpec::Kind::kSelect: {
        // Plan generation emits kSelect only over binding.item_predicates
        // (residual and compensation alike), so the memo holds one value.
        double selectivity;
        if (memo != nullptr) {
          if (!memo->select_selectivity.has_value()) {
            predicate::PredicateGraph graph =
                predicate::PredicateGraph::Build(op.predicates);
            memo->select_selectivity =
                cost_model_->SelectivityFor(binding.stream_name, graph);
          }
          SS_RETURN_IF_ERROR(memo->select_selectivity->status());
          selectivity = **memo->select_selectivity;
        } else {
          predicate::PredicateGraph graph =
              predicate::PredicateGraph::Build(op.predicates);
          SS_ASSIGN_OR_RETURN(
              selectivity,
              cost_model_->SelectivityFor(binding.stream_name, graph));
        }
        freq *= selectivity;
        selectivity_so_far *= selectivity;
        break;
      }
      case EngineOpSpec::Kind::kProject:
        break;
      case EngineOpSpec::Kind::kWindowAgg: {
        // Plan generation installs only *binding.window here, so the memo
        // holds one divisor.
        double divisor;
        if (memo != nullptr) {
          if (!memo->window_divisor.has_value()) {
            memo->window_divisor = cost_model_->WindowUpdateDivisor(
                binding.stream_name, op.window);
          }
          SS_RETURN_IF_ERROR(memo->window_divisor->status());
          divisor = **memo->window_divisor;
        } else {
          SS_ASSIGN_OR_RETURN(divisor,
                              cost_model_->WindowUpdateDivisor(
                                  binding.stream_name, op.window));
        }
        if (op.window.type == properties::WindowType::kDiff) {
          divisor *= selectivity_so_far;
        }
        freq /= std::max(1e-9, divisor);
        break;
      }
      case EngineOpSpec::Kind::kAggCombine:
        freq *= op.fine_window.step.ToDouble() /
                std::max(1e-9, op.window.step.ToDouble());
        break;
      case EngineOpSpec::Kind::kAggFilter:
        break;
      case EngineOpSpec::Kind::kWindowContents: {
        double divisor;
        if (memo != nullptr) {
          if (!memo->window_divisor.has_value()) {
            memo->window_divisor = cost_model_->WindowUpdateDivisor(
                binding.stream_name, op.window);
          }
          SS_RETURN_IF_ERROR(memo->window_divisor->status());
          divisor = **memo->window_divisor;
        } else {
          SS_ASSIGN_OR_RETURN(divisor,
                              cost_model_->WindowUpdateDivisor(
                                  binding.stream_name, op.window));
        }
        if (op.window.type == properties::WindowType::kDiff) {
          divisor *= selectivity_so_far;
        }
        freq /= std::max(1e-9, divisor);
        break;
      }
    }
    NodeId op_node = op.node < 0 ? plan->reuse_node : op.node;
    double pindex = topology_->peer(op_node).pindex;
    add_load(op_node, BaseLoadFor(op.kind, params) * pindex * input_freq);
  }

  // The restructuring step always runs at the query's super-peer.
  add_load(vq, params.bload_restructure * topology_->peer(vq).pindex *
                   est_final.frequency_hz);

  // Transport: forwarding work at each sending peer, bandwidth per link.
  std::vector<cost::ResourceUsage> connection_usage;

  // A widening plan additionally pays the rate delta of the widened
  // stream on its whole existing route.
  if (plan->widening.has_value()) {
    const WideningSpec& widening = *plan->widening;
    const network::RegisteredStream& target =
        registry_->stream(widening.stream);
    double delta_rate =
        std::max(0.0, widening.new_rate_kbps - widening.old_rate_kbps);
    double delta_freq =
        std::max(0.0, widening.new_freq_hz - widening.old_freq_hz);
    SS_ASSIGN_OR_RETURN(std::vector<network::LinkId> links,
                        topology_->LinksOnPath(target.route));
    for (size_t i = 0; i < links.size(); ++i) {
      NodeId sender = target.route[i];
      add_load(sender, params.bload_transport *
                           topology_->peer(sender).pindex * delta_freq);
      double capacity = topology_->link(links[i]).bandwidth_kbps;
      cost::ResourceUsage usage;
      usage.added = capacity > 0.0 ? delta_rate / capacity : 0.0;
      usage.available = state_->AvailableBandwidth(links[i]);
      connection_usage.push_back(usage);
      plan->added_bandwidth_kbps.emplace_back(links[i], delta_rate);
    }
  }
  if (plan->new_stream.has_value()) {
    const NewStreamSpec& stream = *plan->new_stream;
    double flow_freq = plan->ships_raw_stream ? est_reused.frequency_hz
                                              : est_final.frequency_hz;
    std::vector<network::LinkId> links;
    if (memo != nullptr) {
      // The route is a pure function of its source node within one search.
      auto it = memo->route_links.find(stream.source_node);
      if (it == memo->route_links.end()) {
        it = memo->route_links
                 .emplace(stream.source_node,
                          topology_->LinksOnPath(stream.route))
                 .first;
      }
      SS_RETURN_IF_ERROR(it->second.status());
      links = *it->second;
    } else {
      SS_ASSIGN_OR_RETURN(links, topology_->LinksOnPath(stream.route));
    }
    for (size_t i = 0; i < links.size(); ++i) {
      NodeId sender = stream.route[i];
      add_load(sender, params.bload_transport *
                           topology_->peer(sender).pindex * flow_freq);
      double capacity = topology_->link(links[i]).bandwidth_kbps;
      cost::ResourceUsage usage;
      usage.added = capacity > 0.0 ? stream.rate_kbps / capacity : 0.0;
      usage.available = state_->AvailableBandwidth(links[i]);
      connection_usage.push_back(usage);
      // Memoized plans are scored, not deployed — the search regenerates
      // the winner in full, so resource bookkeeping is skipped here.
      if (memo == nullptr) {
        plan->added_bandwidth_kbps.emplace_back(links[i],
                                                stream.rate_kbps);
      }
    }
  }

  std::vector<cost::ResourceUsage> peer_usage;
  auto usage_for = [&](NodeId peer, double load) {
    double capacity = topology_->peer(peer).max_load;
    cost::ResourceUsage usage;
    usage.added = capacity > 0.0 ? load / capacity : 0.0;
    usage.available = state_->AvailableLoad(peer);
    peer_usage.push_back(usage);
    if (memo == nullptr) plan->added_load.emplace_back(peer, load);
  };
  if (use_scratch) {
    std::sort(memo->touched_peers.begin(), memo->touched_peers.end());
    for (NodeId peer : memo->touched_peers) {
      usage_for(peer, memo->load_scratch[peer]);
      memo->load_mark[peer] = 0;
    }
  } else {
    for (const auto& [peer, load] : load_by_peer) usage_for(peer, load);
  }

  plan->feasible = true;
  for (const cost::ResourceUsage& usage : connection_usage) {
    if (usage.added > usage.available + 1e-9) plan->feasible = false;
  }
  for (const cost::ResourceUsage& usage : peer_usage) {
    if (usage.added > usage.available + 1e-9) plan->feasible = false;
  }

  // End-to-end delivery latency: source → reused stream's first node →
  // tap node → query super-peer.
  {
    double latency = reused.source_latency_ms;
    auto tap_it = std::find(reused.route.begin(), reused.route.end(),
                            plan->reuse_node);
    if (tap_it != reused.route.end()) {
      std::vector<NodeId> prefix(reused.route.begin(), tap_it + 1);
      SS_ASSIGN_OR_RETURN(double prefix_latency,
                          topology_->PathLatencyMs(prefix));
      latency += prefix_latency;
    }
    if (plan->new_stream.has_value()) {
      double route_latency;
      if (memo != nullptr) {
        // On the memoized path the route is RoutePath(source_node, vq),
        // a pure function of its source node within one search.
        NodeId source = plan->new_stream->source_node;
        auto it = memo->route_latency.find(source);
        if (it == memo->route_latency.end()) {
          it = memo->route_latency
                   .emplace(source,
                            topology_->PathLatencyMs(
                                plan->new_stream->route))
                   .first;
        }
        SS_RETURN_IF_ERROR(it->second.status());
        route_latency = *it->second;
      } else {
        SS_ASSIGN_OR_RETURN(
            route_latency,
            topology_->PathLatencyMs(plan->new_stream->route));
      }
      latency += route_latency;
    }
    plan->estimated_latency_ms = latency;
  }

  plan->cost = cost::PlanCost(connection_usage, peer_usage, params.gamma) +
               params.latency_weight * plan->estimated_latency_ms;
  return Status::Ok();
}

Result<InputPlan> Planner::GenerateSharedPlan(
    const RegisteredStream& reused, NodeId v, NodeId vq,
    const StreamBinding& binding,
    const InputStreamProperties& sub_props, int shape,
    PlanMemo* memo) const {
  return BuildPlan(reused, v, vq, binding, sub_props, std::nullopt, shape,
                   memo);
}

Result<InputPlan> Planner::BuildPlan(
    const RegisteredStream& reused, NodeId v, NodeId vq,
    const StreamBinding& binding, const InputStreamProperties& sub_props,
    std::optional<WideningSpec> widening, int shape,
    PlanMemo* memo) const {
  InputPlan plan;
  plan.input_stream_name = binding.stream_name;
  plan.reused_stream = reused.id;
  plan.reuse_node = v;
  plan.widening = std::move(widening);

  bool equivalent;
  if (memo != nullptr && shape >= 0) {
    auto it = memo->equivalent.find(shape);
    if (it == memo->equivalent.end()) {
      it = memo->equivalent
               .emplace(shape, PropsEquivalent(reused.props, sub_props))
               .first;
    }
    equivalent = it->second;
  } else {
    equivalent = PropsEquivalent(reused.props, sub_props);
  }
  // Appends the compensation operators BuildPlan installs in front of
  // the restructuring step when widening is enabled (see below).
  auto append_compensation = [&](std::vector<EngineOpSpec>* ops) {
    if (!options_.enable_widening || binding.aggregate.has_value() ||
        binding.window.has_value()) {
      return;
    }
    if (!binding.item_predicates.empty()) {
      EngineOpSpec select;
      select.kind = EngineOpSpec::Kind::kSelect;
      select.node = vq;
      select.compensation = true;
      select.predicates = binding.item_predicates;
      ops->push_back(std::move(select));
    }
    if (!binding.returns_whole_item) {
      EngineOpSpec project;
      project.kind = EngineOpSpec::Kind::kProject;
      project.node = vq;
      project.compensation = true;
      project.output_paths = binding.referenced_paths;
      ops->push_back(std::move(project));
    }
  };

  if (memo != nullptr && shape >= 0) {
    // Memoized plans never materialize their operator chain: streams of
    // one shape share an ops template (tap node stored as -1, CostPlan
    // substitutes the reuse node), so per-candidate predicate and path
    // copies vanish from the hot loop. The winning plan is regenerated
    // in full by Subscribe once the search settles.
    auto it = memo->ops_template.find(shape);
    if (it == memo->ops_template.end()) {
      Result<std::vector<EngineOpSpec>> tmpl =
          ResidualOps(reused, binding, /*node=*/-1, equivalent);
      if (tmpl.ok()) append_compensation(&*tmpl);
      it = memo->ops_template.emplace(shape, std::move(tmpl)).first;
    }
    SS_RETURN_IF_ERROR(it->second.status());
  } else {
    // With widening enabled, every plain query re-enforces its own
    // predicates right before restructuring; upstream streams may then
    // be relaxed at any time without changing any subscriber's results.
    SS_ASSIGN_OR_RETURN(plan.ops,
                        ResidualOps(reused, binding, v, equivalent));
    append_compensation(&plan.ops);
  }

  if (!(equivalent && v == vq)) {
    NewStreamSpec stream;
    // Deep-copying sub_props per examined candidate is the single largest
    // constant in the BFS hot loop, and CostPlan's memoized path never
    // reads it — so memoized plans are built without it and the search
    // copies it into the one winning plan (Subscribe's patch step). The
    // memo's estimate of it is filled here, where sub_props is in scope.
    if (memo == nullptr) {
      stream.props = sub_props;
    } else if (!memo->sub_estimate.has_value()) {
      memo->sub_estimate = cost_model_->EstimateStream(sub_props);
    }
    stream.source_node = v;
    stream.target_node = vq;
    if (memo != nullptr) {
      auto it = memo->routes.find(v);
      if (it == memo->routes.end()) {
        it = memo->routes.emplace(v, RoutePath(v, vq)).first;
      }
      SS_RETURN_IF_ERROR(it->second.status());
      stream.route = *it->second;
    } else {
      SS_ASSIGN_OR_RETURN(stream.route, RoutePath(v, vq));
    }
    plan.new_stream = std::move(stream);
  }
  SS_RETURN_IF_ERROR(CostPlan(&plan, binding, reused, vq, shape, memo));
  return plan;
}

Result<InputPlan> Planner::GenerateWideningPlan(
    const RegisteredStream& narrow, NodeId v, NodeId vq,
    const StreamBinding& binding,
    const InputStreamProperties& sub_props) const {
  if (!options_.enable_widening) {
    return Status::Unsupported("stream widening is disabled");
  }
  if (narrow.IsOriginal() || narrow.upstream < 0) {
    return Status::Unsupported("original streams cannot be widened");
  }
  const properties::SelectionOp* narrow_selection = nullptr;
  const properties::ProjectionOp* narrow_projection = nullptr;
  for (const properties::Operator& op : narrow.props.operators) {
    switch (properties::KindOf(op)) {
      case properties::OperatorKind::kSelection:
        narrow_selection = &std::get<properties::SelectionOp>(op);
        break;
      case properties::OperatorKind::kProjection:
        narrow_projection = &std::get<properties::ProjectionOp>(op);
        break;
      case properties::OperatorKind::kAggregation:
      case properties::OperatorKind::kUserDefined:
        return Status::Unsupported(
            "aggregate and window streams are not widenable");
    }
  }

  WideningSpec spec;
  spec.stream = narrow.id;
  spec.widened_props.stream_name = narrow.props.stream_name;

  // Widened selection: the DBM join of the stream's and the
  // subscription's predicates — or no selection at all if the
  // subscription filters nothing.
  if (narrow_selection != nullptr) {
    if (!binding.item_predicates.empty()) {
      predicate::PredicateGraph sub_graph =
          predicate::PredicateGraph::Build(binding.item_predicates);
      if (!sub_graph.IsSatisfiable()) {
        return Status::Unsatisfiable("subscription predicates");
      }
      predicate::PredicateGraph widened_graph =
          predicate::PredicateGraph::UnionOf(narrow_selection->graph,
                                             sub_graph);
      spec.widened_selection = widened_graph.ToPredicates();
    }
    if (!spec.widened_selection.empty()) {
      SS_ASSIGN_OR_RETURN(
          properties::SelectionOp widened_sel,
          properties::SelectionOp::Create(spec.widened_selection));
      spec.widened_props.operators.emplace_back(std::move(widened_sel));
    }
  }

  // Widened projection: the union of kept paths; a whole-item consumer
  // widens the projection to the empty path (keep everything).
  if (narrow_projection != nullptr) {
    std::vector<xml::Path> merged = narrow_projection->output;
    if (binding.returns_whole_item) {
      merged = {xml::Path()};
    } else {
      for (const xml::Path& path : binding.referenced_paths) {
        merged.push_back(path);
      }
      // Prune paths covered by another (prefix subsumption).
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()),
                   merged.end());
      std::vector<xml::Path> pruned;
      for (const xml::Path& path : merged) {
        bool covered = false;
        for (const xml::Path& other : merged) {
          if (!(other == path) && other.IsPrefixOf(path)) {
            covered = true;
            break;
          }
        }
        if (!covered) pruned.push_back(path);
      }
      merged = std::move(pruned);
    }
    spec.widened_output = merged;
    properties::ProjectionOp widened_proj;
    widened_proj.output = merged;
    widened_proj.referenced = merged;
    spec.widened_props.operators.emplace_back(std::move(widened_proj));
  }

  // The widened stream must still be derivable from its upstream, and
  // must actually cover the subscription (sanity of the construction).
  matching::MatchOptions complete;
  complete.edge_local_predicates = false;
  const RegisteredStream& upstream = registry_->stream(narrow.upstream);
  if (!matching::MatchProperties(upstream.props, spec.widened_props,
                                 complete)) {
    return Status::Unsupported(
        "upstream stream no longer covers the widened content");
  }
  if (!matching::MatchProperties(spec.widened_props, sub_props,
                                 complete)) {
    return Status::Unsupported(
        "widening cannot make this stream cover the subscription");
  }

  SS_ASSIGN_OR_RETURN(cost::StreamEstimate old_estimate,
                      cost_model_->EstimateStream(narrow.props));
  SS_ASSIGN_OR_RETURN(cost::StreamEstimate new_estimate,
                      cost_model_->EstimateStream(spec.widened_props));
  spec.old_rate_kbps = old_estimate.RateKbps();
  spec.new_rate_kbps = new_estimate.RateKbps();
  spec.old_freq_hz = old_estimate.frequency_hz;
  spec.new_freq_hz = new_estimate.frequency_hz;

  // Plan against the stream as it will look after widening.
  RegisteredStream widened = narrow;
  widened.props = spec.widened_props;
  widened.rate_kbps = spec.new_rate_kbps;
  return BuildPlan(widened, v, vq, binding, sub_props, std::move(spec));
}

Result<const RegisteredStream*> Planner::LiveOriginal(
    const StreamBinding& binding) const {
  const RegisteredStream* original =
      registry_->FindOriginal(binding.stream_name);
  if (original == nullptr) {
    return Status::NotFound("query references unregistered stream '" +
                            binding.stream_name + "'");
  }
  if (original->retired || state_->health().IsDead(original->source_node)) {
    return Status::Unavailable(
        "input stream '" + binding.stream_name + "' is lost: source " +
        topology_->peer(original->source_node).name + " failed");
  }
  return original;
}

Result<InputPlan> Planner::ShipRawPlan(const RegisteredStream& original,
                                       const StreamBinding& binding,
                                       NodeId vq) const {
  NodeId vb = original.target_node;
  InputPlan plan;
  plan.input_stream_name = binding.stream_name;
  plan.reused_stream = original.id;
  plan.reuse_node = vb;
  plan.ships_raw_stream = true;
  SS_ASSIGN_OR_RETURN(plan.ops,
                      ResidualOps(original, binding, vq,
                                  /*reused_is_equivalent=*/false));
  NewStreamSpec stream;
  stream.props = original.props;  // the raw stream is what flows
  stream.source_node = vb;
  stream.target_node = vq;
  SS_ASSIGN_OR_RETURN(stream.route, RoutePath(vb, vq));
  plan.new_stream = std::move(stream);
  SS_RETURN_IF_ERROR(CostPlan(&plan, binding, original, vq));
  return plan;
}

Result<InputPlan> Planner::BuildInput(const StreamBinding& binding,
                                      const InputStreamProperties& sub_props,
                                      NodeId vq,
                                      const PlanChoice& choice) const {
  SS_ASSIGN_OR_RETURN(const RegisteredStream* original,
                      LiveOriginal(binding));
  auto misfit = [&](const std::string& why) {
    return Status::InvalidArgument(
        "plan choice (stream " + std::to_string(choice.stream) + " at node " +
        std::to_string(choice.node) + ") for input '" + binding.stream_name +
        "' " + why);
  };
  if (choice.kind == PlanChoice::Kind::kShipRaw) {
    if (choice.stream != original->id ||
        choice.node != original->target_node) {
      return misfit("does not name the original stream's node");
    }
    return ShipRawPlan(*original, binding, vq);
  }
  if (choice.stream < 0 ||
      static_cast<size_t>(choice.stream) >= registry_->streams().size()) {
    return misfit("names no registered stream");
  }
  const RegisteredStream& reused = registry_->stream(choice.stream);
  if (reused.retired || reused.variant_of != binding.stream_name) {
    return misfit("names a retired stream or another input's");
  }
  if (std::find(reused.route.begin(), reused.route.end(), choice.node) ==
      reused.route.end()) {
    return misfit("taps a node off the stream's route");
  }
  if (choice.kind == PlanChoice::Kind::kWiden) {
    return GenerateWideningPlan(reused, choice.node, vq, binding, sub_props);
  }
  return GenerateSharedPlan(reused, choice.node, vq, binding, sub_props);
}

Result<EvaluationPlan> Planner::Build(
    const AnalyzedQuery& query, NodeId vq,
    const std::vector<PlanChoice>& choices) const {
  if (choices.size() != query.bindings.size()) {
    return Status::InvalidArgument(
        std::to_string(choices.size()) + " plan choices for a query with " +
        std::to_string(query.bindings.size()) + " inputs");
  }
  EvaluationPlan plan;
  for (size_t i = 0; i < query.bindings.size(); ++i) {
    SS_ASSIGN_OR_RETURN(InputPlan input,
                        BuildInput(query.bindings[i],
                                   query.props.inputs()[i], vq, choices[i]));
    plan.inputs.push_back(std::move(input));
  }
  return plan;
}

Result<EvaluationPlan> Planner::DataShipping(const AnalyzedQuery& query,
                                             NodeId vq) const {
  EvaluationPlan plan;
  for (const StreamBinding& binding : query.bindings) {
    SS_ASSIGN_OR_RETURN(const RegisteredStream* original,
                        LiveOriginal(binding));
    SS_ASSIGN_OR_RETURN(InputPlan input,
                        ShipRawPlan(*original, binding, vq));
    plan.inputs.push_back(std::move(input));
  }
  return plan;
}

Result<EvaluationPlan> Planner::QueryShipping(const AnalyzedQuery& query,
                                              NodeId vq) const {
  EvaluationPlan plan;
  for (size_t i = 0; i < query.bindings.size(); ++i) {
    const StreamBinding& binding = query.bindings[i];
    SS_ASSIGN_OR_RETURN(const RegisteredStream* original,
                        LiveOriginal(binding));
    SS_ASSIGN_OR_RETURN(
        InputPlan input,
        GenerateSharedPlan(*original, original->source_node, vq, binding,
                           query.props.inputs()[i]));
    plan.inputs.push_back(std::move(input));
  }
  return plan;
}

Result<EvaluationPlan> Planner::Subscribe(
    const AnalyzedQuery& query, NodeId vq, SearchStats* stats,
    const std::set<NodeId>* allowed_nodes) const {
  auto allowed = [&](NodeId node) {
    return (allowed_nodes == nullptr || allowed_nodes->count(node) != 0) &&
           state_->health().RoutesThrough(node);
  };
  SearchStats local_stats;
  // Appends one candidate record and returns its index in `candidates`.
  auto record_candidate = [&local_stats](const StreamBinding& binding,
                                         const InputPlan& candidate,
                                         bool widening,
                                         bool baseline = false) {
    CandidatePlanInfo info;
    info.input_stream = binding.stream_name;
    info.reused_stream = candidate.reused_stream;
    info.reuse_node = candidate.reuse_node;
    info.cost = candidate.cost;
    info.feasible = candidate.feasible;
    info.widening = widening;
    info.baseline = baseline;
    local_stats.candidates.push_back(std::move(info));
    return local_stats.candidates.size() - 1;
  };
  EvaluationPlan plan;  // line 1: P ← ∅
  // Line 2: iterate over the subscription's input streams.
  for (size_t i = 0; i < query.bindings.size(); ++i) {
    const StreamBinding& binding = query.bindings[i];
    const InputStreamProperties& sub_props = query.props.inputs()[i];
    obs::TraceSpan input_span(&obs::TraceRecorder::Default(),
                              "Subscribe:" + binding.stream_name,
                              "sharing");
    SS_ASSIGN_OR_RETURN(const RegisteredStream* original,
                        LiveOriginal(binding));

    // Lines 3–6: initial plan — the original input stream routed to vq
    // via a shortest path, all evaluation at the target peer.
    NodeId vb = original->target_node;
    SS_ASSIGN_OR_RETURN(InputPlan best, ShipRawPlan(*original, binding, vq));
    ++local_stats.plans_generated;
    size_t best_candidate = record_candidate(binding, best,
                                             /*widening=*/false,
                                             /*baseline=*/true);
    // True while `best` was built through the memoized path, whose plans
    // defer the new stream's props copy until the search settles.
    bool best_needs_props = false;

    // A candidate replaces the incumbent if it is feasible where the
    // incumbent overloads a peer or connection (an overloading plan wins
    // only when no feasible one exists, and the system then rejects the
    // query), else if it is strictly better by C. Exact
    // ties break deterministically toward the lower stream id, then the
    // lower tap node, so the chosen plan is independent of examination
    // order — the property that keeps the indexed and flat search paths
    // bit-identical (ARCHITECTURE.md invariant 10).
    auto better = [&](const InputPlan& candidate, const InputPlan& incumbent) {
      if (candidate.feasible != incumbent.feasible) {
        return candidate.feasible;
      }
      if (candidate.cost != incumbent.cost) {
        return candidate.cost < incumbent.cost;
      }
      if (candidate.reused_stream != incumbent.reused_stream) {
        return candidate.reused_stream < incumbent.reused_stream;
      }
      return candidate.reuse_node < incumbent.reuse_node;
    };

    // Indexed lookup: the subscription-side probe is computed once per
    // input; widening needs non-matching candidates, and degraded health
    // needs per-stream usability checks, so dominance grouping is only
    // used when neither applies.
    const bool widening_active =
        options_.enable_widening && !options_.epoch_safe_only;
    const bool grouped_lookup =
        index_ != nullptr && state_->health().AllHealthy();
    properties::SubscriptionProbe probe;
    CandidateIndex::ProbeCache probe_cache;
    // Full-match verdicts per interned shape, valid for this input's whole
    // BFS: streams of one shape have structurally identical properties and
    // sub_props/match_options are fixed, so MatchProperties is a pure
    // function of the shape here. 0 = untested, 1 = matched, 2 = refuted.
    std::vector<int8_t> match_memo;
    // Shape-keyed memo for the pure parts of plan generation (stream
    // estimates, equivalence, residual selectivity, routes). Indexed path
    // only — the flat oracle keeps the unmemoized reference computation.
    PlanMemo plan_memo;
    if (index_ != nullptr) {
      probe = properties::ComputeSubscriptionProbe(sub_props);
      match_memo.assign(index_->shape_count(), 0);
    }
    // One candidate the BFS examines at a node: the stream plus the set
    // of route nodes it contributes to the frontier (its own route, or
    // its dominance group's route union on the indexed path), and its
    // interned shape id (-1 on the flat path).
    struct Candidate {
      const RegisteredStream* stream;
      const std::vector<NodeId>* frontier;  // nullptr → stream->route
      int shape = -1;
    };

    // Lines 7–25: breadth-first search from the input stream's node.
    // Marked/enqueued are flat per-node flags (node ids index the peer
    // table), so frontier probes are O(1) per route node.
    std::deque<NodeId> lv{vb};
    std::vector<char> marked(topology_->peer_count(), 0);
    std::vector<char> enqueued(topology_->peer_count(), 0);
    enqueued[vb] = 1;
    while (!lv.empty()) {
      NodeId v = lv.front();
      lv.pop_front();
      if (marked[v] != 0) continue;
      marked[v] = 1;
      ++local_stats.nodes_visited;

      std::vector<Candidate> candidates;
      if (index_ != nullptr) {
        CandidateIndex::LookupStats lookup;
        for (const CandidateIndex::Entry& entry : index_->Collect(
                 v, binding.stream_name, probe, options_.epoch_safe_only,
                 widening_active, grouped_lookup, &probe_cache, &lookup)) {
          candidates.push_back(
              Candidate{entry.stream, entry.frontier, entry.shape});
        }
        local_stats.candidates_pruned += lookup.pruned;
        local_stats.candidates_suppressed += lookup.suppressed;
      } else {
        for (const RegisteredStream* p :
             registry_->AvailableAt(v, binding.stream_name)) {
          candidates.push_back(Candidate{p, nullptr});
        }
      }
      for (const Candidate& c : candidates) {
        const RegisteredStream* p = c.stream;
        ++local_stats.candidates_examined;
        // A stream whose route crosses a dead peer or down link no
        // longer flows; under epoch-safe re-planning, windowed streams
        // are excluded from reuse entirely.
        if (!StreamUsable(*p)) continue;
        if (options_.epoch_safe_only && !EpochSafeReuse(*p)) continue;
        bool matched;
        if (c.shape >= 0 &&
            static_cast<size_t>(c.shape) < match_memo.size()) {
          int8_t& verdict = match_memo[c.shape];
          if (verdict == 0) {
            verdict = matching::MatchProperties(p->props, sub_props,
                                                options_.match_options)
                          ? 1
                          : 2;
          }
          matched = verdict == 1;
        } else {
          matched = matching::MatchProperties(p->props, sub_props,
                                              options_.match_options);
        }
        if (!matched) {
          // Non-matching streams do not extend the search — but with
          // widening enabled, a too-narrow stream may still be usable
          // after relaxing its operators (paper §6).
          if (options_.enable_widening && !options_.epoch_safe_only &&
              p->widenable) {
            Result<InputPlan> widened =
                GenerateWideningPlan(*p, v, vq, binding, sub_props);
            if (widened.ok()) {
              ++local_stats.plans_generated;
              size_t idx =
                  record_candidate(binding, *widened, /*widening=*/true);
              if (better(*widened, best)) {
                best = std::move(*widened);
                best_candidate = idx;
                best_needs_props = false;
              }
            } else if (!widened.status().IsUnsupported()) {
              return widened.status();
            }
          }
          continue;
        }
        ++local_stats.candidates_matched;
        // The stream is available along its whole route; explore it. An
        // indexed group entry contributes the union of its members'
        // routes, keeping the frontier identical to the flat walk.
        for (NodeId n : c.frontier != nullptr ? *c.frontier : p->route) {
          if (marked[n] == 0 && enqueued[n] == 0 && allowed(n)) {
            lv.push_back(n);
            enqueued[n] = 1;
          }
        }
        Result<InputPlan> candidate = GenerateSharedPlan(
            *p, v, vq, binding, sub_props, c.shape,
            index_ != nullptr ? &plan_memo : nullptr);
        if (!candidate.ok()) {
          // A matching stream can still be unplannable (e.g. a
          // non-identical window-contents stream); skip it.
          if (candidate.status().IsUnsupported()) continue;
          return candidate.status();
        }
        ++local_stats.plans_generated;
        size_t idx =
            record_candidate(binding, *candidate, /*widening=*/false);
        if (better(*candidate, best)) {
          best = std::move(*candidate);
          best_candidate = idx;
          best_needs_props = index_ != nullptr;
        }
      }

      if (!options_.prune_search) {
        // Ablation A1: unpruned BFS walks all topology neighbors too.
        for (NodeId n : topology_->Neighbors(v)) {
          if (marked[n] == 0 && enqueued[n] == 0 && allowed(n)) {
            lv.push_back(n);
            enqueued[n] = 1;
          }
        }
      }
    }
    // Memoized plans are score-only skeletons (no ops payloads, no
    // new-stream props, no resource bookkeeping). The build step turns
    // the winner's choice into its full plan through the unmemoized
    // path — every memoized value is a pure function of the same inputs,
    // so the built plan carries the identical cost the search compared.
    // Every other winner was built unmemoized already, by the same calls
    // the build step makes, so Build() reproduces any winner exactly.
    if (best_needs_props) {
      SS_ASSIGN_OR_RETURN(best,
                          BuildInput(binding, sub_props, vq, best.Choice()));
    }
    local_stats.candidates[best_candidate].chosen = true;
    if (input_span.active()) {
      input_span.AddArg(obs::TraceArg::Num("C(P)", best.cost));
      input_span.AddArg(obs::TraceArg::Num(
          "plans", static_cast<double>(local_stats.plans_generated)));
      input_span.AddArg(obs::TraceArg::Num(
          "nodes_visited",
          static_cast<double>(local_stats.nodes_visited)));
      input_span.AddArg(obs::TraceArg::Str(
          "reuse_node", "SP" + std::to_string(best.reuse_node)));
    }
    plan.inputs.push_back(std::move(best));
  }
  if (stats != nullptr) *stats = std::move(local_stats);
  return plan;
}

}  // namespace streamshare::sharing
