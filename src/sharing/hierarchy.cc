#include "sharing/hierarchy.h"

#include <iterator>

namespace streamshare::sharing {

Result<EvaluationPlan> HierarchicalPlanner::Subscribe(
    const wxquery::AnalyzedQuery& query, network::NodeId vq,
    SearchStats* stats) const {
  // Search scope: the registering subnet plus the source node of each
  // referenced input stream (the initial data-shipping plan needs it, and
  // it is the root of the stream-route exploration).
  int subnet = partition_->subnet_of(vq);
  std::set<network::NodeId> allowed(partition_->nodes_in(subnet).begin(),
                                    partition_->nodes_in(subnet).end());
  for (const wxquery::StreamBinding& binding : query.bindings) {
    const network::RegisteredStream* original =
        planner_->registry().FindOriginal(binding.stream_name);
    if (original != nullptr) allowed.insert(original->source_node);
  }

  SearchStats local_stats;
  SS_ASSIGN_OR_RETURN(EvaluationPlan plan,
                      planner_->Subscribe(query, vq, &local_stats,
                                          &allowed));

  bool reused_derived = false;
  for (const InputPlan& input : plan.inputs) {
    if (input.reused_stream >= 0 &&
        !planner_->registry().stream(input.reused_stream).IsOriginal()) {
      reused_derived = true;
    }
  }
  if (!reused_derived) {
    // Nothing shareable in the subnet: escalate to the global search.
    SearchStats global_stats;
    SS_ASSIGN_OR_RETURN(
        EvaluationPlan global_plan,
        planner_->Subscribe(query, vq, &global_stats));
    local_stats.nodes_visited += global_stats.nodes_visited;
    local_stats.candidates_examined += global_stats.candidates_examined;
    local_stats.candidates_matched += global_stats.candidates_matched;
    local_stats.plans_generated += global_stats.plans_generated;
    bool global_wins = global_plan.TotalCost() < plan.TotalCost();
    // Exactly one candidate per input stays chosen: the losing search's
    // chosen flags are cleared before the candidate lists concatenate.
    for (CandidatePlanInfo& candidate :
         global_wins ? local_stats.candidates : global_stats.candidates) {
      candidate.chosen = false;
    }
    local_stats.candidates.insert(
        local_stats.candidates.end(),
        std::make_move_iterator(global_stats.candidates.begin()),
        std::make_move_iterator(global_stats.candidates.end()));
    if (global_wins) plan = std::move(global_plan);
  }
  if (stats != nullptr) *stats = local_stats;
  return plan;
}

}  // namespace streamshare::sharing
