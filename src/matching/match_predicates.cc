#include "matching/match_predicates.h"

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace streamshare::matching {

using predicate::PredicateGraph;

namespace {

/// ζ(x) ⇐ ζ(y): the atomic predicate of edge y (in the subscription graph)
/// implies that of edge x (in the stream graph). Requires the same
/// source/target element labels and an at-least-as-tight bound.
bool EdgeImplies(const PredicateGraph& stream_graph,
                 const PredicateGraph::Edge& x,
                 const PredicateGraph& sub_graph,
                 const PredicateGraph::Edge& y) {
  if (stream_graph.nodes()[x.source] != sub_graph.nodes()[y.source]) {
    return false;
  }
  if (stream_graph.nodes()[x.target] != sub_graph.nodes()[y.target]) {
    return false;
  }
  return y.bound.ImpliesBound(x.bound);
}

}  // namespace

bool MatchPredicatesEdgeLocal(const PredicateGraph& stream_graph,
                              const PredicateGraph& sub_graph) {
  static obs::Counter* calls =
      obs::MetricsRegistry::Default().GetCounter(
          "matching.predicates.edge_local");
  calls->Add(1);
  obs::TraceSpan span(&obs::TraceRecorder::Default(),
                      "MatchPredicates.edge_local", "matching");
  const auto& nodes = stream_graph.nodes();
  for (size_t v = 0; v < nodes.size(); ++v) {
    std::vector<PredicateGraph::Edge> incident =
        stream_graph.EdgesConnectedTo(static_cast<int>(v));
    if (v != 0 && incident.empty()) continue;  // unconstrained variable
    // Line 4: find the equivalent node v′ (same element) in G′.
    std::optional<int> v_sub = sub_graph.FindNode(nodes[v]);
    if (!v_sub.has_value()) {
      if (incident.empty()) continue;  // nothing to imply
      return false;
    }
    std::vector<PredicateGraph::Edge> sub_incident =
        sub_graph.EdgesConnectedTo(*v_sub);
    // Lines 6–16: every incident edge x must be implied by some incident
    // edge y of the equivalent node.
    for (const PredicateGraph::Edge& x : incident) {
      bool matched = false;
      for (const PredicateGraph::Edge& y : sub_incident) {
        if (EdgeImplies(stream_graph, x, sub_graph, y)) {
          matched = true;
          break;
        }
      }
      if (!matched) return false;
    }
  }
  return true;
}

bool MatchPredicatesComplete(const PredicateGraph& stream_graph,
                             const PredicateGraph& sub_graph) {
  static obs::Counter* calls =
      obs::MetricsRegistry::Default().GetCounter(
          "matching.predicates.complete");
  calls->Add(1);
  obs::TraceSpan span(&obs::TraceRecorder::Default(),
                      "MatchPredicates.complete", "matching");
  return sub_graph.Implies(stream_graph);
}

}  // namespace streamshare::matching
