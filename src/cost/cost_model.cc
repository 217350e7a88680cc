#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/metrics_registry.h"

#include "matching/match_properties.h"
#include "xml/xml_node.h"

namespace streamshare::cost {

using properties::AggregationOp;
using properties::InputStreamProperties;
using properties::Operator;
using properties::OperatorKind;
using properties::ProjectionOp;
using properties::SelectionOp;
using properties::WindowType;

namespace {

/// Serialized size of one schema subtree, matching
/// StreamSchema::AvgSubtreeSize's accounting.
double FullSubtreeSize(const xml::SchemaElement& element) {
  double size = static_cast<double>(xml::XmlNode::TagBytes(
                    element.name.size(), /*empty=*/false)) +
                element.avg_text_size;
  for (const auto& child : element.children) {
    size += child->avg_occurrence * FullSubtreeSize(*child);
  }
  return size;
}

/// Serialized size of one item after projecting onto `output` paths: a
/// subtree is kept in full when covered by an output path; ancestors of
/// kept subtrees survive as structure.
double ProjectedSubtreeSize(const xml::SchemaElement& element,
                            std::vector<std::string>* prefix,
                            const std::vector<xml::Path>& output) {
  xml::Path current(*prefix);
  for (const xml::Path& out : output) {
    if (out.IsPrefixOf(current)) {
      // Whole subtree kept: serializes like the unprojected schema subtree.
      return FullSubtreeSize(element);
    }
  }
  // Not covered: survives only if it is an ancestor of a kept subtree.
  bool is_ancestor = false;
  for (const xml::Path& out : output) {
    if (current.IsPrefixOf(out)) {
      is_ancestor = true;
      break;
    }
  }
  if (!is_ancestor) return 0.0;
  double size = static_cast<double>(xml::XmlNode::TagBytes(
                    element.name.size(), /*empty=*/false)) +
                element.avg_text_size;
  for (const auto& child : element.children) {
    prefix->push_back(child->name);
    double child_size = ProjectedSubtreeSize(*child, prefix, output);
    prefix->pop_back();
    size += child->avg_occurrence * child_size;
  }
  return size;
}

}  // namespace

double CostModel::SelectionSelectivity(
    const predicate::PredicateGraph& graph,
    const StreamStatistics& stats) const {
  double selectivity = 1.0;
  const auto& nodes = graph.nodes();
  // One closure serves every per-node bound query below (TightestBound
  // would re-run Floyd–Warshall per call).
  const auto closure = graph.Closure();
  for (size_t v = 1; v < nodes.size(); ++v) {
    std::optional<ValueRange> range = stats.Range(nodes[v]);
    if (!range.has_value() || range->Width() <= 0.0) continue;
    double lo = range->min;
    double hi = range->max;
    // v ≤ c appears as the tightest bound v → 0.
    if (const auto& upper = closure[v][0]) {
      hi = std::min(hi, upper->value.ToDouble());
    }
    // 0 ≤ v + c (v ≥ −c) appears as the tightest bound 0 → v.
    if (const auto& lower = closure[0][v]) {
      lo = std::max(lo, -lower->value.ToDouble());
    }
    // A histogram, when available, captures the element's skew (hot sky
    // regions); otherwise assume uniform over the declared range.
    if (const ValueHistogram* histogram = stats.Histogram(nodes[v])) {
      selectivity *= histogram->MassIn(lo, hi);
    } else {
      double width = std::max(0.0, std::min(hi, range->max) -
                                       std::max(lo, range->min));
      selectivity *= std::clamp(width / range->Width(), 0.0, 1.0);
    }
  }
  // Variable-vs-variable constraints: one heuristic factor per constrained
  // unordered pair.
  std::set<std::pair<int, int>> pairs;
  for (const auto& edge : graph.edges()) {
    if (edge.source == 0 || edge.target == 0) continue;
    pairs.insert({std::min(edge.source, edge.target),
                  std::max(edge.source, edge.target)});
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    selectivity *= params_.var_var_selectivity;
  }
  return selectivity;
}

Result<StreamEstimate> CostModel::EstimateStream(
    const InputStreamProperties& props) const {
  static obs::Counter* calls =
      obs::MetricsRegistry::Default().GetCounter(
          "cost.estimate_stream.calls");
  calls->Add(1);
  const StreamStatistics* stats = statistics_->Find(props.stream_name);
  if (stats == nullptr) {
    return Status::NotFound("no statistics registered for stream '" +
                            props.stream_name + "'");
  }
  StreamEstimate estimate;
  estimate.item_size_bytes = stats->schema().AvgItemSize();
  estimate.frequency_hz = stats->item_frequency_hz();

  // Aggregate entries carry their pre-selection twice: as a standalone σ
  // (for Algorithm 2's kind-wise matching) and embedded in the Φ
  // descriptor. Count its selectivity once, and remember the factor:
  // time-based windows need it, because selection thins the items but
  // stretches the reference-element increment between survivors by the
  // same factor — window-update frequency is invariant under selection.
  bool selection_applied = false;
  double selectivity_so_far = 1.0;
  for (const Operator& op : props.operators) {
    switch (KindOf(op)) {
      case OperatorKind::kSelection: {
        const auto& selection = std::get<SelectionOp>(op);
        double selectivity = SelectionSelectivity(selection.graph, *stats);
        estimate.frequency_hz *= selectivity;
        selectivity_so_far *= selectivity;
        selection_applied = true;
        break;
      }
      case OperatorKind::kProjection: {
        const auto& projection = std::get<ProjectionOp>(op);
        std::vector<std::string> prefix;
        estimate.item_size_bytes = ProjectedSubtreeSize(
            stats->schema().item(), &prefix, projection.output);
        break;
      }
      case OperatorKind::kAggregation: {
        const auto& aggregation = std::get<AggregationOp>(op);
        // Pre-selection thins the stream feeding the window (unless a
        // standalone σ already accounted for it).
        if (!selection_applied) {
          double selectivity = SelectionSelectivity(
              aggregation.pre_selection_graph, *stats);
          estimate.frequency_hz *= selectivity;
          selectivity_so_far *= selectivity;
        }
        // One aggregate value per window update.
        double items_per_update;
        if (aggregation.window.type == WindowType::kCount) {
          items_per_update = aggregation.window.step.ToDouble();
        } else {
          // Selection stretches the increment between surviving items by
          // 1/selectivity, so fewer survivors complete each update: the
          // update frequency stays raw_freq · increment / µ.
          double increment =
              stats->AvgIncrement(aggregation.window.reference)
                  .value_or(1.0);
          items_per_update = aggregation.window.step.ToDouble() /
                             std::max(1e-9, increment) *
                             selectivity_so_far;
        }
        estimate.frequency_hz /= std::max(1e-9, items_per_update);
        estimate.item_size_bytes = params_.aggregate_item_size;
        // A result filter thins the aggregate stream; approximate its
        // selectivity with the aggregated element's value range (the
        // window average/extremum lives in the same range).
        if (aggregation.result_filter_graph.edge_count() > 0) {
          StreamStatistics agg_stats(stats->schema_ptr(), 1.0);
          if (auto range = stats->Range(aggregation.aggregated_element)) {
            agg_stats.SetRange(properties::AggregateValuePath(), *range);
          }
          estimate.frequency_hz *= SelectionSelectivity(
              aggregation.result_filter_graph, agg_stats);
        }
        break;
      }
      case OperatorKind::kUserDefined: {
        const auto& udf = std::get<properties::UserDefinedOp>(op);
        if (udf.name == "window-contents" && udf.params.size() == 4) {
          // Queries returning the contents of data windows (§3.2): the
          // window size times the average item size plus the enclosing
          // window tags, at one item per window update. The parameter
          // vector is (type, Δ, µ, reference).
          Result<Decimal> size = Decimal::Parse(udf.params[1]);
          Result<Decimal> step = Decimal::Parse(udf.params[2]);
          if (size.ok() && step.ok()) {
            double items_per_window;
            double items_per_update;
            if (udf.params[0] == "count") {
              items_per_window = size->ToDouble();
              items_per_update = step->ToDouble();
            } else {
              // As with aggregation windows: prior selection stretches
              // the survivor increment by 1/selectivity.
              Result<xml::Path> reference = xml::Path::Parse(udf.params[3]);
              double increment =
                  reference.ok()
                      ? stats->AvgIncrement(*reference).value_or(1.0)
                      : 1.0;
              items_per_window = size->ToDouble() /
                                 std::max(1e-9, increment) *
                                 selectivity_so_far;
              items_per_update = step->ToDouble() /
                                 std::max(1e-9, increment) *
                                 selectivity_so_far;
            }
            // <window> + </window> + <seq>…</seq> ≈ 30 bytes of framing.
            estimate.item_size_bytes =
                items_per_window * estimate.item_size_bytes + 30.0;
            estimate.frequency_hz /= std::max(1e-9, items_per_update);
          }
          break;
        }
        // Unknown semantics: conservatively size-and-frequency preserving.
        break;
      }
    }
  }
  return estimate;
}

Result<double> CostModel::SelectivityFor(
    std::string_view stream_name,
    const predicate::PredicateGraph& graph) const {
  const StreamStatistics* stats = statistics_->Find(stream_name);
  if (stats == nullptr) {
    return Status::NotFound("no statistics registered for stream '" +
                            std::string(stream_name) + "'");
  }
  return SelectionSelectivity(graph, *stats);
}

Result<double> CostModel::WindowUpdateDivisor(
    std::string_view stream_name,
    const properties::WindowSpec& window) const {
  if (window.type == WindowType::kCount) {
    return std::max(1.0, window.step.ToDouble());
  }
  const StreamStatistics* stats = statistics_->Find(stream_name);
  if (stats == nullptr) {
    return Status::NotFound("no statistics registered for stream '" +
                            std::string(stream_name) + "'");
  }
  double increment = stats->AvgIncrement(window.reference).value_or(1.0);
  // No floor at 1: when µ is smaller than the increment, windows update
  // more often than items arrive (empty windows are emitted for sequence
  // continuity).
  return std::max(1e-9, window.step.ToDouble() / std::max(1e-9, increment));
}

double CostModel::BaseLoad(const Operator& op) const {
  switch (KindOf(op)) {
    case OperatorKind::kSelection:
      return params_.bload_selection;
    case OperatorKind::kProjection:
      return params_.bload_projection;
    case OperatorKind::kAggregation:
      return params_.bload_aggregation;
    case OperatorKind::kUserDefined:
      return params_.bload_user_defined;
  }
  return 1.0;
}

double CostModel::OperatorLoad(const Operator& op, double pindex,
                               double input_frequency_hz) const {
  return BaseLoad(op) * pindex * input_frequency_hz;
}

double PlanCost(const std::vector<ResourceUsage>& connections,
                const std::vector<ResourceUsage>& peers, double gamma) {
  static obs::Counter* calls =
      obs::MetricsRegistry::Default().GetCounter("cost.plan_cost.calls");
  calls->Add(1);
  auto term = [](const ResourceUsage& usage) {
    double overload = usage.added - usage.available;
    double penalty =
        overload > 0.0 ? overload * std::exp(overload) : 0.0;
    return usage.added + penalty;
  };
  double connection_cost = 0.0;
  for (const ResourceUsage& usage : connections) {
    connection_cost += term(usage);
  }
  double peer_cost = 0.0;
  for (const ResourceUsage& usage : peers) {
    peer_cost += term(usage);
  }
  return gamma * connection_cost + (1.0 - gamma) * peer_cost;
}

}  // namespace streamshare::cost
