#include "sharing/plan.h"

#include "common/string_util.h"

namespace streamshare::sharing {

double BaseLoadFor(EngineOpSpec::Kind kind, const cost::CostParams& params) {
  switch (kind) {
    case EngineOpSpec::Kind::kSelect:
      return params.bload_selection;
    case EngineOpSpec::Kind::kProject:
      return params.bload_projection;
    case EngineOpSpec::Kind::kWindowAgg:
      return params.bload_aggregation;
    case EngineOpSpec::Kind::kAggCombine:
      return params.bload_window_combine;
    case EngineOpSpec::Kind::kAggFilter:
      // The result filter is a selection on aggregate values.
      return params.bload_selection;
    case EngineOpSpec::Kind::kWindowContents:
      // Buffering plus one wrapper construction per window.
      return params.bload_window_combine;
  }
  return 1.0;
}

std::string EngineOpSpec::ToString() const {
  std::string out;
  switch (kind) {
    case Kind::kSelect: {
      std::vector<std::string> parts;
      parts.reserve(predicates.size());
      for (const auto& pred : predicates) parts.push_back(pred.ToString());
      out = "select[" + Join(parts, " and ") + "]";
      break;
    }
    case Kind::kProject: {
      std::vector<std::string> parts;
      parts.reserve(output_paths.size());
      for (const auto& path : output_paths) {
        parts.push_back(path.ToString());
      }
      out = "project{" + Join(parts, ", ") + "}";
      break;
    }
    case Kind::kWindowAgg:
      out = std::string("window-agg ") +
            std::string(properties::AggregateFuncToString(func)) + "(" +
            aggregated_element.ToString() + ") " + window.ToString();
      break;
    case Kind::kAggCombine:
      out = "agg-combine " + fine_window.ToString() + " -> " +
            window.ToString();
      break;
    case Kind::kAggFilter: {
      std::vector<std::string> parts;
      parts.reserve(predicates.size());
      for (const auto& pred : predicates) parts.push_back(pred.ToString());
      out = "agg-filter[" + Join(parts, " and ") + "]";
      break;
    }
    case Kind::kWindowContents:
      out = "window-contents " + window.ToString();
      break;
  }
  out += " @node" + std::to_string(node);
  return out;
}

PlanChoice InputPlan::Choice() const {
  PlanChoice choice;
  choice.kind = ships_raw_stream      ? PlanChoice::Kind::kShipRaw
                : widening.has_value() ? PlanChoice::Kind::kWiden
                                       : PlanChoice::Kind::kTap;
  choice.stream = reused_stream;
  choice.node = reuse_node;
  return choice;
}

std::string InputPlan::ToString() const {
  std::string out = "InputPlan{input='" + input_stream_name + "', reuse=";
  out += reused_stream >= 0 ? "stream#" + std::to_string(reused_stream)
                            : std::string("none");
  out += "@node" + std::to_string(reuse_node);
  for (const EngineOpSpec& op : ops) {
    out += "; " + op.ToString();
  }
  if (new_stream.has_value()) {
    out += "; route=[";
    for (size_t i = 0; i < new_stream->route.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(new_stream->route[i]);
    }
    out += "]";
  }
  out += "; cost=" + std::to_string(cost);
  out += feasible ? "" : " INFEASIBLE";
  out += "}";
  return out;
}

double EvaluationPlan::TotalCost() const {
  double total = 0.0;
  for (const InputPlan& input : inputs) total += input.cost;
  return total;
}

bool EvaluationPlan::Feasible() const {
  for (const InputPlan& input : inputs) {
    if (!input.feasible) return false;
  }
  return true;
}

std::vector<PlanChoice> EvaluationPlan::Choices() const {
  std::vector<PlanChoice> choices;
  choices.reserve(inputs.size());
  for (const InputPlan& input : inputs) choices.push_back(input.Choice());
  return choices;
}

std::string EvaluationPlan::ToString() const {
  std::string out = "EvaluationPlan{\n";
  for (const InputPlan& input : inputs) {
    out += "  " + input.ToString() + "\n";
  }
  out += "}";
  return out;
}

}  // namespace streamshare::sharing
