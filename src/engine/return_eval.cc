#include "engine/return_eval.h"

#include "predicate/eval.h"

namespace streamshare::engine {

namespace {

using wxquery::ElementExpr;
using wxquery::Expr;
using wxquery::FlwrExpr;
using wxquery::IfExpr;
using wxquery::PathOutputExpr;
using wxquery::SequenceExpr;
using wxquery::VarOutputExpr;
using wxquery::WhereAtom;

}  // namespace

Result<Decimal> ResolveValue(const wxquery::VarPath& var_path,
                             const ReturnEnv& env) {
  auto agg = env.aggregates.find(var_path.var);
  if (agg != env.aggregates.end()) {
    if (!var_path.path.empty()) {
      return Status::InvalidArgument("aggregate variable $" + var_path.var +
                                     " has no sub-elements");
    }
    return agg->second;
  }
  auto item = env.items.find(var_path.var);
  if (item != env.items.end()) {
    return predicate::ExtractValue(*item->second, var_path.path);
  }
  auto window = env.windows.find(var_path.var);
  if (window != env.windows.end()) {
    // A window variable binds a sequence; a scalar condition reads the
    // first member carrying the element.
    for (const xml::XmlNode* member : window->second) {
      Result<Decimal> value =
          predicate::ExtractValue(*member, var_path.path);
      if (value.ok() || !value.status().IsNotFound()) return value;
    }
    return Status::NotFound("no window member carries '" +
                            var_path.path.ToString() + "'");
  }
  return Status::InvalidArgument("unbound variable $" + var_path.var +
                                 " in return expression");
}

Result<bool> EvaluateReturnCondition(const std::vector<WhereAtom>& atoms,
                                     const ReturnEnv& env) {
  for (const WhereAtom& atom : atoms) {
    Result<Decimal> lhs = ResolveValue(atom.lhs, env);
    if (!lhs.ok()) {
      if (lhs.status().IsNotFound()) return false;
      return lhs.status();
    }
    Decimal rhs = atom.constant;
    if (atom.rhs.has_value()) {
      Result<Decimal> rhs_value = ResolveValue(*atom.rhs, env);
      if (!rhs_value.ok()) {
        if (rhs_value.status().IsNotFound()) return false;
        return rhs_value.status();
      }
      rhs = *rhs_value + atom.constant;
    }
    if (!predicate::Compare(*lhs, atom.op, rhs)) return false;
  }
  return true;
}

namespace {

Status EvalElement(const ElementExpr& element, const ReturnEnv& env,
                   std::vector<ReturnOutput>* outputs) {
  auto node = std::make_unique<xml::XmlNode>(element.tag);
  for (const wxquery::ExprPtr& child : element.content) {
    std::vector<ReturnOutput> child_outputs;
    SS_RETURN_IF_ERROR(EvaluateReturn(*child, env, &child_outputs));
    for (ReturnOutput& output : child_outputs) {
      if (auto* child_node =
              std::get_if<std::unique_ptr<xml::XmlNode>>(&output)) {
        node->AddChild(std::move(*child_node));
      } else {
        node->append_text(std::get<std::string>(output));
      }
    }
  }
  outputs->emplace_back(std::move(node));
  return Status::Ok();
}

}  // namespace

Status EvaluateReturn(const Expr& expr, const ReturnEnv& env,
                      std::vector<ReturnOutput>* outputs) {
  if (const auto* element = expr.As<ElementExpr>()) {
    return EvalElement(*element, env, outputs);
  }
  if (expr.Is<FlwrExpr>()) {
    return Status::Unsupported("nested FLWR in return expression");
  }
  if (const auto* cond = expr.As<IfExpr>()) {
    SS_ASSIGN_OR_RETURN(bool satisfied,
                        EvaluateReturnCondition(cond->condition, env));
    return EvaluateReturn(satisfied ? *cond->then_expr : *cond->else_expr,
                          env, outputs);
  }
  if (const auto* path_out = expr.As<PathOutputExpr>()) {
    std::vector<const xml::XmlNode*> current;
    auto item = env.items.find(path_out->var);
    if (item != env.items.end()) {
      current.push_back(item->second);
    } else {
      auto window = env.windows.find(path_out->var);
      if (window == env.windows.end()) {
        return Status::InvalidArgument(
            "path output over unbound variable $" + path_out->var);
      }
      current = window->second;
    }
    // Navigate π̄ step by step; each step's bracket conditions filter the
    // nodes selected at that step (relative to the selected node).
    for (const wxquery::PathStep& step : path_out->steps) {
      std::vector<predicate::AtomicPredicate> preds;
      preds.reserve(step.conditions.size());
      for (const WhereAtom& atom : step.conditions) {
        if (!atom.lhs.var.empty() ||
            (atom.rhs.has_value() && !atom.rhs->var.empty())) {
          return Status::Unsupported(
              "output-path conditions must be relative to the selected "
              "node");
        }
        predicate::AtomicPredicate pred;
        pred.lhs = atom.lhs.path;
        pred.op = atom.op;
        pred.constant = atom.constant;
        if (atom.rhs.has_value()) pred.rhs_var = atom.rhs->path;
        preds.push_back(std::move(pred));
      }
      std::vector<const xml::XmlNode*> next;
      for (const xml::XmlNode* node : current) {
        for (const auto& child : node->children()) {
          if (child->name() != step.name) continue;
          if (!preds.empty()) {
            SS_ASSIGN_OR_RETURN(
                bool keep, predicate::EvaluateConjunction(preds, *child));
            if (!keep) continue;
          }
          next.push_back(child.get());
        }
      }
      current = std::move(next);
      if (current.empty()) break;
    }
    for (const xml::XmlNode* node : current) {
      outputs->emplace_back(node->Clone());
    }
    return Status::Ok();
  }
  if (const auto* var_out = expr.As<VarOutputExpr>()) {
    auto agg = env.aggregates.find(var_out->var);
    if (agg != env.aggregates.end()) {
      outputs->emplace_back(agg->second.ToString());
      return Status::Ok();
    }
    auto item = env.items.find(var_out->var);
    if (item != env.items.end()) {
      outputs->emplace_back(item->second->Clone());
      return Status::Ok();
    }
    auto window = env.windows.find(var_out->var);
    if (window != env.windows.end()) {
      for (const xml::XmlNode* member : window->second) {
        outputs->emplace_back(member->Clone());
      }
      return Status::Ok();
    }
    return Status::InvalidArgument("output of unbound variable $" +
                                   var_out->var);
  }
  const auto& sequence = std::get<SequenceExpr>(expr.node);
  for (const wxquery::ExprPtr& item : sequence.items) {
    SS_RETURN_IF_ERROR(EvaluateReturn(*item, env, outputs));
  }
  return Status::Ok();
}

Status AppendReturnOutputs(const wxquery::Expr& expr, const ReturnEnv& env,
                           ItemBatch* out, const latency::ItemStamp& stamp) {
  std::vector<ReturnOutput> outputs;
  SS_RETURN_IF_ERROR(EvaluateReturn(expr, env, &outputs));
  for (ReturnOutput& output : outputs) {
    if (auto* node = std::get_if<std::unique_ptr<xml::XmlNode>>(&output)) {
      out->AppendItem(MakeItem(std::move(*node)), /*adopt=*/false, stamp);
    } else {
      auto wrapper = std::make_unique<xml::XmlNode>("value");
      wrapper->set_text(std::get<std::string>(output));
      out->AppendItem(MakeItem(std::move(wrapper)), /*adopt=*/false, stamp);
    }
  }
  return Status::Ok();
}

}  // namespace streamshare::engine
