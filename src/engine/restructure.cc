#include "engine/restructure.h"

#include "engine/record.h"
#include "engine/return_eval.h"
#include "engine/window_agg.h"
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

/// One condition atom compiled against the photon schema. Mirrors
/// EvaluateReturnCondition exactly: an absent (or off-schema) operand is
/// NotFound, which makes the condition false.
struct CompiledCond {
  int lhs_node = -1;   // -1: never found
  int rhs_node = -2;   // -2: no rhs variable
  predicate::ComparisonOp op = predicate::ComparisonOp::kEq;
  Decimal constant;
};

}  // namespace

/// A return expression compiled to run directly over PhotonRecords. Only
/// shapes whose DOM evaluation this reproduces byte-for-byte (including
/// which errors can arise — none) are compiled; everything else keeps the
/// DOM path.
struct RestructureOp::CompiledReturn {
  enum class Kind { kElement, kSequence, kIf, kPathOutput, kWholeItem };
  Kind kind = Kind::kSequence;
  // kElement
  std::string tag;
  // kElement / kSequence children, kIf {then, else}
  std::vector<CompiledReturn> children;
  // kIf
  std::vector<CompiledCond> conditions;
  // kPathOutput: resolved schema node, -1 when the path never matches
  int node = -1;

  void Run(const PhotonRecord& record, xml::XmlNode* parent,
           ItemBatch* out) const {
    switch (kind) {
      case Kind::kElement: {
        auto element = std::make_unique<xml::XmlNode>(tag);
        for (const CompiledReturn& child : children) {
          child.Run(record, element.get(), nullptr);
        }
        if (parent != nullptr) {
          parent->AddChild(std::move(element));
        } else {
          out->AppendItem(MakeItem(std::move(element)), /*adopt=*/false);
        }
        return;
      }
      case Kind::kSequence:
        for (const CompiledReturn& child : children) {
          child.Run(record, parent, out);
        }
        return;
      case Kind::kIf: {
        bool satisfied = true;
        for (const CompiledCond& cond : conditions) {
          int lhs_field =
              cond.lhs_node >= 0 ? PhotonSchema::FieldOf(cond.lhs_node) : -1;
          if (lhs_field < 0 || !record.has_field(lhs_field)) {
            satisfied = false;  // NotFound
            break;
          }
          Decimal rhs = cond.constant;
          if (cond.rhs_node != -2) {
            int rhs_field =
                cond.rhs_node >= 0 ? PhotonSchema::FieldOf(cond.rhs_node)
                                   : -1;
            if (rhs_field < 0 || !record.has_field(rhs_field)) {
              satisfied = false;
              break;
            }
            rhs = record.value(rhs_field) + cond.constant;
          }
          if (!predicate::Compare(record.value(lhs_field), cond.op, rhs)) {
            satisfied = false;
            break;
          }
        }
        children[satisfied ? 0 : 1].Run(record, parent, out);
        return;
      }
      case Kind::kPathOutput:
        if (node >= 0 && record.has_node(node)) {
          if (parent != nullptr) {
            parent->AddChild(record.MaterializeSubtree(node));
          } else {
            out->AppendItem(MakeItem(record.MaterializeSubtree(node)),
                            /*adopt=*/false);
          }
        }
        return;
      case Kind::kWholeItem:
        if (parent != nullptr) {
          parent->AddChild(record.MaterializeXml());
        } else {
          out->AppendItem(MakeItem(record.MaterializeXml()),
                          /*adopt=*/false);
        }
        return;
    }
  }
};

namespace {

/// Resolves a condition operand path to a schema *leaf* node. Structural
/// nodes are rejected (their DOM evaluation raises ParseError, which a
/// compiled program must not swallow); off-schema paths compile to -1
/// (never found, condition false).
bool CompileCondOperand(const wxquery::VarPath& operand,
                        const std::string& bound_var, int* node_out) {
  if (operand.var != bound_var) return false;
  int node = PhotonSchema::Resolve(operand.path);
  if (node >= 0 && PhotonSchema::FieldOf(node) < 0) return false;
  *node_out = node;
  return true;
}

bool CompileConditions(const std::vector<WhereAtom>& atoms,
                       const std::string& bound_var,
                       std::vector<CompiledCond>* out) {
  for (const WhereAtom& atom : atoms) {
    CompiledCond cond;
    if (!CompileCondOperand(atom.lhs, bound_var, &cond.lhs_node)) {
      return false;
    }
    if (atom.rhs.has_value() &&
        !CompileCondOperand(*atom.rhs, bound_var, &cond.rhs_node)) {
      return false;
    }
    cond.op = atom.op;
    cond.constant = atom.constant;
    out->push_back(cond);
  }
  return true;
}

bool CompileExpr(const Expr& expr, const std::string& bound_var,
                 RestructureOp::CompiledReturn* out);

bool CompileChildren(const std::vector<wxquery::ExprPtr>& exprs,
                     const std::string& bound_var,
                     std::vector<RestructureOp::CompiledReturn>* out) {
  for (const wxquery::ExprPtr& expr : exprs) {
    RestructureOp::CompiledReturn child;
    if (!CompileExpr(*expr, bound_var, &child)) return false;
    out->push_back(std::move(child));
  }
  return true;
}

bool CompileExpr(const Expr& expr, const std::string& bound_var,
                 RestructureOp::CompiledReturn* out) {
  using CompiledReturn = RestructureOp::CompiledReturn;
  if (const auto* element = expr.As<ElementExpr>()) {
    out->kind = CompiledReturn::Kind::kElement;
    out->tag = element->tag;
    return CompileChildren(element->content, bound_var, &out->children);
  }
  if (expr.Is<FlwrExpr>()) return false;  // DOM path raises Unsupported
  if (const auto* cond = expr.As<IfExpr>()) {
    out->kind = CompiledReturn::Kind::kIf;
    if (!CompileConditions(cond->condition, bound_var, &out->conditions)) {
      return false;
    }
    out->children.resize(2);
    return CompileExpr(*cond->then_expr, bound_var, &out->children[0]) &&
           CompileExpr(*cond->else_expr, bound_var, &out->children[1]);
  }
  if (const auto* path_out = expr.As<PathOutputExpr>()) {
    if (path_out->var != bound_var || path_out->HasConditions()) {
      return false;
    }
    out->kind = CompiledReturn::Kind::kPathOutput;
    out->node = PhotonSchema::Resolve(path_out->PlainPath());
    return true;
  }
  if (const auto* var_out = expr.As<VarOutputExpr>()) {
    if (var_out->var != bound_var) return false;
    out->kind = CompiledReturn::Kind::kWholeItem;
    return true;
  }
  const auto& sequence = std::get<SequenceExpr>(expr.node);
  out->kind = CompiledReturn::Kind::kSequence;
  return CompileChildren(sequence.items, bound_var, &out->children);
}

}  // namespace

RestructureOp::RestructureOp(
    std::string label, std::shared_ptr<const wxquery::AnalyzedQuery> query)
    : Operator(std::move(label)), query_(std::move(query)) {
  binding_ = &query_->bindings.front();
  if (!binding_->window.has_value() && !binding_->aggregate.has_value()) {
    auto program = std::make_unique<CompiledReturn>();
    if (CompileExpr(*query_->flwr->return_expr, binding_->var,
                    program.get())) {
      program_ = std::move(program);
    }
  }
}

RestructureOp::~RestructureOp() = default;

Status RestructureOp::EvaluateTree(const xml::XmlNode& item, ItemBatch* out,
                                   const latency::ItemStamp& stamp) {
  ReturnEnv env;
  if (binding_->window.has_value() && !binding_->aggregate.has_value()) {
    // Window-contents query: the incoming item is a <window> wrapper; the
    // for variable binds the member sequence.
    if (item.name() != "window") {
      return Status::InvalidArgument(
          "window-contents restructuring expected a <window> item, got <" +
          item.name() + ">");
    }
    std::vector<const xml::XmlNode*> members;
    for (const auto& child : item.children()) {
      if (child->name() != "seq") members.push_back(child.get());
    }
    env.windows[binding_->var] = std::move(members);
  } else if (binding_->aggregate.has_value()) {
    SS_ASSIGN_OR_RETURN(AggItem agg, ParseAggItem(item));
    Result<Decimal> value = agg.Finalize(binding_->aggregate->func);
    if (!value.ok()) {
      if (value.status().IsOutOfRange()) return Status::Ok();  // empty
      return value.status();
    }
    env.aggregates[binding_->aggregate->var] = *value;
  } else {
    env.items[binding_->var] = &item;
  }
  return AppendReturnOutputs(*query_->flwr->return_expr, env, out, stamp);
}

Status RestructureOp::ProcessBatch(ItemBatch* batch) {
  Status failure;
  for (size_t i = 0; i < batch->size() && failure.ok(); ++i) {
    ItemBatch::Slot& slot = batch->slot(i);
    // Every restructured output derives from this one input item, so its
    // latency stamp carries over.
    if (program_ != nullptr && slot.is_record) {
      size_t first_output = scratch_.size();
      program_->Run(slot.record, nullptr, &scratch_);
      for (size_t j = first_output; j < scratch_.size(); ++j) {
        scratch_.slot(j).stamp = slot.stamp;
      }
    } else {
      failure = EvaluateTree(*batch->Materialize(i), &scratch_, slot.stamp);
    }
  }
  return FlushScratch(&scratch_, std::move(failure));
}

}  // namespace streamshare::engine
