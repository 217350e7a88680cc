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

  bool operator==(const CompiledCond&) const = default;
};

uint64_t MixHash(uint64_t hash, uint64_t value) {
  return (hash ^ value) * 0x100000001b3ull;
}

}  // namespace

/// A return expression compiled to run directly over PhotonRecords. Only
/// shapes whose DOM evaluation this reproduces byte-for-byte (including
/// which errors can arise — none) are compiled; everything else keeps the
/// DOM path. A program writes its results in the codec's self-contained
/// encoding, node by node, into the result store: no tree is ever built.
/// Its output depends on nothing but the record, so structurally equal
/// programs are interned and share their results.
struct ReturnProgram {
  enum class Kind { kElement, kSequence, kIf, kPathOutput, kWholeItem };
  Kind kind = Kind::kSequence;
  // kElement
  std::string tag;
  // kElement / kSequence children, kIf {then, else}
  std::vector<ReturnProgram> children;
  // kIf
  std::vector<CompiledCond> conditions;
  // kPathOutput: resolved schema node, -1 when the path never matches
  int node = -1;

  bool operator==(const ReturnProgram&) const = default;

  /// Structural hash: equal programs hash equal (condition constants are
  /// left out; the interning compare tells programs apart that differ
  /// only there).
  uint64_t Hash() const {
    uint64_t hash = MixHash(kContentHashSeed, static_cast<uint64_t>(kind));
    hash = MixContentHash(hash, tag);
    hash = MixHash(hash, static_cast<uint64_t>(node + 1));
    for (const CompiledCond& cond : conditions) {
      hash = MixHash(hash, static_cast<uint64_t>(cond.lhs_node + 2));
      hash = MixHash(hash, static_cast<uint64_t>(cond.rhs_node + 2));
      hash = MixHash(hash, static_cast<uint64_t>(cond.op));
    }
    for (const ReturnProgram& child : children) {
      hash = MixHash(hash, child.Hash());
    }
    return hash;
  }

  /// Top level: encodes each node this expression produces for `record`
  /// into `store` as one result, appended to `out`.
  void Emit(const PhotonRecord& record, ResultStore* store,
            std::vector<EncodedResult>* out) const {
    switch (kind) {
      case Kind::kSequence:
        for (const ReturnProgram& child : children) {
          child.Emit(record, store, out);
        }
        return;
      case Kind::kIf:
        Branch(record).Emit(record, store, out);
        return;
      case Kind::kPathOutput:
        if (!Produces(record)) return;
        [[fallthrough]];
      case Kind::kElement:
      case Kind::kWholeItem:
        Write(record, store->BeginResult());
        out->push_back(store->EndResult());
        return;
    }
  }

 private:
  /// Nodes this expression produces for `record` — an element's child
  /// count, which the encoding states before the children.
  uint64_t Count(const PhotonRecord& record) const {
    switch (kind) {
      case Kind::kSequence: {
        uint64_t count = 0;
        for (const ReturnProgram& child : children) {
          count += child.Count(record);
        }
        return count;
      }
      case Kind::kIf:
        return Branch(record).Count(record);
      case Kind::kPathOutput:
        return Produces(record) ? 1 : 0;
      case Kind::kElement:
      case Kind::kWholeItem:
        return 1;
    }
    return 0;
  }

  /// Writes the nodes this expression produces (inside an item).
  void Write(const PhotonRecord& record,
             ItemWriter* writer) const {
    switch (kind) {
      case Kind::kElement: {
        uint64_t child_count = 0;
        for (const ReturnProgram& child : children) {
          child_count += child.Count(record);
        }
        writer->Node(tag, std::string_view(), child_count);
        [[fallthrough]];
      }
      case Kind::kSequence:
        for (const ReturnProgram& child : children) {
          child.Write(record, writer);
        }
        return;
      case Kind::kIf:
        Branch(record).Write(record, writer);
        return;
      case Kind::kPathOutput:
        if (Produces(record)) writer->Record(record, node);
        return;
      case Kind::kWholeItem:
        writer->Record(record, PhotonSchema::kPhoton);
        return;
    }
  }

  bool Produces(const PhotonRecord& record) const {
    return node >= 0 && record.has_node(node);
  }

  /// The branch of a kIf the record's condition selects.
  const ReturnProgram& Branch(const PhotonRecord& record) const {
    for (const CompiledCond& cond : conditions) {
      int lhs_field =
          cond.lhs_node >= 0 ? PhotonSchema::FieldOf(cond.lhs_node) : -1;
      if (lhs_field < 0 || !record.has_field(lhs_field)) {
        return children[1];  // NotFound
      }
      Decimal rhs = cond.constant;
      if (cond.rhs_node != -2) {
        int rhs_field =
            cond.rhs_node >= 0 ? PhotonSchema::FieldOf(cond.rhs_node) : -1;
        if (rhs_field < 0 || !record.has_field(rhs_field)) {
          return children[1];
        }
        rhs = record.value(rhs_field) + cond.constant;
      }
      if (!predicate::Compare(record.value(lhs_field), cond.op, rhs)) {
        return children[1];
      }
    }
    return children[0];
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
                 ReturnProgram* out);

bool CompileChildren(const std::vector<wxquery::ExprPtr>& exprs,
                     const std::string& bound_var,
                     std::vector<ReturnProgram>* out) {
  for (const wxquery::ExprPtr& expr : exprs) {
    ReturnProgram child;
    if (!CompileExpr(*expr, bound_var, &child)) return false;
    out->push_back(std::move(child));
  }
  return true;
}

bool CompileExpr(const Expr& expr, const std::string& bound_var,
                 ReturnProgram* out) {
  if (const auto* element = expr.As<ElementExpr>()) {
    out->kind = ReturnProgram::Kind::kElement;
    out->tag = element->tag;
    return CompileChildren(element->content, bound_var, &out->children);
  }
  if (expr.Is<FlwrExpr>()) return false;  // DOM path raises Unsupported
  if (const auto* cond = expr.As<IfExpr>()) {
    out->kind = ReturnProgram::Kind::kIf;
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
    out->kind = ReturnProgram::Kind::kPathOutput;
    out->node = PhotonSchema::Resolve(path_out->PlainPath());
    return true;
  }
  if (const auto* var_out = expr.As<VarOutputExpr>()) {
    if (var_out->var != bound_var) return false;
    out->kind = ReturnProgram::Kind::kWholeItem;
    return true;
  }
  const auto& sequence = std::get<SequenceExpr>(expr.node);
  out->kind = ReturnProgram::Kind::kSequence;
  return CompileChildren(sequence.items, bound_var, &out->children);
}

}  // namespace

namespace {

/// The store's instance of `program`: the first structurally equal program
/// interned, or `program` itself, interned now.
std::shared_ptr<const ReturnProgram> Intern(ReturnProgram program,
                                            ResultStore* store) {
  std::vector<std::shared_ptr<const ReturnProgram>>& same_hash =
      store->ProgramsWithHash(program.Hash());
  for (const std::shared_ptr<const ReturnProgram>& interned : same_hash) {
    if (*interned == program) return interned;
  }
  same_hash.push_back(
      std::make_shared<const ReturnProgram>(std::move(program)));
  return same_hash.back();
}

}  // namespace

RestructureOp::RestructureOp(
    std::string label, std::shared_ptr<const wxquery::AnalyzedQuery> query,
    ResultStore* store)
    : Operator(std::move(label)), query_(std::move(query)), store_(store) {
  binding_ = &query_->bindings.front();
  if (!binding_->window.has_value() && !binding_->aggregate.has_value()) {
    ReturnProgram program;
    if (CompileExpr(*query_->flwr->return_expr, binding_->var, &program)) {
      program_ = Intern(std::move(program), store_);
    }
  }
}

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

std::span<const EncodedResult> RestructureOp::Encode(
    const ItemBatch::Slot& slot) {
  const uint16_t mask = slot.record.mask();
  if (memo_ == nullptr || mask != memo_mask_) {
    memo_ = store_->MemoFor(program_.get(), mask);
    memo_mask_ = mask;
  }
  return store_->Cached(memo_, slot.origin,
                        [&](std::vector<EncodedResult>* out) {
                          program_->Emit(slot.record, store_, out);
                        });
}

Status RestructureOp::ProcessBatch(ItemBatch* batch) {
  Status failure;
  for (size_t i = 0; i < batch->size() && failure.ok(); ++i) {
    ItemBatch::Slot& slot = batch->slot(i);
    // Every restructured output derives from this one input item, so its
    // latency stamp carries over.
    if (program_ != nullptr && slot.is_record) {
      for (const EncodedResult& result : Encode(slot)) {
        scratch_.AppendEncoded(result, slot.stamp);
      }
    } else {
      failure = EvaluateTree(*batch->Materialize(i), &scratch_, slot.stamp);
    }
  }
  return FlushScratch(&scratch_, std::move(failure));
}

}  // namespace streamshare::engine
