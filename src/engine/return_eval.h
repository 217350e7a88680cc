// Shared evaluation of WXQuery return expressions against an environment
// of bound variables. Used by RestructureOp (single-input post-processing)
// and CombineOp (multi-input combination at the query's super-peer).

#ifndef STREAMSHARE_ENGINE_RETURN_EVAL_H_
#define STREAMSHARE_ENGINE_RETURN_EVAL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "engine/record.h"
#include "wxquery/ast.h"
#include "xml/xml_node.h"

namespace streamshare::engine {

/// Variable bindings for one return-clause evaluation.
struct ReturnEnv {
  /// Plain for-variables bound to one item each.
  std::map<std::string, const xml::XmlNode*> items;
  /// Window-contents for-variables bound to member sequences.
  std::map<std::string, std::vector<const xml::XmlNode*>> windows;
  /// Let-variables bound to finalized aggregate values.
  std::map<std::string, Decimal> aggregates;
};

/// One evaluation output: an element node or a text fragment.
using ReturnOutput =
    std::variant<std::unique_ptr<xml::XmlNode>, std::string>;

/// Resolves the decimal value of $var/path under `env`. NotFound when the
/// path selects nothing (conditions treat that as false).
Result<Decimal> ResolveValue(const wxquery::VarPath& var_path,
                             const ReturnEnv& env);

/// Evaluates a conjunction of condition atoms under `env`.
Result<bool> EvaluateReturnCondition(
    const std::vector<wxquery::WhereAtom>& atoms, const ReturnEnv& env);

/// Evaluates `expr` under `env`, appending outputs.
Status EvaluateReturn(const wxquery::Expr& expr, const ReturnEnv& env,
                      std::vector<ReturnOutput>* outputs);

/// Evaluates `expr` under `env` and appends each top-level output to
/// `out` as one opaque item carrying `stamp`; a bare text output is
/// wrapped in <value> so the result stream stays element-structured.
Status AppendReturnOutputs(const wxquery::Expr& expr, const ReturnEnv& env,
                           ItemBatch* out,
                           const latency::ItemStamp& stamp = {});

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_RETURN_EVAL_H_
