#include "matching/match_properties.h"

#include "matching/match_aggregations.h"
#include "matching/match_predicates.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace streamshare::matching {

using properties::AggregationOp;
using properties::InputStreamProperties;
using properties::Operator;
using properties::OperatorKind;
using properties::ProjectionOp;
using properties::SelectionOp;
using properties::UserDefinedOp;

bool ProjectionCovers(const std::vector<xml::Path>& output,
                      const std::vector<xml::Path>& referenced) {
  for (const xml::Path& needed : referenced) {
    bool covered = false;
    for (const xml::Path& kept : output) {
      if (kept.IsPrefixOf(needed)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

namespace {

/// Lines 9–30 of Algorithm 2: does subscription operator `sub_op` make
/// stream operator `stream_op` acceptable?
bool OperatorsCompatible(const Operator& stream_op, const Operator& sub_op,
                         const MatchOptions& options) {
  if (KindOf(stream_op) != KindOf(sub_op)) return false;
  switch (KindOf(stream_op)) {
    case OperatorKind::kSelection: {
      const auto& stream_sel = std::get<SelectionOp>(stream_op);
      const auto& sub_sel = std::get<SelectionOp>(sub_op);
      return options.edge_local_predicates
                 ? MatchPredicatesEdgeLocal(stream_sel.graph, sub_sel.graph)
                 : MatchPredicatesComplete(stream_sel.graph, sub_sel.graph);
    }
    case OperatorKind::kProjection: {
      // R (what the stream still carries) must cover R′ (everything the
      // subscription references, marked or not).
      const auto& stream_proj = std::get<ProjectionOp>(stream_op);
      const auto& sub_proj = std::get<ProjectionOp>(sub_op);
      return ProjectionCovers(stream_proj.output, sub_proj.referenced);
    }
    case OperatorKind::kAggregation:
      return MatchAggregations(std::get<AggregationOp>(stream_op),
                               std::get<AggregationOp>(sub_op));
    case OperatorKind::kUserDefined: {
      // Unknown operators: deterministic and invoked identically (same
      // operator, same input vector).
      const auto& stream_udf = std::get<UserDefinedOp>(stream_op);
      const auto& sub_udf = std::get<UserDefinedOp>(sub_op);
      return stream_udf.name == sub_udf.name &&
             stream_udf.params == sub_udf.params;
    }
  }
  return false;
}

}  // namespace

bool MatchProperties(const InputStreamProperties& stream,
                     const InputStreamProperties& sub,
                     const MatchOptions& options) {
  static obs::Counter* calls =
      obs::MetricsRegistry::Default().GetCounter(
          "matching.properties.calls");
  static obs::Counter* matches =
      obs::MetricsRegistry::Default().GetCounter(
          "matching.properties.matched");
  calls->Add(1);
  obs::TraceSpan span(&obs::TraceRecorder::Default(), "MatchProperties",
                      "matching");
  if (span.active()) {
    span.AddArg(obs::TraceArg::Str("stream", stream.stream_name));
  }

  // Lines 1–4: both must transform the same original input stream.
  if (stream.stream_name != sub.stream_name) return false;

  // Lines 6–36: every operator already applied to the stream needs a
  // compatible counterpart in the subscription; otherwise the stream has
  // dropped or transformed data the subscription still needs. Extra
  // subscription operators are fine — they run downstream of the reuse.
  for (const Operator& stream_op : stream.operators) {
    bool matched = false;
    for (const Operator& sub_op : sub.operators) {
      if (OperatorsCompatible(stream_op, sub_op, options)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  matches->Add(1);
  return true;
}

}  // namespace streamshare::matching
