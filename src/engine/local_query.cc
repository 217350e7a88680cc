#include "engine/local_query.h"

#include "engine/executor.h"
#include "engine/restructure.h"
#include "engine/window_agg.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace streamshare::engine {

std::string LocalQueryResult::ToDocument() const {
  std::string tag = wrapper_tag.empty() ? "result" : wrapper_tag;
  std::string out = "<" + tag + ">";
  for (const ItemPtr& item : items) {
    out += xml::WriteCompact(*item);
  }
  out += "</" + tag + ">";
  return out;
}

Result<LocalQueryResult> RunLocalQuery(const wxquery::AnalyzedQuery& query,
                                       const std::vector<ItemPtr>& items) {
  if (query.bindings.size() != 1) {
    return Status::Unsupported(
        "local evaluation supports single-input queries");
  }
  const wxquery::StreamBinding& binding = query.bindings.front();

  // Wire the canonical chain: σ → (window | window-agg + filter)? →
  // restructure → sink. Local evaluation needs no projection — nothing is
  // transmitted.
  OperatorGraph graph;
  Operator* entry = graph.Add<PassOp>("local:entry");
  Operator* current = entry;
  if (!binding.item_predicates.empty()) {
    Operator* select =
        graph.Add<SelectOp>("local:select", binding.item_predicates);
    current->AddDownstream(select);
    current = select;
  }
  if (binding.aggregate.has_value()) {
    Operator* agg = graph.Add<WindowAggOp>(
        "local:agg", binding.aggregate->func, binding.aggregate->path,
        *binding.window);
    current->AddDownstream(agg);
    current = agg;
    if (!binding.result_filter.empty()) {
      Operator* filter = graph.Add<AggFilterOp>(
          "local:filter", binding.aggregate->func, binding.result_filter);
      current->AddDownstream(filter);
      current = filter;
    }
  } else if (binding.window.has_value()) {
    Operator* contents =
        graph.Add<WindowContentsOp>("local:window", *binding.window);
    current->AddDownstream(contents);
    current = contents;
  }
  // RestructureOp holds a shared_ptr; alias the caller's query without
  // ownership (it outlives `graph`, which dies at the end of this call).
  std::shared_ptr<const wxquery::AnalyzedQuery> alias(
      std::shared_ptr<const wxquery::AnalyzedQuery>(), &query);
  Operator* restructure =
      graph.Add<RestructureOp>("local:restructure", alias);
  current->AddDownstream(restructure);
  auto* sink = graph.Add<SinkOp>("local:sink", /*keep_items=*/true);
  restructure->AddDownstream(sink);

  // Opaque slots: a local query evaluates its items on their trees.
  constexpr size_t kBatchSize = 64;
  std::vector<std::vector<ItemBatch>> batches = {
      ChunkItems(items, kBatchSize, /*adopt=*/false)};
  SS_RETURN_IF_ERROR(RunBatchStreams({entry}, &batches));

  LocalQueryResult result;
  result.wrapper_tag = query.wrapper_tag;
  result.items = sink->items();
  return result;
}

Result<LocalQueryResult> RunLocalQuery(std::string_view query_text,
                                       std::string_view xml_document) {
  SS_ASSIGN_OR_RETURN(wxquery::AnalyzedQuery query,
                      wxquery::ParseAndAnalyze(query_text));
  if (query.bindings.size() != 1) {
    return Status::Unsupported(
        "local evaluation supports single-input queries");
  }
  xml::XmlItemReader reader(xml_document);
  std::vector<ItemPtr> items;
  while (true) {
    SS_ASSIGN_OR_RETURN(std::unique_ptr<xml::XmlNode> item,
                        reader.NextItem());
    if (item == nullptr) break;
    items.push_back(MakeItem(std::move(item)));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("incomplete stream document");
  }
  if (reader.stream_name() != query.bindings.front().stream_root) {
    return Status::InvalidArgument(
        "document root <" + reader.stream_name() +
        "> does not match the query's stream root element <" +
        query.bindings.front().stream_root + ">");
  }
  return RunLocalQuery(query, items);
}

}  // namespace streamshare::engine
