#include "engine/operator.h"

#include <algorithm>

#include "engine/result_store.h"
#include "obs/metrics_registry.h"
#include "predicate/eval.h"

namespace streamshare::engine {

Status Operator::Finish() {
  if (finished_) return Status::Ok();
  finished_ = true;
  SS_RETURN_IF_ERROR(OnFinish());
  for (Operator* downstream : downstreams_) {
    SS_RETURN_IF_ERROR(downstream->Finish());
  }
  return Status::Ok();
}

Status Operator::EmitBatch(ItemBatch* batch) {
  for (Operator* downstream : downstreams_) {
    SS_RETURN_IF_ERROR(downstream->PushBatch(batch));
  }
  return Status::Ok();
}

Status Operator::FlushScratch(ItemBatch* scratch, Status failure) {
  if (!scratch->empty()) {
    Status emitted = EmitBatch(scratch);
    scratch->clear();
    if (!emitted.ok()) return emitted;
  }
  return failure;
}

Status SelectOp::ProcessBatch(ItemBatch* batch) {
  if (!compiled_valid_) {
    compiled_ = CompilePredicates(predicates_);
    compiled_valid_ = true;
  }
  Status failure;
  for (size_t i = 0; i < batch->size(); ++i) {
    const ItemBatch::Slot& slot = batch->slot(i);
    Result<bool> keep =
        slot.is_record
            ? EvalCompiledPredicates(compiled_, slot.record)
            : predicate::EvaluateConjunction(predicates_,
                                             *batch->Materialize(i));
    if (!keep.ok()) {
      failure = keep.status();
      break;
    }
    if (*keep) scratch_.AppendSlot(*batch, i);
  }
  return FlushScratch(&scratch_, std::move(failure));
}

namespace {

/// Selectively clones `node` keeping subtrees covered by `output`.
/// Returns nullptr when nothing under `node` is kept.
std::unique_ptr<xml::XmlNode> ProjectNode(
    const xml::XmlNode& node, std::vector<std::string>* prefix,
    const std::vector<xml::Path>& output) {
  xml::Path current(*prefix);
  for (const xml::Path& out : output) {
    if (out.IsPrefixOf(current)) return node.Clone();
  }
  bool is_ancestor = false;
  for (const xml::Path& out : output) {
    if (current.IsPrefixOf(out)) {
      is_ancestor = true;
      break;
    }
  }
  if (!is_ancestor) return nullptr;
  auto copy = std::make_unique<xml::XmlNode>(node.name());
  copy->set_text(node.text());
  for (const auto& child : node.children()) {
    prefix->push_back(child->name());
    std::unique_ptr<xml::XmlNode> kept = ProjectNode(*child, prefix, output);
    prefix->pop_back();
    if (kept != nullptr) copy->AddChild(std::move(kept));
  }
  return copy;
}

std::unique_ptr<xml::XmlNode> ProjectTree(
    const xml::XmlNode& item, const std::vector<xml::Path>& output) {
  std::vector<std::string> prefix;  // paths are relative to the item root
  std::unique_ptr<xml::XmlNode> projected =
      ProjectNode(item, &prefix, output);
  if (projected == nullptr) {
    // Projection keeps the item element itself even when empty (the item
    // boundary is part of the stream structure).
    projected = std::make_unique<xml::XmlNode>(item.name());
  }
  return projected;
}

}  // namespace

Status ProjectOp::ProcessBatch(ItemBatch* batch) {
  if (!mask_valid_) {
    keep_mask_ = CompileProjectionMask(output_paths_);
    mask_valid_ = true;
  }
  scratch_.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    const ItemBatch::Slot& slot = batch->slot(i);
    if (slot.is_record) {
      scratch_.AppendRecord(slot.record.Project(keep_mask_));
    } else {
      scratch_.AppendItem(
          MakeItem(ProjectTree(*batch->Materialize(i), output_paths_)),
          /*adopt=*/false);
    }
    // Append* builds a fresh (unstamped) slot; the projected item is still
    // the same logical item, so its latency stamp and origin ride along.
    ItemBatch::Slot& projected = scratch_.slot(scratch_.size() - 1);
    projected.stamp = slot.stamp;
    projected.origin = slot.origin;
  }
  return FlushScratch(&scratch_);
}

Status LinkOp::ProcessBatch(ItemBatch* batch) {
  for (size_t i = 0; i < batch->size(); ++i) {
    link_metrics_->AddBytes(link_, SlotSerializedSize(batch->slot(i)));
  }
  return EmitBatch(batch);
}

void SinkOp::EnableLatencyRecording(const std::string& query) {
  // ~50us .. ~2.5s at factor 1.6: covers sub-millisecond in-process hops
  // and multi-second backlogged queues with 25 buckets.
  std::vector<double> bounds =
      obs::Histogram::ExponentialBounds(50.0, 1.6, 24);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  std::string prefix = "latency.query." + query;
  lat_e2e_ = registry.GetHistogram(prefix + ".e2e_us", bounds);
  loc_e2e_.buckets.assign(lat_e2e_->bucket_count(), 0);
}

namespace {
// Stamped arrivals between registry folds. Large enough that the atomic
// MergeCounts amortizes away, small enough that a mid-stream
// metrics scrape (service-mode Feed) is at most this stale.
constexpr uint64_t kLatencyFlushInterval = 512;
}  // namespace

void SinkOp::ObserveLocal(double value) {
  // In-process latencies mostly land under the first bound (50us); skip
  // the binary search for them — this runs per delivered item.
  size_t bucket =
      value <= lat_e2e_->bounds().front() ? 0 : lat_e2e_->BucketFor(value);
  ++loc_e2e_.buckets[bucket];
  ++loc_e2e_.count;
  loc_e2e_.sum += value;
  if (value > loc_e2e_.max) loc_e2e_.max = value;
}

void SinkOp::FlushLatency() {
  if (loc_e2e_.count == 0) return;
  lat_e2e_->MergeCounts(loc_e2e_.buckets, loc_e2e_.count, loc_e2e_.sum,
                        loc_e2e_.max);
  std::fill(loc_e2e_.buckets.begin(), loc_e2e_.buckets.end(), 0);
  loc_e2e_.count = 0;
  loc_e2e_.sum = 0.0;
  loc_e2e_.max = 0.0;  // the shared histogram's max only ever raises
}

Status SinkOp::OnFinish() {
  FlushLatency();
  return Status::Ok();
}

void SinkOp::RecordLatency(const latency::ItemStamp& stamp,
                           uint64_t now) {
  if (lat_e2e_ == nullptr || !stamp.stamped()) return;
  uint64_t e2e = now > stamp.ingress_us ? now - stamp.ingress_us : 0;
  ObserveLocal(static_cast<double>(e2e));
  ++stamped_count_;
  if (stamp.ingress_us < last_ingress_us_) {
    ++stamp_regressions_;
  } else {
    last_ingress_us_ = stamp.ingress_us;
  }
  if (loc_e2e_.count >= kLatencyFlushInterval) FlushLatency();
}

Status SinkOp::ProcessBatch(ItemBatch* batch) {
  item_count_ += batch->size();
  // One arrival tick for the whole batch — the slots are delivered by
  // this very call, so they share an arrival instant the same way a fed
  // batch shares its ingress tick. Keeps the clock off the per-item path.
  uint64_t now = lat_e2e_ != nullptr ? latency::NowUs() : 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    const ItemBatch::Slot& slot = batch->slot(i);
    total_bytes_ += SlotSerializedSize(slot);
    if (hash_items_) content_hash_ += SlotContentHash(slot);
    if (store_ != nullptr) Retain(slot);
    RecordLatency(slot.stamp, now);
  }
  return Status::Ok();
}

void SinkOp::Retain(const ItemBatch::Slot& slot) {
  ResultRef ref = slot.encoded.ref;
  if (!ref.valid()) {
    ItemWriter* writer = store_->BeginResult();
    if (slot.is_record) {
      writer->Record(slot.record, PhotonSchema::kPhoton);
    } else {
      writer->Tree(*slot.item);
    }
    ref = store_->EndResult().ref;
  }
  retained_.push_back(ref);
  retained_encoded_bytes_ += ref.bytes().size();
}

void SinkOp::DropRetained() {
  std::vector<ResultRef>().swap(retained_);
  retained_encoded_bytes_ = 0;
  std::vector<ItemPtr>().swap(materialized_);
}

const std::vector<ItemPtr>& SinkOp::items() const {
  materialized_.reserve(retained_.size());
  for (size_t i = materialized_.size(); i < retained_.size(); ++i) {
    materialized_.push_back(DecodeEncodedItem(retained(i)));
  }
  return materialized_;
}

}  // namespace streamshare::engine
