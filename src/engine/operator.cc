#include "engine/operator.h"

#include <algorithm>

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
    // the same logical item, so its latency stamp rides along.
    scratch_.slot(scratch_.size() - 1).stamp = slot.stamp;
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
  lat_pipeline_ =
      registry.GetHistogram(prefix + ".stage.pipeline_us", bounds);
  lat_queue_ = registry.GetHistogram(prefix + ".stage.queue_us", bounds);
  lat_transport_ =
      registry.GetHistogram(prefix + ".stage.transport_us", bounds);
  for (LocalHist* local :
       {&loc_e2e_, &loc_pipeline_, &loc_queue_, &loc_transport_}) {
    local->buckets.assign(lat_e2e_->bucket_count(), 0);
  }
}

namespace {
// Stamped arrivals between registry folds. Large enough that the four
// atomic MergeCounts amortize away, small enough that a mid-stream
// metrics scrape (service-mode Feed) is at most this stale.
constexpr uint64_t kLatencyFlushInterval = 512;
}  // namespace

void SinkOp::ObserveLocal(LocalHist* local, const obs::Histogram& hist,
                          double value) {
  // In-process latencies mostly land under the first bound (50us); skip
  // the binary search for them — this runs per delivered item.
  size_t bucket =
      value <= hist.bounds().front() ? 0 : hist.BucketFor(value);
  ++local->buckets[bucket];
  ++local->count;
  local->sum += value;
  if (value > local->max) local->max = value;
}

void SinkOp::FlushLatency() {
  if (unflushed_ == 0) return;
  auto fold = [](LocalHist* local, obs::Histogram* hist) {
    if (local->count == 0) return;
    hist->MergeCounts(local->buckets, local->count, local->sum,
                      local->max);
    std::fill(local->buckets.begin(), local->buckets.end(), 0);
    local->count = 0;
    local->sum = 0.0;
    local->max = 0.0;  // the shared histogram's max only ever raises
  };
  fold(&loc_e2e_, lat_e2e_);
  fold(&loc_pipeline_, lat_pipeline_);
  fold(&loc_queue_, lat_queue_);
  fold(&loc_transport_, lat_transport_);
  unflushed_ = 0;
}

Status SinkOp::OnFinish() {
  FlushLatency();
  return Status::Ok();
}

void SinkOp::RecordLatency(const latency::ItemStamp& stamp,
                           uint64_t now) {
  if (lat_e2e_ == nullptr || !stamp.stamped()) return;
  uint64_t e2e = now > stamp.ingress_us ? now - stamp.ingress_us : 0;
  // Pipeline time is what remains of the end-to-end span after the
  // explicitly measured queue-wait and transport stages.
  uint64_t overhead = stamp.queue_us + stamp.transport_us;
  uint64_t pipeline = e2e > overhead ? e2e - overhead : 0;
  ObserveLocal(&loc_e2e_, *lat_e2e_, static_cast<double>(e2e));
  ObserveLocal(&loc_pipeline_, *lat_pipeline_,
               static_cast<double>(pipeline));
  // Queue and transport stages record only deliveries the stage actually
  // touched: a zero wait is the absence of a queue (or wire) on the
  // item's path, not a measurement of one — and skipping it keeps two
  // histogram updates off the serial hot path, where both are always 0.
  if (stamp.queue_us != 0) {
    ObserveLocal(&loc_queue_, *lat_queue_,
                 static_cast<double>(stamp.queue_us));
  }
  if (stamp.transport_us != 0) {
    ObserveLocal(&loc_transport_, *lat_transport_,
                 static_cast<double>(stamp.transport_us));
  }
  ++stamped_count_;
  if (stamp.ingress_us < last_ingress_us_) {
    ++stamp_regressions_;
  } else {
    last_ingress_us_ = stamp.ingress_us;
  }
  if (++unflushed_ >= kLatencyFlushInterval) FlushLatency();
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
    if (keep_items_) Retain(*batch, i);
    RecordLatency(slot.stamp, now);
  }
  return Status::Ok();
}

void SinkOp::Retain(const ItemBatch& batch, size_t i) {
  const ItemBatch::Slot& slot = batch.slot(i);
  if (slot.is_encoded()) {
    log_.append(batch.encoded(i));
  } else {
    writer_.Begin(&log_);
    if (slot.is_record) {
      writer_.Record(slot.record, PhotonSchema::kPhoton);
    } else {
      writer_.Tree(*slot.item);
    }
  }
  log_ends_.push_back(log_.size());
}

std::string_view SinkOp::retained(size_t i) const {
  size_t begin = i == 0 ? 0 : log_ends_[i - 1];
  return std::string_view(log_).substr(begin, log_ends_[i] - begin);
}

void SinkOp::DropRetained() {
  std::string().swap(log_);
  std::vector<uint64_t>().swap(log_ends_);
  std::vector<ItemPtr>().swap(materialized_);
}

const std::vector<ItemPtr>& SinkOp::items() const {
  materialized_.reserve(log_ends_.size());
  for (size_t i = materialized_.size(); i < log_ends_.size(); ++i) {
    materialized_.push_back(DecodeEncodedItem(retained(i)));
  }
  return materialized_;
}

}  // namespace streamshare::engine
