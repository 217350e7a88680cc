#include "engine/window_agg.h"

#include <algorithm>

#include "common/string_util.h"
#include "predicate/eval.h"

namespace streamshare::engine {

using properties::AggregateFunc;
using properties::WindowSpec;
using properties::WindowType;

Result<Decimal> AggItem::Finalize(AggregateFunc func) const {
  switch (func) {
    case AggregateFunc::kSum:
      if (!sum.has_value()) {
        return Status::InvalidArgument("aggregate item carries no sum");
      }
      return *sum;
    case AggregateFunc::kCount:
      if (!count.has_value()) {
        return Status::InvalidArgument("aggregate item carries no count");
      }
      return Decimal::FromInt(*count);
    case AggregateFunc::kAvg: {
      if (!sum.has_value() || !count.has_value()) {
        return Status::InvalidArgument(
            "aggregate item carries no sum/count pair");
      }
      if (*count == 0) {
        return Status::OutOfRange("average of an empty window");
      }
      return Decimal::FromDouble(
          sum->ToDouble() / static_cast<double>(*count), 6);
    }
    case AggregateFunc::kMin:
    case AggregateFunc::kMax:
      if (!value.has_value()) {
        return Status::OutOfRange("extremum of an empty window");
      }
      return *value;
  }
  return Status::Internal("unknown aggregate function");
}

ItemPtr MakeAggItem(const AggItem& agg) {
  auto node = std::make_unique<xml::XmlNode>("wagg");
  node->AddLeaf("seq", std::to_string(agg.seq));
  if (agg.sum.has_value()) node->AddLeaf("sum", agg.sum->ToString());
  if (agg.count.has_value()) {
    node->AddLeaf("cnt", std::to_string(*agg.count));
  }
  if (agg.value.has_value()) node->AddLeaf("val", agg.value->ToString());
  return MakeItem(std::move(node));
}

Result<AggItem> ParseAggItem(const xml::XmlNode& item) {
  if (item.name() != "wagg") {
    return Status::InvalidArgument("expected a <wagg> item, got <" +
                                   item.name() + ">");
  }
  AggItem agg;
  const xml::XmlNode* seq = item.FirstChild("seq");
  if (seq == nullptr) {
    return Status::InvalidArgument("<wagg> item without <seq>");
  }
  SS_ASSIGN_OR_RETURN(Decimal seq_value, Decimal::Parse(Trim(seq->text())));
  if (seq_value.scale() != 0) {
    return Status::InvalidArgument("<seq> must be integral");
  }
  agg.seq = seq_value.unscaled();
  if (const xml::XmlNode* sum = item.FirstChild("sum")) {
    SS_ASSIGN_OR_RETURN(Decimal value, Decimal::Parse(Trim(sum->text())));
    agg.sum = value;
  }
  if (const xml::XmlNode* count = item.FirstChild("cnt")) {
    SS_ASSIGN_OR_RETURN(Decimal value, Decimal::Parse(Trim(count->text())));
    if (value.scale() != 0) {
      return Status::InvalidArgument("<cnt> must be integral");
    }
    agg.count = value.unscaled();
  }
  if (const xml::XmlNode* value = item.FirstChild("val")) {
    SS_ASSIGN_OR_RETURN(Decimal parsed, Decimal::Parse(Trim(value->text())));
    agg.value = parsed;
  }
  return agg;
}

WindowAggOp::WindowAggOp(std::string label, AggregateFunc func,
                         xml::Path aggregated_element, WindowSpec window,
                         bool resume)
    : Operator(std::move(label)),
      func_(func),
      aggregated_element_(std::move(aggregated_element)),
      tracker_(std::move(window)) {
  if (resume) tracker_.EnableResume();
  if (tracker_.window().type != WindowType::kCount) {
    ref_node_ = PhotonSchema::Resolve(tracker_.window().reference);
    ref_path_ = tracker_.window().reference.ToString();
  }
  agg_node_ = PhotonSchema::Resolve(aggregated_element_);
  agg_path_ = aggregated_element_.ToString();
}

size_t WindowAggOp::OpenWindowCount() const {
  size_t open = 0;
  for (const auto& [seq, window] : open_) {
    if (window.count > 0) ++open;
  }
  return open;
}

void WindowAggOp::Accumulate(WindowState* window, const Decimal& value) {
  window->sum = window->sum + value;
  window->count += 1;
  if (!window->extremum.has_value()) {
    window->extremum = value;
  } else if (func_ == AggregateFunc::kMin) {
    if (value < *window->extremum) window->extremum = value;
  } else if (func_ == AggregateFunc::kMax) {
    if (value > *window->extremum) window->extremum = value;
  }
}

void WindowAggOp::AppendWindow(int64_t seq, const WindowState& window,
                               const latency::ItemStamp& stamp) {
  AggItem agg;
  agg.seq = seq;
  if (func_ == AggregateFunc::kMin || func_ == AggregateFunc::kMax) {
    agg.value = window.extremum;
    // Empty extremum windows are emitted valueless so that sequence
    // numbers stay contiguous for downstream recombination.
  } else {
    agg.sum = window.sum;
    agg.count = window.count;
  }
  scratch_.AppendItem(MakeAggItem(agg), /*adopt=*/false, stamp);
}

namespace {

/// Advances `tracker` past one item; `reference` yields the item's
/// reference value (read only by time-based windows).
template <typename ReferenceFn>
Result<WindowTracker::Update> Advance(WindowTracker* tracker,
                                      ReferenceFn reference) {
  if (tracker->window().type == WindowType::kCount) {
    return tracker->OnItemCount();
  }
  Result<Decimal> ref = reference();
  if (!ref.ok()) {
    return ref.status().WithContext("time-based window reference element");
  }
  return tracker->OnPosition(*ref);
}

}  // namespace

Status WindowAggOp::ProcessSlot(const ItemBatch::Slot& slot) {
  // Record slots read the compiled schema lookups; opaque slots evaluate
  // the path on their tree. Both yield the same values and statuses.
  auto value_of = [&slot](const xml::Path& path, int node,
                          const std::string& path_string) {
    return slot.is_record ? ExtractRecordValue(slot.record, node, path_string)
                          : predicate::ExtractValue(*slot.item, path);
  };
  auto reference = [&] {
    return value_of(tracker_.window().reference, ref_node_, ref_path_);
  };
  SS_ASSIGN_OR_RETURN(WindowTracker::Update update,
                      Advance(&tracker_, reference));
  for (int64_t seq : update.closed) {
    AppendWindow(seq, open_[seq], slot.stamp);  // empty windows too
    open_.erase(seq);
  }
  SS_ASSIGN_OR_RETURN(Decimal value, [&]() -> Result<Decimal> {
    if (func_ == AggregateFunc::kCount && aggregated_element_.empty()) {
      return Decimal::FromInt(1);  // count(*) style
    }
    return value_of(aggregated_element_, agg_node_, agg_path_);
  }());
  for (int64_t seq : update.contains) {
    Accumulate(&open_[seq], value);
  }
  return Status::Ok();
}

Status WindowAggOp::ProcessBatch(ItemBatch* batch) {
  Status failure;
  for (size_t i = 0; i < batch->size() && failure.ok(); ++i) {
    failure = ProcessSlot(batch->slot(i));
  }
  return FlushScratch(&scratch_, std::move(failure));
}

Status WindowAggOp::OnFinish() {
  // Emit windows that already have content; never-filled trailing windows
  // are dropped (the stream ended inside them).
  for (int64_t seq : tracker_.Flush()) {
    auto it = open_.find(seq);
    if (it != open_.end() && it->second.count > 0) {
      AppendWindow(seq, it->second, latency::ItemStamp());
    }
  }
  open_.clear();
  return FlushScratch(&scratch_);
}

WindowContentsOp::WindowContentsOp(std::string label, WindowSpec window,
                                   bool resume)
    : Operator(std::move(label)), tracker_(std::move(window)) {
  if (resume) tracker_.EnableResume();
}

size_t WindowContentsOp::OpenWindowCount() const {
  size_t open = 0;
  for (const auto& [seq, members] : open_) {
    if (!members.empty()) ++open;
  }
  return open;
}

void WindowContentsOp::AppendWindow(int64_t seq,
                                    const latency::ItemStamp& stamp) {
  auto node = std::make_unique<xml::XmlNode>("window");
  node->AddLeaf("seq", std::to_string(seq));
  auto it = open_.find(seq);
  if (it != open_.end()) {
    for (const ItemPtr& member : it->second) {
      node->AddChild(member->Clone());
    }
    open_.erase(it);
  }
  scratch_.AppendItem(MakeItem(std::move(node)), /*adopt=*/false, stamp);
}

Status WindowContentsOp::ProcessBatch(ItemBatch* batch) {
  Status failure;
  for (size_t i = 0; i < batch->size(); ++i) {
    const ItemPtr& item = batch->Materialize(i);
    Result<WindowTracker::Update> update = Advance(&tracker_, [&] {
      return predicate::ExtractValue(*item, tracker_.window().reference);
    });
    if (!update.ok()) {
      failure = update.status();
      break;
    }
    for (int64_t seq : update->closed) {
      AppendWindow(seq, batch->slot(i).stamp);
    }
    for (int64_t seq : update->contains) {
      open_[seq].push_back(item);
    }
  }
  return FlushScratch(&scratch_, std::move(failure));
}

Status WindowContentsOp::OnFinish() {
  for (int64_t seq : tracker_.Flush()) {
    auto it = open_.find(seq);
    if (it != open_.end() && !it->second.empty()) {
      AppendWindow(seq, latency::ItemStamp());
    }
  }
  open_.clear();
  return FlushScratch(&scratch_);
}

AggCombineOp::AggCombineOp(std::string label, AggregateFunc func,
                           WindowSpec fine, WindowSpec coarse)
    : Operator(std::move(label)), func_(func) {
  // The MatchAggregations divisibility rules guarantee exactness here.
  int scale = std::max({fine.size.scale(), fine.step.scale(),
                        coarse.size.scale(), coarse.step.scale()});
  int64_t fine_step = fine.step.Rescaled(scale).unscaled();
  fine_size_steps_ = fine.size.Rescaled(scale).unscaled() / fine_step;
  coarse_size_steps_ = coarse.size.Rescaled(scale).unscaled() / fine_step;
  coarse_step_steps_ = coarse.step.Rescaled(scale).unscaled() / fine_step;
}

size_t AggCombineOp::OpenWindowCount() const {
  // Coarse windows at or past next_coarse_ with at least one buffered
  // fine part: partially recombined state a teardown destroys.
  if (buffer_.empty()) return 0;
  const int64_t parts = coarse_size_steps_ / fine_size_steps_;
  size_t open = 0;
  int64_t last = buffer_.rbegin()->first / coarse_step_steps_ + 1;
  for (int64_t j = next_coarse_; j <= last; ++j) {
    for (int64_t t = 0; t < parts; ++t) {
      if (buffer_.count(j * coarse_step_steps_ + t * fine_size_steps_)) {
        ++open;
        break;
      }
    }
  }
  return open;
}

Status AggCombineOp::ProcessBatch(ItemBatch* batch) {
  Status failure;
  for (size_t i = 0; i < batch->size(); ++i) {
    Result<AggItem> agg = ParseAggItem(*batch->Materialize(i));
    if (!agg.ok()) {
      failure = agg.status();
      break;
    }
    if (first_fine_seen_ < 0) first_fine_seen_ = agg->seq;
    max_fine_seen_ = std::max(max_fine_seen_, agg->seq);
    buffer_[agg->seq] = *agg;
    AppendComplete(batch->slot(i).stamp);
  }
  return FlushScratch(&scratch_, std::move(failure));
}

AggItem AggCombineOp::Recombine(int64_t seq) const {
  const bool extremum =
      func_ == AggregateFunc::kMin || func_ == AggregateFunc::kMax;
  const int64_t parts = coarse_size_steps_ / fine_size_steps_;
  const int64_t base = seq * coarse_step_steps_;
  AggItem coarse;
  coarse.seq = seq;
  Decimal sum;
  int64_t count = 0;
  for (int64_t t = 0; t < parts; ++t) {
    auto it = buffer_.find(base + t * fine_size_steps_);
    if (it == buffer_.end()) continue;
    const AggItem& fine = it->second;
    if (!extremum) {
      if (fine.sum.has_value()) sum = sum + *fine.sum;
      if (fine.count.has_value()) count += *fine.count;
    } else if (fine.value.has_value()) {  // empty fine windows carry none
      if (!coarse.value.has_value() ||
          (func_ == AggregateFunc::kMin ? *fine.value < *coarse.value
                                        : *fine.value > *coarse.value)) {
        coarse.value = fine.value;
      }
    }
  }
  if (!extremum) {
    coarse.sum = sum;
    coarse.count = count;
  }
  return coarse;
}

void AggCombineOp::AppendComplete(const latency::ItemStamp& stamp) {
  const int64_t parts = coarse_size_steps_ / fine_size_steps_;
  while (true) {
    // Fine windows needed for coarse window next_coarse_.
    int64_t base = next_coarse_ * coarse_step_steps_;
    bool all_present = true;
    bool impossible = false;
    for (int64_t t = 0; t < parts; ++t) {
      int64_t needed = base + t * fine_size_steps_;
      if (buffer_.find(needed) == buffer_.end()) {
        all_present = false;
        if (first_fine_seen_ >= 0 && needed < first_fine_seen_) {
          impossible = true;  // the stream started after this window
        }
        break;
      }
    }
    if (impossible) {
      ++next_coarse_;
      continue;
    }
    if (!all_present) return;

    scratch_.AppendItem(MakeAggItem(Recombine(next_coarse_)),
                        /*adopt=*/false, stamp);
    ++next_coarse_;
    // Evict fine windows below the next coarse window's first need.
    buffer_.erase(buffer_.begin(),
                  buffer_.lower_bound(next_coarse_ * coarse_step_steps_));
  }
}

Status AggCombineOp::OnFinish() {
  // End of stream: mirror WindowAggOp's flush semantics exactly. The
  // direct coarse aggregation emits its still-open windows when they hold
  // data; here the trailing fine windows were flushed as partials (or
  // dropped when empty), so combining whatever parts are present yields
  // the same partial coarse values. Empty trailing windows stay silent.
  while (next_coarse_ * coarse_step_steps_ <= max_fine_seen_) {
    AggItem coarse = Recombine(next_coarse_);
    if (coarse.value.has_value() || coarse.count.value_or(0) > 0) {
      scratch_.AppendItem(MakeAggItem(coarse), /*adopt=*/false);
    }
    ++next_coarse_;
  }
  buffer_.clear();
  return FlushScratch(&scratch_);
}

Status AggFilterOp::ProcessBatch(ItemBatch* batch) {
  Status failure;
  for (size_t i = 0; i < batch->size() && failure.ok(); ++i) {
    failure = [&]() -> Status {
      SS_ASSIGN_OR_RETURN(AggItem agg, ParseAggItem(*batch->Materialize(i)));
      Result<Decimal> value = agg.Finalize(func_);
      if (!value.ok()) {
        // Empty windows have no value to filter on and are dropped.
        return value.status().IsOutOfRange() ? Status::Ok() : value.status();
      }
      for (const predicate::AtomicPredicate& pred : predicates_) {
        if (pred.rhs_var.has_value()) {
          return Status::Unsupported(
              "aggregate filters only compare against constants");
        }
        if (!predicate::Compare(*value, pred.op, pred.constant)) {
          return Status::Ok();
        }
      }
      scratch_.AppendSlot(*batch, i);
      return Status::Ok();
    }();
  }
  return FlushScratch(&scratch_, std::move(failure));
}

}  // namespace streamshare::engine
