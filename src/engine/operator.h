// Push-based streaming operators. An operator receives ItemBatches via
// PushBatch, transforms them, and emits result batches to its downstream
// operators; fan-out (the paper's stream duplication at a super-peer) is
// simply multiple downstreams sharing the immutable items. A slot is a
// compact photon record or an opaque DOM item; an all-opaque run is the
// DOM evaluation the differential oracle diffs the record path against.
// Each operator is placed on a peer and bills work units to the
// deployment's Metrics for every item it receives, so measured per-peer
// CPU load falls out of execution.

#ifndef STREAMSHARE_ENGINE_OPERATOR_H_
#define STREAMSHARE_ENGINE_OPERATOR_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/codec.h"
#include "engine/item.h"
#include "engine/latency.h"
#include "engine/metrics.h"
#include "engine/record.h"
#include "predicate/atomic.h"
#include "xml/path.h"

namespace streamshare::obs {
class Histogram;
}  // namespace streamshare::obs

namespace streamshare::engine {

class Operator {
 public:
  explicit Operator(std::string label) : label_(std::move(label)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const std::string& label() const { return label_; }

  /// Attaches a downstream consumer (not owned).
  void AddDownstream(Operator* downstream) {
    downstreams_.push_back(downstream);
  }
  /// Detaches a downstream consumer (query deregistration); no-op if it
  /// is not attached.
  void RemoveDownstream(Operator* downstream) {
    downstreams_.erase(
        std::remove(downstreams_.begin(), downstreams_.end(), downstream),
        downstreams_.end());
  }
  /// Swaps `from` for `to` in place, preserving emission order. Used by
  /// the partitioned runner to splice channel ports into cross-peer edges
  /// (and to splice the original consumers back afterwards).
  void ReplaceDownstream(Operator* from, Operator* to) {
    std::replace(downstreams_.begin(), downstreams_.end(), from, to);
  }
  const std::vector<Operator*>& downstreams() const { return downstreams_; }

  /// Successors invoked through direct pointers rather than the
  /// downstream list (e.g. a combine port feeding its combiner). They
  /// share this operator's state unsynchronized, so a partitioned
  /// executor must keep them on the same worker.
  virtual void AppendHardSuccessors(std::vector<Operator*>*) {}

  /// Metrics sinks this operator writes to (accounting, link traffic).
  virtual void AppendMetricsTargets(std::vector<Metrics*>* out) {
    if (metrics_ != nullptr) out->push_back(metrics_);
  }
  /// Redirects every metrics pointer currently equal to `from` to `to` —
  /// the partitioned runner points operators at per-worker shards for the
  /// duration of a run, then back.
  virtual void RebindMetrics(Metrics* from, Metrics* to) {
    if (metrics_ == from) metrics_ = to;
  }

  /// Bills `work_per_item` units to `peer` in `metrics` per pushed item.
  void SetAccounting(Metrics* metrics, network::NodeId peer,
                     double work_per_item) {
    metrics_ = metrics;
    peer_ = peer;
    work_per_item_ = work_per_item;
  }
  network::NodeId peer() const { return peer_; }

  /// Feeds a batch of items, billing `work_per_item` once per item
  /// (AddWorkN loops the adds). The batch stays owned by the caller:
  /// receivers may materialize slots (filling the lazy XML cache) but must
  /// not reshape the batch itself.
  Status PushBatch(ItemBatch* batch) {
    if (batch->empty()) return Status::Ok();
    if (metrics_ != nullptr) {
      metrics_->AddWorkN(peer_, work_per_item_, batch->size());
    }
    return ProcessBatch(batch);
  }

  /// Signals end of stream; flushes buffered state downstream. Idempotent.
  Status Finish();

  /// Windows currently open in this operator that hold partial content —
  /// state that is destroyed (not flushed) when the operator is detached
  /// by failure recovery. Stateless operators report 0. Recovery sums
  /// this over a torn-down plan into the recover.lost_windows counter.
  virtual size_t OpenWindowCount() const { return 0; }

 protected:
  /// Processes one non-empty batch. Operators that emit collect their
  /// outputs into a scratch batch; each output slot carries the stamp of
  /// the input slot that produced it. The scratch batch is flushed
  /// downstream *before* an error returns, so a failing run delivers
  /// exactly the outputs of the slots before the failing one (a
  /// downstream failure on those takes precedence: it is the earlier
  /// slot's error).
  virtual Status ProcessBatch(ItemBatch* batch) = 0;
  /// Flush hook for stateful operators; outputs emitted here have no
  /// single originating slot and stay unstamped.
  virtual Status OnFinish() { return Status::Ok(); }

  /// Forwards a batch to all downstreams.
  Status EmitBatch(ItemBatch* batch);
  /// Emits `scratch` (when non-empty) and clears it, then returns
  /// `failure` unless the emit itself failed — the flush-before-error
  /// rule of ProcessBatch.
  Status FlushScratch(ItemBatch* scratch, Status failure = Status::Ok());

 private:
  std::string label_;
  std::vector<Operator*> downstreams_;
  Metrics* metrics_ = nullptr;
  network::NodeId peer_ = -1;
  double work_per_item_ = 0.0;
  bool finished_ = false;
};

/// σ: forwards items satisfying a conjunctive predicate.
class SelectOp : public Operator {
 public:
  SelectOp(std::string label,
           std::vector<predicate::AtomicPredicate> predicates)
      : Operator(std::move(label)), predicates_(std::move(predicates)) {}

  const std::vector<predicate::AtomicPredicate>& predicates() const {
    return predicates_;
  }
  /// Reconfigures the predicate in place — stream widening (paper §6)
  /// relaxes a deployed stream's selection so it regains data a new
  /// subscription needs.
  void set_predicates(std::vector<predicate::AtomicPredicate> predicates) {
    predicates_ = std::move(predicates);
    compiled_valid_ = false;
  }

 protected:
  /// Evaluates the conjunction compiled against the photon schema over
  /// record slots, falling back to tree evaluation for opaque slots.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  std::vector<predicate::AtomicPredicate> predicates_;
  std::vector<CompiledPredicate> compiled_;
  bool compiled_valid_ = false;
  ItemBatch scratch_;
};

/// Π: rebuilds each item keeping only the subtrees covered by the output
/// paths (ancestors of kept subtrees survive as structure).
class ProjectOp : public Operator {
 public:
  ProjectOp(std::string label, std::vector<xml::Path> output_paths)
      : Operator(std::move(label)),
        output_paths_(std::move(output_paths)) {}

  const std::vector<xml::Path>& output_paths() const {
    return output_paths_;
  }
  /// Reconfigures the kept paths in place (stream widening).
  void set_output_paths(std::vector<xml::Path> output_paths) {
    output_paths_ = std::move(output_paths);
    mask_valid_ = false;
  }

 protected:
  /// Projects record slots by mask intersection (no allocation), opaque
  /// slots by the tree rebuild.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  std::vector<xml::Path> output_paths_;
  uint16_t keep_mask_ = 0;
  bool mask_valid_ = false;
  ItemBatch scratch_;
};

/// Transmission over one network connection: counts the item's serialized
/// bytes against the link, then forwards.
class LinkOp : public Operator {
 public:
  LinkOp(std::string label, Metrics* metrics, network::LinkId link)
      : Operator(std::move(label)), link_metrics_(metrics), link_(link) {}

  void AppendMetricsTargets(std::vector<Metrics*>* out) override {
    Operator::AppendMetricsTargets(out);
    if (link_metrics_ != nullptr) out->push_back(link_metrics_);
  }
  void RebindMetrics(Metrics* from, Metrics* to) override {
    Operator::RebindMetrics(from, to);
    if (link_metrics_ == from) link_metrics_ = to;
  }

  /// The topology connection this operator transmits over — lets the
  /// transport layer attribute measured bytes-on-wire to the same link
  /// the cost model predicted u_b(e) for.
  network::LinkId link() const { return link_; }

 protected:
  /// Bills record sizes without materializing, then forwards the batch.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  Metrics* link_metrics_;
  network::LinkId link_;
};

/// Terminal collector: counts items and (optionally) keeps them. Kept
/// deliveries are stored once each, in the codec's self-contained form,
/// in one contiguous log (bytes plus end offsets).
class SinkOp : public Operator {
 public:
  explicit SinkOp(std::string label, bool keep_items = false)
      : Operator(std::move(label)), keep_items_(keep_items) {}

  uint64_t item_count() const { return item_count_; }
  uint64_t total_bytes() const { return total_bytes_; }

  /// Deliveries kept so far (0 unless keep_items).
  size_t retained_results() const { return log_ends_.size(); }
  /// Kept delivery `i` in the self-contained encoding: any Reset()
  /// ItemDecoder reads it on its own.
  std::string_view retained(size_t i) const;
  /// Memory the log holds: encoded bytes plus one 8-byte end offset per
  /// kept delivery.
  size_t retained_bytes() const {
    return log_.size() + log_ends_.size() * sizeof(uint64_t);
  }
  /// The kept deliveries as trees, decoded on demand: each delivery is
  /// decoded once, later calls decode only what arrived since. For tests,
  /// the oracle and benches — the serve daemon ships the encoded log.
  const std::vector<ItemPtr>& items() const;
  /// Frees the kept deliveries (and their decoded trees); item_count(),
  /// total_bytes() and content_hash() are unaffected. Called when the
  /// sink's query is unsubscribed: nothing forwards a departed query's
  /// results.
  void DropRetained();

  /// Starts folding every received item into content_hash() (an
  /// order-insensitive structural hash). Off by default so the hot path
  /// of ordinary runs is unchanged; the transport runner enables it so
  /// a partitioned run's results compare against a serial run's by hash.
  void EnableContentHash() { hash_items_ = true; }
  uint64_t content_hash() const { return content_hash_; }

  /// Starts recording measured end-to-end latency of stamped arrivals
  /// into latency.query.<query>.{e2e_us,stage.*_us} histograms in the
  /// default registry (the sink batches observations locally and folds
  /// them in with Histogram::MergeCounts). Stage attribution: queue-wait
  /// and transport time accumulate in the stamp on the way here, pipeline
  /// time is the end-to-end remainder. Unstamped items are skipped.
  void EnableLatencyRecording(const std::string& query);

  /// e2e histogram installed by EnableLatencyRecording (null before).
  const obs::Histogram* latency_histogram() const { return lat_e2e_; }
  /// Stamped arrivals recorded by this sink instance.
  uint64_t stamped_count() const { return stamped_count_; }
  /// Arrivals whose ingress tick ran backwards vs. the previous stamped
  /// arrival. A serial run feeds and delivers in order, so the fuzz
  /// oracle requires 0 here on its stamped serial run.
  uint64_t stamp_regressions() const { return stamp_regressions_; }

 protected:
  /// Counts, sizes and hashes straight off the slots, and appends kept
  /// deliveries to the log, without materializing a tree.
  Status ProcessBatch(ItemBatch* batch) override;
  /// Folds any batched latency observations into the shared histograms.
  Status OnFinish() override;

 private:
  /// Latency observations accumulate in these plain (single-writer)
  /// shards — a sink is only ever driven by one thread — and fold into
  /// the sharded registry histograms every kLatencyFlushInterval stamped
  /// arrivals and at Finish. Four atomic observes per delivered item
  /// would dominate the record hot path otherwise.
  struct LocalHist {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };
  static void ObserveLocal(LocalHist* local, const obs::Histogram& hist,
                           double value);
  void FlushLatency();
  /// `now` is the arrival tick — NowUs() read once per delivered batch
  /// (slots of one batch share their arrival instant, like a fed chunk
  /// shares its ingress tick).
  void RecordLatency(const latency::ItemStamp& stamp, uint64_t now);
  /// Appends slot `i` of `batch` to the log.
  void Retain(const ItemBatch& batch, size_t i);

  bool keep_items_;
  bool hash_items_ = false;
  uint64_t item_count_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t content_hash_ = 0;
  std::string log_;
  std::vector<uint64_t> log_ends_;
  ItemWriter writer_;
  /// items()' cache: the first materialized_.size() kept deliveries.
  mutable std::vector<ItemPtr> materialized_;
  obs::Histogram* lat_e2e_ = nullptr;
  obs::Histogram* lat_pipeline_ = nullptr;
  obs::Histogram* lat_queue_ = nullptr;
  obs::Histogram* lat_transport_ = nullptr;
  LocalHist loc_e2e_;
  LocalHist loc_pipeline_;
  LocalHist loc_queue_;
  LocalHist loc_transport_;
  uint64_t unflushed_ = 0;
  uint64_t last_ingress_us_ = 0;
  uint64_t stamped_count_ = 0;
  uint64_t stamp_regressions_ = 0;
};

/// Identity operator marking a tap point (stream entry at a node).
class PassOp : public Operator {
 public:
  explicit PassOp(std::string label) : Operator(std::move(label)) {}

 protected:
  Status ProcessBatch(ItemBatch* batch) override { return EmitBatch(batch); }
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_OPERATOR_H_
