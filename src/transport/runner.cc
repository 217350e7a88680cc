#include "transport/runner.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/codec.h"
#include "engine/executor.h"
#include "engine/latency.h"
#include "engine/link_queue.h"
#include "engine/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace streamshare::transport {

namespace {

using engine::LinkQueue;
using engine::Metrics;
using engine::Operator;
using engine::PartitionPlan;

/// Registry series fed by every worker's dispatch loop. Looked up once;
/// updates are per-shard relaxed adds on the worker's pinned shard.
struct ParallelSeries {
  obs::Counter* items;
  obs::Counter* batches;
  obs::Histogram* batch_items;

  static const ParallelSeries& Get() {
    static const ParallelSeries series = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      return ParallelSeries{
          registry.GetCounter("engine.parallel.items"),
          registry.GetCounter("engine.parallel.batches"),
          registry.GetHistogram("engine.parallel.batch_items",
                                obs::Histogram::ExponentialBounds(1, 2, 12)),
      };
    }();
    return series;
  }
};

/// Prefix marking an error a worker merely relayed from upstream, so a
/// reader can tell a relay from the error that originated the failure.
constexpr std::string_view kRelayPrefix = "upstream worker failure: ";

class AbortState {
 public:
  void Record(Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = std::move(status);
    aborted_.store(true, std::memory_order_release);
  }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  Status Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

 private:
  std::mutex mu_;
  Status first_error_ = Status::Ok();
  std::atomic<bool> aborted_{false};
};

/// Sending half of a cross edge: encodes the item with the channel's
/// dictionary and ships it to the target's operator index. Lives on the
/// source worker's thread; never bills engine metrics (the replaced
/// edge's target still does its own accounting when the target worker
/// pushes into it).
class TransportPortOp final : public Operator {
 public:
  TransportPortOp(Operator* target, uint64_t target_index,
                  ChannelSender* sender, engine::ItemEncoder* encoder,
                  EdgeTrafficStats* edge)
      : Operator("transport-port:" + target->label()),
        target_index_(target_index),
        sender_(sender),
        encoder_(encoder),
        edge_(edge) {}

 protected:
  /// Record slots encode straight from the record's schema walk — same
  /// wire bytes and dictionary state as encoding the materialized tree,
  /// minus the tree. Encoded result slots go through their tree: the
  /// link's dictionary differs from their self-contained one.
  Status ProcessBatch(engine::ItemBatch* batch) override {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
    for (size_t i = 0; i < batch->size(); ++i) {
      const engine::ItemBatch::Slot& slot = batch->slot(i);
      buffer_.clear();
      const bool tracing = recorder.enabled();
      uint64_t start = tracing ? recorder.NowMicros() : 0;
      if (slot.is_record) {
        encoder_->EncodeRecord(slot.record, &buffer_);
      } else {
        encoder_->Encode(*batch->Materialize(i), &buffer_);
      }
      if (tracing) {
        recorder.RecordComplete(
            "codec.encode", "transport", start,
            recorder.NowMicros() - start,
            {obs::TraceArg::Num("bytes",
                                static_cast<double>(buffer_.size()))});
      }
      ++edge_->items;
      edge_->encoded_bytes += buffer_.size();
      SS_RETURN_IF_ERROR(
          sender_->SendItem(target_index_, buffer_, slot.stamp));
    }
    return Status::Ok();
  }

 private:
  uint64_t target_index_;
  ChannelSender* sender_;
  engine::ItemEncoder* encoder_;
  EdgeTrafficStats* edge_;
  std::string buffer_;
};

/// One channel between a pair of workers. Its sender end (and the shared
/// per-channel encoder) is driven by the source worker's thread, its
/// receiver end by one receiver thread on the target worker.
struct ChannelRt {
  size_t source_worker = 0;
  size_t target_worker = 0;
  std::unique_ptr<ChannelSender> sender;
  std::unique_ptr<ChannelReceiver> receiver;
  engine::ItemEncoder encoder;
};

struct WorkerRt {
  size_t index = 0;
  std::vector<network::NodeId> peers;
  size_t operator_count = 0;
  std::unique_ptr<LinkQueue> queue;
  /// Boundary operators finished once all pills arrived: entries assigned
  /// here plus targets of inbound cross edges, in discovery order.
  std::vector<Operator*> roots;
  std::set<Operator*> root_set;
  std::vector<ChannelRt*> inbound;
  std::vector<ChannelRt*> outbound;
  /// Whether the feeder sends this worker entry batches (and one pill).
  bool fed = false;
  size_t expected_pills = 0;
  /// Worker-local metrics shard per original Metrics sink.
  std::map<Metrics*, std::unique_ptr<Metrics>> shards;

  void AddRoot(Operator* op) {
    if (root_set.insert(op).second) roots.push_back(op);
  }
};

/// Everything the threads of one run share.
struct RunContext {
  const PartitionPlan& plan;
  const std::vector<Operator*>& entries;
  std::vector<std::vector<engine::ItemBatch>>* batch_lists;
  std::vector<WorkerRt>& workers;
  const engine::ParallelOptions& options;
  bool finish;
  bool stamp;
  AbortState abort;
};

/// Receiver thread: one per inbound channel. Decodes DATA frames
/// into the worker's bounded queue and grants a credit only after the
/// push went through — that handoff is what extends queue backpressure
/// across the wire. Ends with one poison pill, whatever happened.
void ReceiveChannel(RunContext* ctx, WorkerRt* w, ChannelRt* ch) {
  obs::ScopedShard pinned(w->index);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  const PartitionPlan& plan = ctx->plan;
  engine::ItemDecoder decoder;
  while (true) {
    ChannelReceiver::Incoming in;
    Status status = ch->receiver->Recv(&in);
    if (!status.ok()) {
      ctx->abort.Record(std::move(status));
      break;
    }
    if (in.type == FrameType::kEos) break;
    if (in.type == FrameType::kError) {
      ctx->abort.Record(
          Status::Internal(std::string(kRelayPrefix) + in.error));
      break;
    }
    if (in.target >= plan.ops.size() ||
        plan.worker_of[in.target] != w->index) {
      ctx->abort.Record(Status::Internal(
          "channel " + ch->receiver->label() +
          ": DATA frame routed to a foreign operator index"));
      break;
    }
    engine::ItemBatch::Slot slot;
    const bool tracing = recorder.enabled();
    uint64_t start = tracing ? recorder.NowMicros() : 0;
    Status decoded = decoder.DecodeSlot(in.item_bytes, &slot);
    if (tracing) {
      recorder.RecordComplete(
          "codec.decode", "transport", start, recorder.NowMicros() - start,
          {obs::TraceArg::Num("bytes",
                              static_cast<double>(in.item_bytes.size()))});
    }
    if (!decoded.ok()) {
      ctx->abort.Record(
          decoded.WithContext("channel " + ch->receiver->label()));
      break;
    }
    // The wire carries the stamp outside the item bytes; restore it onto
    // the decoded slot so it keeps riding toward the sink.
    slot.stamp = in.stamp;
    LinkQueue::Entry entry;
    entry.target = plan.ops[in.target];
    entry.batch.AppendSlot(slot);
    w->queue->Push(std::move(entry));
    ch->receiver->GrantCredit(1);
  }
  // Close promptly: the sender side holds its end open until this close
  // arrives (DrainUntilPeerClose), which keeps TCP teardown orderly.
  ch->receiver->Close();
  w->queue->Push(LinkQueue::Entry{});
}

/// The feeder: forwards every entry stream's batches into its worker's
/// queue (round-robin across streams, one batch per stream per round,
/// per-stream order preserved), then one pill into every worker it fed.
/// Each batch crosses the queue as one entry (one lock, one wakeup) and,
/// when the run stamps, costs one clock read for its ingress stamp.
void FeedStreams(RunContext* ctx) {
  const size_t stream_count = ctx->entries.size();
  std::vector<LinkQueue*> queues(stream_count);
  std::vector<size_t> cursors(stream_count, 0);
  std::vector<size_t> active;
  for (size_t i = 0; i < stream_count; ++i) {
    queues[i] = ctx->workers[ctx->plan.WorkerOf(ctx->entries[i])].queue.get();
    if (!(*ctx->batch_lists)[i].empty()) active.push_back(i);
  }
  while (!active.empty() && !ctx->abort.aborted()) {
    size_t write = 0;
    for (size_t idx = 0; idx < active.size(); ++idx) {
      size_t i = active[idx];
      std::vector<engine::ItemBatch>& batches = (*ctx->batch_lists)[i];
      engine::ItemBatch& batch = batches[cursors[i]++];
      if (!batch.empty()) {
        if (ctx->stamp) batch.StampIngress(engine::latency::NowUs());
        queues[i]->Push(LinkQueue::Entry{ctx->entries[i], std::move(batch)});
      }
      if (cursors[i] < batches.size()) active[write++] = i;
    }
    active.resize(write);
  }
  std::set<LinkQueue*> fed(queues.begin(), queues.end());
  for (LinkQueue* queue : fed) queue->Push(LinkQueue::Entry{});
}

/// One worker: receiver threads for its inbound channels around the
/// dispatch loop, Finish() on its boundary operators once every producer's
/// pill arrived, then end of stream (or the first error) down every
/// outbound channel.
void RunWorker(RunContext* ctx, WorkerRt* w) {
  obs::ScopedShard pinned(w->index);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  if (recorder.enabled()) {
    std::string name = "worker-" + std::to_string(w->index);
    if (!w->peers.empty()) {
      name += " [";
      for (size_t i = 0; i < w->peers.size(); ++i) {
        if (i > 0) name += ",";
        name += "SP" + std::to_string(w->peers[i]);
      }
      name += "]";
    }
    recorder.SetThreadName(std::move(name));
  }
  const ParallelSeries& series = ParallelSeries::Get();
  AbortState& abort = ctx->abort;

  std::vector<std::thread> receivers;
  for (ChannelRt* ch : w->inbound) {
    receivers.emplace_back(ReceiveChannel, ctx, w, ch);
  }

  const size_t batch_size = ctx->options.batch_size;
  std::vector<LinkQueue::Entry> batch;
  batch.reserve(batch_size);
  size_t pills = 0;
  while (pills < w->expected_pills) {
    batch.clear();
    w->queue->PopBatch(&batch, batch_size);
    for (LinkQueue::Entry& entry : batch) {
      if (entry.target == nullptr) {
        ++pills;
        continue;
      }
      if (abort.aborted()) continue;  // drain without processing
      const bool tracing = recorder.enabled();
      uint64_t span_start = tracing ? recorder.NowMicros() : 0;
      Status status = entry.target->PushBatch(&entry.batch);
      if (tracing) {
        recorder.RecordComplete(
            entry.target->label(), "op", span_start,
            recorder.NowMicros() - span_start,
            {obs::TraceArg::Num("items",
                                static_cast<double>(entry.batch.size()))});
      }
      series.items->AddToShard(w->index, entry.batch.size());
      series.batches->AddToShard(w->index, 1);
      series.batch_items->ObserveToShard(
          w->index, static_cast<double>(entry.batch.size()));
      if (!status.ok()) {
        abort.Record(engine::WrapOperatorFailure(std::move(status), "push",
                                                 *entry.target));
      }
    }
  }
  if (ctx->finish && !abort.aborted()) {
    for (Operator* root : w->roots) {
      obs::TraceSpan finish_span(&recorder, "finish:" + root->label(), "op");
      Status status = root->Finish();
      if (!status.ok()) {
        abort.Record(
            engine::WrapOperatorFailure(std::move(status), "finish", *root));
        break;
      }
    }
  }
  for (ChannelRt* ch : w->outbound) {
    Status status = abort.aborted()
                        ? ch->sender->SendError(abort.Snapshot().ToString())
                        : ch->sender->SendEos();
    if (!status.ok() && !abort.aborted()) abort.Record(std::move(status));
  }
  // Only after EOS went down every wire: wait (bounded) for each peer to
  // acknowledge by closing its end, so no channel still has unread CREDIT
  // frames when its fds close. A close that skips this can turn into a TCP
  // reset that destroys the peer's still-buffered EOS.
  for (ChannelRt* ch : w->outbound) ch->sender->DrainUntilPeerClose();
  for (std::thread& receiver : receivers) receiver.join();
}

}  // namespace

PartitionedRunner::PartitionedRunner(Transport& transport,
                                     RunnerOptions options)
    : transport_(transport), options_(std::move(options)) {
  if (options_.parallel.queue_capacity == 0) {
    options_.parallel.queue_capacity = 1;
  }
  if (options_.parallel.batch_size == 0) options_.parallel.batch_size = 1;
}

Status PartitionedRunner::Run(
    const std::vector<Operator*>& entries,
    std::vector<std::vector<engine::ItemBatch>>* batch_lists, bool finish,
    bool stamp) {
  run_stats_ = RunStats{};
  run_stats_.transport = transport_.name();
  if (entries.size() != batch_lists->size()) {
    return Status::InvalidArgument(
        "PartitionedRunner::Run: entries and batch lists differ in count");
  }

  PartitionPlan plan;
  SS_RETURN_IF_ERROR(engine::PlanPeerPartitions(entries, &plan));

  // Content hashes make cross-executor result comparison cheap.
  for (Operator* op : plan.ops) {
    if (auto* sink = dynamic_cast<engine::SinkOp*>(op)) {
      sink->EnableContentHash();
    }
  }

  const size_t worker_count = plan.worker_count;
  std::vector<WorkerRt> workers(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    workers[w].index = w;
    workers[w].peers = plan.worker_peers[w];
    workers[w].operator_count = plan.worker_operator_count[w];
    workers[w].queue =
        std::make_unique<LinkQueue>(options_.parallel.queue_capacity);
    if (stamp) {
      workers[w].queue->SetResidencyHistogram(
          obs::MetricsRegistry::Default().GetHistogram(
              "engine.queue.worker." + std::to_string(w) + ".residency_us",
              obs::Histogram::ExponentialBounds(50.0, 1.6, 24)));
    }
  }
  for (size_t s = 0; s < entries.size(); ++s) {
    WorkerRt& w = workers[plan.WorkerOf(entries[s])];
    w.fed = true;
    w.AddRoot(entries[s]);
  }

  // --- One channel per worker pair with cross traffic. ---
  std::vector<std::unique_ptr<ChannelRt>> channels;
  std::map<std::pair<size_t, size_t>, ChannelRt*> channel_of;
  for (const PartitionPlan::CrossEdge& edge : plan.cross_edges) {
    size_t src = plan.worker_of[edge.source];
    size_t dst = plan.worker_of[edge.target];
    auto key = std::make_pair(src, dst);
    if (channel_of.count(key) != 0) continue;
    auto channel = std::make_unique<ChannelRt>();
    channel->source_worker = src;
    channel->target_worker = dst;
    std::string label =
        "w" + std::to_string(src) + "->w" + std::to_string(dst);
    PipePair pair;
    SS_RETURN_IF_ERROR(transport_.CreatePipe(label, &pair));
    channel->sender = std::make_unique<ChannelSender>(
        label, std::move(pair.ends[0]), options_.flow, options_.faults);
    channel->receiver = std::make_unique<ChannelReceiver>(
        label, std::move(pair.ends[1]), options_.flow, options_.faults);
    workers[src].outbound.push_back(channel.get());
    workers[dst].inbound.push_back(channel.get());
    channel_of[key] = channel.get();
    channels.push_back(std::move(channel));
  }
  for (size_t w = 0; w < worker_count; ++w) {
    workers[w].expected_pills =
        workers[w].inbound.size() + (workers[w].fed ? 1 : 0);
  }

  // Edge stats live in run_stats_ so the ports can fill them in place;
  // the vector is fully sized before any worker starts.
  run_stats_.edges.reserve(plan.cross_edges.size());
  for (const PartitionPlan::CrossEdge& edge : plan.cross_edges) {
    EdgeTrafficStats stats;
    stats.source_op = edge.source;
    stats.target_op = edge.target;
    stats.source_worker = plan.worker_of[edge.source];
    stats.target_worker = plan.worker_of[edge.target];
    if (auto* link_op = dynamic_cast<engine::LinkOp*>(plan.ops[edge.source])) {
      stats.link = static_cast<int>(link_op->link());
    }
    run_stats_.edges.push_back(stats);
  }

  // --- Splice a port into every cross edge. ---
  struct Splice {
    Operator* source;
    Operator* original;
    std::unique_ptr<Operator> port;
  };
  std::vector<Splice> splices;
  splices.reserve(plan.cross_edges.size());
  for (size_t e = 0; e < plan.cross_edges.size(); ++e) {
    const PartitionPlan::CrossEdge& edge = plan.cross_edges[e];
    Operator* source = plan.ops[edge.source];
    Operator* target = plan.ops[edge.target];
    size_t dst = plan.worker_of[edge.target];
    ChannelRt* channel = channel_of[{plan.worker_of[edge.source], dst}];
    std::unique_ptr<Operator> port = std::make_unique<TransportPortOp>(
        target, edge.target, channel->sender.get(), &channel->encoder,
        &run_stats_.edges[e]);
    source->ReplaceDownstream(target, port.get());
    workers[dst].AddRoot(target);
    splices.push_back(Splice{source, target, std::move(port)});
  }

  // --- Rebind metrics to per-worker shards (the hot path stays lock- and
  // atomic-free). ---
  struct Rebind {
    Operator* op;
    Metrics* original;
    Metrics* shard;
  };
  std::vector<Rebind> rebinds;
  {
    std::vector<Metrics*> targets;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      targets.clear();
      plan.ops[i]->AppendMetricsTargets(&targets);
      WorkerRt& worker = workers[plan.worker_of[i]];
      for (Metrics* original : targets) {
        auto it = worker.shards.find(original);
        if (it == worker.shards.end()) {
          it = worker.shards
                   .emplace(original, std::make_unique<Metrics>(
                                          Metrics::ShardLike(*original)))
                   .first;
        }
        plan.ops[i]->RebindMetrics(original, it->second.get());
        rebinds.push_back(Rebind{plan.ops[i], original, it->second.get()});
      }
    }
  }

  obs::TraceSpan run_span(&obs::TraceRecorder::Default(), "parallel.run",
                          "engine");
  run_span.AddArg(
      obs::TraceArg::Str("channel", std::string(transport_.name())));
  run_span.AddArg(
      obs::TraceArg::Num("workers", static_cast<double>(worker_count)));
  run_span.AddArg(
      obs::TraceArg::Num("operators", static_cast<double>(plan.ops.size())));

  // --- One thread per worker; the calling thread feeds. ---
  RunContext ctx{plan,   entries, batch_lists, workers, options_.parallel,
                 finish, stamp,   {}};
  std::vector<std::thread> threads;
  threads.reserve(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    threads.emplace_back(RunWorker, &ctx, &workers[w]);
  }
  FeedStreams(&ctx);
  for (std::thread& thread : threads) thread.join();
  Status run_status = ctx.abort.Snapshot();

  for (WorkerRt& worker : workers) {
    for (auto& [original, shard] : worker.shards) {
      original->MergeFrom(*shard);
    }
  }
  // Send-side counts from the sender half, deliveries from the receiver.
  run_stats_.channels.reserve(channels.size());
  for (const auto& channel : channels) {
    ChannelTrafficStats stats;
    stats.source_worker = channel->source_worker;
    stats.target_worker = channel->target_worker;
    stats.stats = channel->sender->stats();
    stats.stats.items_delivered = channel->receiver->stats().items_delivered;
    stats.stats.duplicates_discarded =
        channel->receiver->stats().duplicates_discarded;
    stats.stats.faults_credits_dropped =
        channel->receiver->stats().faults_credits_dropped;
    run_stats_.channels.push_back(stats);
  }
  run_stats_.workers.resize(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    engine::ParallelWorkerStats& stats = run_stats_.workers[w];
    const LinkQueue& queue = *workers[w].queue;
    stats.peers = workers[w].peers;
    stats.operator_count = workers[w].operator_count;
    stats.entries_received = queue.pushed_count();
    stats.producer_blocked_ns = queue.producer_blocked_ns();
    stats.consumer_blocked_ns = queue.consumer_blocked_ns();
    stats.max_queue_depth = queue.max_depth();
  }

  // --- Restore the serial wiring and metrics bindings. ---
  for (Splice& splice : splices) {
    splice.source->ReplaceDownstream(splice.port.get(), splice.original);
  }
  for (const Rebind& rebind : rebinds) {
    rebind.op->RebindMetrics(rebind.shard, rebind.original);
  }

  return run_status;
}

}  // namespace streamshare::transport
