#include "transport/runner.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/latency.h"
#include "engine/link_queue.h"
#include "engine/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "transport/codec.h"

namespace streamshare::transport {

namespace {

using engine::ItemPtr;
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

/// Registry series fed once per wire run from the aggregated channel
/// stats.
struct TransportSeries {
  obs::Counter* items_sent;
  obs::Counter* frames_sent;
  obs::Counter* encoded_bytes;
  obs::Counter* wire_bytes;
  obs::Counter* credit_stalls;
  obs::Counter* duplicates_discarded;

  static const TransportSeries& Get() {
    static const TransportSeries series = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      return TransportSeries{
          registry.GetCounter("transport.items_sent"),
          registry.GetCounter("transport.frames_sent"),
          registry.GetCounter("transport.encoded_bytes"),
          registry.GetCounter("transport.wire_bytes"),
          registry.GetCounter("transport.credit_stalls"),
          registry.GetCounter("transport.duplicates_discarded"),
      };
    }();
    return series;
  }
};

/// Prefix marking an error a worker merely relayed from upstream; the
/// multi-process merge prefers the originating worker's error over the
/// relays that cascaded from it.
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

/// Sending half of a cross edge over a memory channel: accumulates
/// emitted slots into a pending ItemBatch and hands the whole batch to
/// the target worker's queue as one entry — one lock acquisition and one
/// wakeup per batch. Lives on the source worker's thread; never bills
/// engine metrics (the replaced edge's target still does its own
/// accounting when the target worker pushes into it).
class QueuePortOp final : public Operator {
 public:
  QueuePortOp(Operator* target, LinkQueue* queue, size_t buffer_limit,
              EdgeTrafficStats* edge)
      : Operator("queue-port:" + target->label()),
        target_(target),
        queue_(queue),
        buffer_limit_(buffer_limit),
        edge_(edge) {
    pending_.reserve(buffer_limit_);
  }

  void Flush() {
    if (pending_.empty()) return;
    edge_->items += pending_.size();
    queue_->Push(LinkQueue::Entry{target_, std::move(pending_)});
    pending_ = engine::ItemBatch();
    pending_.reserve(buffer_limit_);
  }

 protected:
  Status Process(const ItemPtr& item) override {
    pending_.AppendItem(item, /*adopt=*/false);
    // A DOM-path emit carries its latency stamp in the thread-local
    // ambient; persist it on the slot before the batch crosses threads.
    pending_.slot(pending_.size() - 1).stamp = engine::latency::Ambient();
    if (pending_.size() >= buffer_limit_) Flush();
    return Status::Ok();
  }

  Status ProcessBatch(engine::ItemBatch* batch) override {
    for (size_t i = 0; i < batch->size(); ++i) {
      pending_.AppendSlot(batch->slot(i));
      if (pending_.size() >= buffer_limit_) Flush();
    }
    return Status::Ok();
  }

 private:
  Operator* target_;
  LinkQueue* queue_;
  size_t buffer_limit_;
  EdgeTrafficStats* edge_;
  engine::ItemBatch pending_;
};

/// Sending half of a cross edge over a wire channel: encodes the item
/// with the channel's dictionary and ships it to the target's operator
/// index. Never bills engine metrics, like QueuePortOp.
class TransportPortOp final : public Operator {
 public:
  TransportPortOp(Operator* target, uint64_t target_index,
                  ChannelSender* sender, ItemEncoder* encoder,
                  EdgeTrafficStats* edge)
      : Operator("transport-port:" + target->label()),
        target_index_(target_index),
        sender_(sender),
        encoder_(encoder),
        edge_(edge) {}

 protected:
  Status Process(const ItemPtr& item) override {
    buffer_.clear();
    obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
    const bool tracing = recorder.enabled();
    uint64_t start = tracing ? recorder.NowMicros() : 0;
    encoder_->Encode(*item, &buffer_);
    if (tracing) {
      recorder.RecordComplete(
          "codec.encode", "transport", start, recorder.NowMicros() - start,
          {obs::TraceArg::Num("bytes",
                              static_cast<double>(buffer_.size()))});
    }
    ++edge_->items;
    edge_->encoded_bytes += buffer_.size();
    // DOM-path emits carry the latency stamp in the thread-local ambient;
    // it crosses the wire as the v2 frame extension.
    return sender_->SendItem(target_index_, buffer_,
                             engine::latency::Ambient());
  }

  /// Record slots encode straight from the record's schema walk — same
  /// wire bytes and dictionary state as encoding the materialized tree,
  /// minus the tree.
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
        encoder_->Encode(*slot.item, &buffer_);
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
  ItemEncoder* encoder_;
  EdgeTrafficStats* edge_;
  std::string buffer_;
};

/// One channel between a pair of workers. A memory channel is its ports
/// plus the target worker's queue. A wire channel's sender end (and the
/// shared per-channel encoder) is driven by the source worker's thread,
/// its receiver end by one receiver thread on the target worker.
struct ChannelRt {
  size_t source_worker = 0;
  size_t target_worker = 0;
  LinkQueue* target_queue = nullptr;
  std::vector<QueuePortOp*> memory_ports;
  /// Null on a memory channel.
  std::unique_ptr<ChannelSender> sender;
  std::unique_ptr<ChannelReceiver> receiver;
  ItemEncoder encoder;
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
  /// Indices into entries/item_lists this worker is fed.
  std::vector<size_t> entry_streams;
  size_t expected_pills = 0;
  /// Worker-local metrics shard per original Metrics sink.
  std::map<Metrics*, std::unique_ptr<Metrics>> shards;

  void AddRoot(Operator* op) {
    if (root_set.insert(op).second) roots.push_back(op);
  }
};

/// Everything the threads of one run share. In process mode each child
/// works on its own post-fork copy.
struct RunContext {
  const PartitionPlan& plan;
  const std::vector<Operator*>& entries;
  const std::vector<std::vector<ItemPtr>>& item_lists;
  std::vector<WorkerRt>& workers;
  const engine::ParallelOptions& options;
  bool finish;
  AbortState abort;
};

/// Receiver thread: one per inbound wire channel. Decodes DATA frames
/// into the worker's bounded queue and grants a credit only after the
/// push went through — that handoff is what extends queue backpressure
/// across the wire. Ends with one poison pill, whatever happened.
void ReceiveChannel(RunContext* ctx, WorkerRt* w, ChannelRt* ch) {
  obs::ScopedShard pinned(w->index);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  const PartitionPlan& plan = ctx->plan;
  ItemDecoder decoder;
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
  // arrives (DrainUntilPeerClose), which keeps TCP teardown orderly when
  // each worker is its own process.
  ch->receiver->Close();
  w->queue->Push(LinkQueue::Entry{});
}

/// The feeder: pushes the entry streams `streams` into their workers'
/// queues (round-robin across streams, per-stream order preserved), then
/// one pill into every worker it fed. Items are adopted into compact
/// records while buffering; each full batch crosses the queue as one
/// entry (one lock, one wakeup).
void FeedStreams(RunContext* ctx, const std::vector<size_t>& streams) {
  const size_t batch_size = ctx->options.batch_size;
  std::vector<LinkQueue*> queues(streams.size());
  std::vector<engine::ItemBatch> buffers(streams.size());
  std::vector<size_t> cursors(streams.size(), 0);
  std::vector<size_t> active;
  for (size_t i = 0; i < streams.size(); ++i) {
    queues[i] =
        ctx->workers[ctx->plan.WorkerOf(ctx->entries[streams[i]])].queue.get();
    buffers[i].reserve(batch_size);
    if (!ctx->item_lists[streams[i]].empty()) active.push_back(i);
  }
  const bool stamping = engine::latency::Enabled();
  while (!active.empty() && !ctx->abort.aborted()) {
    size_t write = 0;
    for (size_t idx = 0; idx < active.size(); ++idx) {
      size_t i = active[idx];
      const std::vector<ItemPtr>& items = ctx->item_lists[streams[i]];
      buffers[i].AppendItem(items[cursors[i]++], ctx->options.adopt_records);
      if (stamping) {
        buffers[i].slot(buffers[i].size() - 1).stamp.ingress_us =
            engine::latency::NowUs();
      }
      if (buffers[i].size() >= batch_size) {
        queues[i]->Push(
            LinkQueue::Entry{ctx->entries[streams[i]], std::move(buffers[i])});
        buffers[i] = engine::ItemBatch();
        buffers[i].reserve(batch_size);
      }
      if (cursors[i] < items.size()) active[write++] = i;
    }
    active.resize(write);
  }
  if (!ctx->abort.aborted()) {
    for (size_t i = 0; i < streams.size(); ++i) {
      if (buffers[i].empty()) continue;
      queues[i]->Push(
          LinkQueue::Entry{ctx->entries[streams[i]], std::move(buffers[i])});
    }
  }
  std::set<LinkQueue*> fed(queues.begin(), queues.end());
  for (LinkQueue* queue : fed) queue->Push(LinkQueue::Entry{});
}

/// One worker: receiver threads for its inbound wire channels around the
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
  const bool count_metrics = obs::Enabled();
  AbortState& abort = ctx->abort;

  std::vector<std::thread> receivers;
  for (ChannelRt* ch : w->inbound) {
    if (ch->receiver != nullptr) {
      receivers.emplace_back(ReceiveChannel, ctx, w, ch);
    }
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
      if (count_metrics) {
        series.items->AddToShard(w->index, entry.batch.size());
        series.batches->AddToShard(w->index, 1);
        series.batch_items->ObserveToShard(
            w->index, static_cast<double>(entry.batch.size()));
      }
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
    if (ch->sender == nullptr) {
      if (!abort.aborted()) {
        for (QueuePortOp* port : ch->memory_ports) port->Flush();
      }
      ch->target_queue->Push(LinkQueue::Entry{});
      continue;
    }
    Status status = abort.aborted()
                        ? ch->sender->SendError(abort.Snapshot().ToString())
                        : ch->sender->SendEos();
    if (!status.ok() && !abort.aborted()) abort.Record(std::move(status));
  }
  // Only after EOS went down every wire: wait (bounded) for each peer to
  // acknowledge by closing its end, so no channel still has unread CREDIT
  // frames when this worker's fds close. A process-mode exit that skips
  // this can turn into a TCP reset that destroys the peer's still-buffered
  // EOS.
  for (ChannelRt* ch : w->outbound) {
    if (ch->sender != nullptr) ch->sender->DrainUntilPeerClose();
  }
  for (std::thread& receiver : receivers) receiver.join();
}

// --- Cross-process report blob -----------------------------------------
//
// A child serializes everything it measured into one varint-framed blob
// and writes it to its report pipe before _exit(0):
//
//   varint version (2)
//   varint status code | string message
//   varint #metric shards | per shard: varint #links, varint bytes each;
//                           varint #peers, double work + varint items each
//   varint #sinks   | per sink:    varint op index, Δitems, Δbytes, Δhash
//   varint #edges   | per edge:    varint edge index, items, encoded bytes
//   varint #channel halves | per half: varint channel index, 10 varints
//                            (ChannelStats fields in declaration order)
//   queue stats: 4 varints (entries, producer ns, consumer ns, max depth)
//   varint #histograms | per histogram (v2): string name,
//                        varint #bounds + double each,
//                        varint count, double sum, double max,
//                        varint #buckets + varint each
//
// Shard order is the deterministic first-seen order of the rebind pass,
// which parent and child share (the child is a fork of the parent taken
// after that pass), so no names or ids travel with the shards. The
// histogram section carries names: it ships every non-empty registry
// histogram (latency and queue-residency series), and the child calls
// MetricsRegistry::ResetAll right after fork so the counts are pure
// run-deltas the parent can MergeCounts without double counting.

void PutDouble(std::string* out, double value) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  out->append(bytes, sizeof(double));
}

bool GetDouble(std::string_view* data, double* value) {
  if (data->size() < sizeof(double)) return false;
  std::memcpy(value, data->data(), sizeof(double));
  data->remove_prefix(sizeof(double));
  return true;
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s);
}

bool GetString(std::string_view* data, std::string* s) {
  uint64_t size = 0;
  if (!GetVarint(data, &size) || size > data->size()) return false;
  s->assign(data->substr(0, size));
  data->remove_prefix(size);
  return true;
}

void PutChannelStats(std::string* out, const ChannelStats& s) {
  PutVarint(out, s.frames_sent);
  PutVarint(out, s.bytes_sent);
  PutVarint(out, s.items_delivered);
  PutVarint(out, s.credit_stalls);
  PutVarint(out, s.credit_stall_ns);
  PutVarint(out, s.retries);
  PutVarint(out, s.faults_dropped);
  PutVarint(out, s.faults_duplicated);
  PutVarint(out, s.faults_delayed);
  PutVarint(out, s.duplicates_discarded);
  PutVarint(out, s.faults_credits_dropped);
  PutVarint(out, s.deadline_failures);
}

bool GetChannelStats(std::string_view* data, ChannelStats* s) {
  return GetVarint(data, &s->frames_sent) &&
         GetVarint(data, &s->bytes_sent) &&
         GetVarint(data, &s->items_delivered) &&
         GetVarint(data, &s->credit_stalls) &&
         GetVarint(data, &s->credit_stall_ns) &&
         GetVarint(data, &s->retries) &&
         GetVarint(data, &s->faults_dropped) &&
         GetVarint(data, &s->faults_duplicated) &&
         GetVarint(data, &s->faults_delayed) &&
         GetVarint(data, &s->duplicates_discarded) &&
         GetVarint(data, &s->faults_credits_dropped) &&
         GetVarint(data, &s->deadline_failures);
}

/// Adds every field of `from` into `into` (the two halves of a channel
/// report disjoint fields, so a plain field-wise sum recombines them).
void AddChannelStats(ChannelStats* into, const ChannelStats& from) {
  into->frames_sent += from.frames_sent;
  into->bytes_sent += from.bytes_sent;
  into->items_delivered += from.items_delivered;
  into->credit_stalls += from.credit_stalls;
  into->credit_stall_ns += from.credit_stall_ns;
  into->retries += from.retries;
  into->faults_dropped += from.faults_dropped;
  into->faults_duplicated += from.faults_duplicated;
  into->faults_delayed += from.faults_delayed;
  into->duplicates_discarded += from.duplicates_discarded;
  into->faults_credits_dropped += from.faults_credits_dropped;
  into->deadline_failures += from.deadline_failures;
}

bool WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, std::string* out) {
  char chunk[16384];
  while (true) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out->append(chunk, static_cast<size_t>(n));
  }
}

inline constexpr uint64_t kReportVersion = 2;

struct SinkBaseline {
  size_t op_index = 0;
  engine::SinkOp* sink = nullptr;
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t hash = 0;
};

Status StatusFromReport(uint64_t code, std::string message) {
  if (code == 0) return Status::Ok();
  if (code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
    code = static_cast<uint64_t>(StatusCode::kInternal);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace

PartitionedRunner::PartitionedRunner(RunnerOptions options)
    : PartitionedRunner(nullptr, std::move(options)) {}

PartitionedRunner::PartitionedRunner(Transport* transport,
                                     RunnerOptions options)
    : transport_(transport), options_(std::move(options)) {
  if (options_.parallel.queue_capacity == 0) {
    options_.parallel.queue_capacity = 1;
  }
  if (options_.parallel.batch_size == 0) options_.parallel.batch_size = 1;
}

Status PartitionedRunner::Run(
    const std::vector<Operator*>& entries,
    const std::vector<std::vector<ItemPtr>>& item_lists, bool finish) {
  run_stats_ = RunStats{};
  const bool wire = transport_ != nullptr;
  if (wire) run_stats_.transport = transport_->name();
  if (entries.size() != item_lists.size()) {
    return Status::InvalidArgument(
        "PartitionedRunner::Run: entries and item lists differ in count");
  }
  if (options_.mode == RunnerOptions::Mode::kProcesses &&
      (!wire || !transport_->SupportsProcesses())) {
    return Status::InvalidArgument(
        std::string("transport '") + (wire ? transport_->name() : "memory") +
        "' cannot span processes; use Mode::kThreads");
  }
  if (!finish && options_.mode == RunnerOptions::Mode::kProcesses) {
    return Status::Unsupported(
        "PartitionedRunner: segmented runs (finish=false) need operator "
        "state to survive between segments, which forked worker "
        "processes cannot provide; use Mode::kThreads");
  }

  PartitionPlan plan;
  SS_RETURN_IF_ERROR(engine::PlanPeerPartitions(entries, &plan));
  if (!wire) {
    size_t max_workers =
        options_.parallel.max_workers != 0
            ? options_.parallel.max_workers
            : std::max(1u, std::thread::hardware_concurrency());
    engine::CoalesceWorkers(&plan, max_workers);
  }

  // Content hashes make cross-mode result comparison cheap, and in
  // multi-process mode they are how sink contents survive the report
  // pipe at all. Memory runs leave sinks as configured: hashing every
  // result would tax the in-process hot path.
  std::vector<SinkBaseline> sinks;
  if (wire) {
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      if (auto* sink = dynamic_cast<engine::SinkOp*>(plan.ops[i])) {
        sink->EnableContentHash();
        sinks.push_back(SinkBaseline{i, sink, sink->item_count(),
                                     sink->total_bytes(),
                                     sink->content_hash()});
      }
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
    if (engine::latency::Enabled() && obs::Enabled()) {
      // Registered before any fork, so process-mode children observe into
      // a histogram the parent also owns and can merge reports into.
      workers[w].queue->SetResidencyHistogram(
          obs::MetricsRegistry::Default().GetHistogram(
              "engine.queue.worker." + std::to_string(w) + ".residency_us",
              obs::Histogram::ExponentialBounds(50.0, 1.6, 24)));
    }
  }
  for (size_t s = 0; s < entries.size(); ++s) {
    WorkerRt& w = workers[plan.WorkerOf(entries[s])];
    w.entry_streams.push_back(s);
    w.AddRoot(entries[s]);
  }

  // --- One channel per worker pair with cross traffic; wire pipes are
  // created up front (before any fork). ---
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
    channel->target_queue = workers[dst].queue.get();
    if (wire) {
      std::string label =
          "w" + std::to_string(src) + "->w" + std::to_string(dst);
      PipePair pair;
      SS_RETURN_IF_ERROR(transport_->CreatePipe(label, &pair));
      channel->sender = std::make_unique<ChannelSender>(
          label, std::move(pair.ends[0]), options_.flow, options_.faults);
      channel->receiver = std::make_unique<ChannelReceiver>(
          label, std::move(pair.ends[1]), options_.flow, options_.faults);
    }
    workers[src].outbound.push_back(channel.get());
    workers[dst].inbound.push_back(channel.get());
    channel_of[key] = channel.get();
    channels.push_back(std::move(channel));
  }
  for (size_t w = 0; w < worker_count; ++w) {
    workers[w].expected_pills = workers[w].inbound.size() +
                                (workers[w].entry_streams.empty() ? 0 : 1);
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

  // --- Splice a port of the channel's kind into every cross edge. ---
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
    std::unique_ptr<Operator> port;
    if (wire) {
      port = std::make_unique<TransportPortOp>(
          target, edge.target, channel->sender.get(), &channel->encoder,
          &run_stats_.edges[e]);
    } else {
      auto queue_port = std::make_unique<QueuePortOp>(
          target, channel->target_queue, options_.parallel.batch_size,
          &run_stats_.edges[e]);
      channel->memory_ports.push_back(queue_port.get());
      port = std::move(queue_port);
    }
    source->ReplaceDownstream(target, port.get());
    workers[dst].AddRoot(target);
    splices.push_back(Splice{source, target, std::move(port)});
  }

  // --- Rebind metrics to per-worker shards (the hot path stays lock- and
  // atomic-free). The (original, shard) pair order is deterministic
  // first-seen order; children report shards in the same order, so the
  // report needs no metric identities. ---
  struct Rebind {
    Operator* op;
    Metrics* original;
    Metrics* shard;
  };
  std::vector<Rebind> rebinds;
  std::vector<std::vector<std::pair<Metrics*, Metrics*>>> ordered_shards(
      worker_count);
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
          ordered_shards[plan.worker_of[i]].emplace_back(original,
                                                         it->second.get());
        }
        plan.ops[i]->RebindMetrics(original, it->second.get());
        rebinds.push_back(Rebind{plan.ops[i], original, it->second.get()});
      }
    }
  }

  obs::TraceSpan run_span(&obs::TraceRecorder::Default(), "parallel.run",
                          "engine");
  run_span.AddArg(obs::TraceArg::Str(
      "channel", wire ? std::string(transport_->name()) : "memory"));
  run_span.AddArg(
      obs::TraceArg::Num("workers", static_cast<double>(worker_count)));
  run_span.AddArg(
      obs::TraceArg::Num("operators", static_cast<double>(plan.ops.size())));

  run_stats_.channels.reserve(channels.size());
  for (const auto& channel : channels) {
    ChannelTrafficStats stats;
    stats.source_worker = channel->source_worker;
    stats.target_worker = channel->target_worker;
    run_stats_.channels.push_back(stats);
  }
  run_stats_.workers.resize(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    run_stats_.workers[w].peers = workers[w].peers;
    run_stats_.workers[w].operator_count = workers[w].operator_count;
  }

  RunContext ctx{plan,     entries, item_lists, workers, options_.parallel,
                 finish, {}};
  Status run_status;
  if (options_.mode == RunnerOptions::Mode::kThreads) {
    // --- Thread mode: one thread per worker, the calling thread feeds. ---
    std::vector<std::thread> threads;
    threads.reserve(worker_count);
    for (size_t w = 0; w < worker_count; ++w) {
      threads.emplace_back(RunWorker, &ctx, &workers[w]);
    }
    std::vector<size_t> all_streams(entries.size());
    for (size_t s = 0; s < entries.size(); ++s) all_streams[s] = s;
    FeedStreams(&ctx, all_streams);
    for (std::thread& thread : threads) thread.join();
    run_status = ctx.abort.Snapshot();

    for (WorkerRt& worker : workers) {
      for (auto& [original, shard] : worker.shards) {
        original->MergeFrom(*shard);
      }
    }
    for (size_t c = 0; wire && c < channels.size(); ++c) {
      AddChannelStats(&run_stats_.channels[c].stats,
                      channels[c]->sender->stats());
      ChannelStats receiver_side;
      receiver_side.items_delivered =
          channels[c]->receiver->stats().items_delivered;
      receiver_side.duplicates_discarded =
          channels[c]->receiver->stats().duplicates_discarded;
      AddChannelStats(&run_stats_.channels[c].stats, receiver_side);
    }
    for (size_t w = 0; w < worker_count; ++w) {
      run_stats_.workers[w].entries_received =
          workers[w].queue->pushed_count();
      run_stats_.workers[w].producer_blocked_ns =
          workers[w].queue->producer_blocked_ns();
      run_stats_.workers[w].consumer_blocked_ns =
          workers[w].queue->consumer_blocked_ns();
      run_stats_.workers[w].max_queue_depth = workers[w].queue->max_depth();
    }
  } else {
    // --- Process mode: fork one child per worker. All pipes (transport
    // channels and report pipes) exist before the first fork; every
    // process then closes the ends it does not own, so EOF semantics
    // stay exact when a process exits. ---
    run_stats_.process_count = worker_count;
    std::vector<int> report_read(worker_count, -1);
    std::vector<int> report_write(worker_count, -1);
    auto close_reports = [&] {
      for (size_t w = 0; w < worker_count; ++w) {
        if (report_read[w] >= 0) ::close(report_read[w]);
        if (report_write[w] >= 0) ::close(report_write[w]);
        report_read[w] = report_write[w] = -1;
      }
    };
    for (size_t w = 0; w < worker_count && run_status.ok(); ++w) {
      int fds[2];
      if (::pipe(fds) != 0) {
        run_status = Status::Internal(std::string("pipe: ") +
                                      std::strerror(errno));
        break;
      }
      report_read[w] = fds[0];
      report_write[w] = fds[1];
    }

    std::vector<pid_t> children(worker_count, -1);
    for (size_t w = 0; w < worker_count && run_status.ok(); ++w) {
      pid_t pid = ::fork();
      if (pid < 0) {
        run_status = Status::Internal(std::string("fork: ") +
                                      std::strerror(errno));
        break;
      }
      if (pid == 0) {
        // === child: worker w ===
        for (size_t x = 0; x < worker_count; ++x) {
          if (report_read[x] >= 0) ::close(report_read[x]);
          if (x != w && report_write[x] >= 0) ::close(report_write[x]);
        }
        for (auto& channel : channels) {
          if (channel->source_worker != w) channel->sender->Close();
          if (channel->target_worker != w) channel->receiver->Close();
        }
        // Zero the inherited registry (identities survive, so cached
        // histogram pointers stay valid): everything this child observes
        // from here on is a pure run-delta its report can hand the parent
        // to MergeCounts without double counting the pre-fork totals.
        obs::MetricsRegistry::Default().ResetAll();

        std::thread feeder;
        if (!workers[w].entry_streams.empty()) {
          feeder = std::thread(FeedStreams, &ctx,
                               std::cref(workers[w].entry_streams));
        }
        RunWorker(&ctx, &workers[w]);
        if (feeder.joinable()) feeder.join();
        Status status = ctx.abort.Snapshot();

        std::string report;
        PutVarint(&report, kReportVersion);
        PutVarint(&report, static_cast<uint64_t>(status.code()));
        PutString(&report, status.ok() ? "" : status.message());

        PutVarint(&report, ordered_shards[w].size());
        for (const auto& [original, shard] : ordered_shards[w]) {
          (void)original;
          PutVarint(&report, shard->link_count());
          for (size_t i = 0; i < shard->link_count(); ++i) {
            PutVarint(&report, shard->BytesOnLink(
                                   static_cast<network::LinkId>(i)));
          }
          PutVarint(&report, shard->peer_count());
          for (size_t i = 0; i < shard->peer_count(); ++i) {
            network::NodeId peer = static_cast<network::NodeId>(i);
            PutDouble(&report, shard->WorkAtPeer(peer));
            PutVarint(&report, shard->OperatorInvocationsAtPeer(peer));
          }
        }

        uint64_t sink_count = 0;
        for (const SinkBaseline& s : sinks) {
          if (plan.worker_of[s.op_index] == w) ++sink_count;
        }
        PutVarint(&report, sink_count);
        for (const SinkBaseline& s : sinks) {
          if (plan.worker_of[s.op_index] != w) continue;
          PutVarint(&report, s.op_index);
          PutVarint(&report, s.sink->item_count() - s.items);
          PutVarint(&report, s.sink->total_bytes() - s.bytes);
          PutVarint(&report, s.sink->content_hash() - s.hash);
        }

        uint64_t edge_count = 0;
        for (const EdgeTrafficStats& e : run_stats_.edges) {
          if (e.source_worker == w) ++edge_count;
        }
        PutVarint(&report, edge_count);
        for (size_t e = 0; e < run_stats_.edges.size(); ++e) {
          if (run_stats_.edges[e].source_worker != w) continue;
          PutVarint(&report, e);
          PutVarint(&report, run_stats_.edges[e].items);
          PutVarint(&report, run_stats_.edges[e].encoded_bytes);
        }

        uint64_t half_count = 0;
        for (const auto& channel : channels) {
          if (channel->source_worker == w) ++half_count;
          if (channel->target_worker == w) ++half_count;
        }
        PutVarint(&report, half_count);
        for (size_t c = 0; c < channels.size(); ++c) {
          if (channels[c]->source_worker == w) {
            PutVarint(&report, c);
            PutChannelStats(&report, channels[c]->sender->stats());
          }
          if (channels[c]->target_worker == w) {
            PutVarint(&report, c);
            ChannelStats receiver_side;
            receiver_side.items_delivered =
                channels[c]->receiver->stats().items_delivered;
            receiver_side.duplicates_discarded =
                channels[c]->receiver->stats().duplicates_discarded;
            PutChannelStats(&report, receiver_side);
          }
        }

        PutVarint(&report, workers[w].queue->pushed_count());
        PutVarint(&report, workers[w].queue->producer_blocked_ns());
        PutVarint(&report, workers[w].queue->consumer_blocked_ns());
        PutVarint(&report, workers[w].queue->max_depth());

        {
          std::vector<obs::MetricSnapshot> metrics =
              obs::MetricsRegistry::Default().Snapshot();
          uint64_t histogram_count = 0;
          for (const obs::MetricSnapshot& m : metrics) {
            if (m.kind == obs::MetricSnapshot::Kind::kHistogram &&
                m.count > 0) {
              ++histogram_count;
            }
          }
          PutVarint(&report, histogram_count);
          for (const obs::MetricSnapshot& m : metrics) {
            if (m.kind != obs::MetricSnapshot::Kind::kHistogram ||
                m.count == 0) {
              continue;
            }
            PutString(&report, m.name);
            PutVarint(&report, m.bounds.size());
            for (double bound : m.bounds) PutDouble(&report, bound);
            PutVarint(&report, m.count);
            PutDouble(&report, m.sum);
            PutDouble(&report, m.max);
            PutVarint(&report, m.buckets.size());
            for (uint64_t bucket : m.buckets) PutVarint(&report, bucket);
          }
        }

        WriteAll(report_write[w], report);
        ::close(report_write[w]);
        ::_exit(0);
      }
      children[w] = pid;
    }

    // Parent: drop every pipe end the children own copies of, then
    // collect the reports. Closing the channel ends here is essential —
    // it makes a crashed child observable as EOF instead of a hang.
    for (auto& channel : channels) {
      channel->sender->Close();
      channel->receiver->Close();
    }
    for (size_t w = 0; w < worker_count; ++w) {
      if (report_write[w] >= 0) {
        ::close(report_write[w]);
        report_write[w] = -1;
      }
    }

    std::vector<Status> statuses(worker_count);
    std::map<size_t, engine::SinkOp*> sink_by_index;
    for (const SinkBaseline& s : sinks) sink_by_index[s.op_index] = s.sink;

    for (size_t w = 0; w < worker_count; ++w) {
      if (children[w] < 0) {
        statuses[w] = Status::Internal("worker " + std::to_string(w) +
                                       ": never forked");
        continue;
      }
      std::string blob;
      bool read_ok = ReadAll(report_read[w], &blob);
      ::close(report_read[w]);
      report_read[w] = -1;

      auto report_error = [&](const std::string& what) {
        statuses[w] = Status::Internal(
            "worker " + std::to_string(w) + ": " + what +
            " (worker process crashed or was killed?)");
      };
      if (!read_ok) {
        report_error("report pipe read failed");
        continue;
      }
      std::string_view data = blob;
      uint64_t version = 0, code = 0;
      std::string message;
      if (!GetVarint(&data, &version) || version != kReportVersion ||
          !GetVarint(&data, &code) || !GetString(&data, &message)) {
        report_error("truncated or malformed report");
        continue;
      }
      statuses[w] = StatusFromReport(code, std::move(message));

      bool ok = true;
      uint64_t shard_count = 0;
      ok = ok && GetVarint(&data, &shard_count) &&
           shard_count == ordered_shards[w].size();
      for (size_t i = 0; ok && i < shard_count; ++i) {
        Metrics* original = ordered_shards[w][i].first;
        uint64_t link_count = 0, peer_count = 0;
        ok = GetVarint(&data, &link_count) &&
             link_count == original->link_count();
        for (uint64_t l = 0; ok && l < link_count; ++l) {
          uint64_t bytes = 0;
          ok = GetVarint(&data, &bytes);
          if (ok) {
            original->AddBytes(static_cast<network::LinkId>(l), bytes);
          }
        }
        ok = ok && GetVarint(&data, &peer_count) &&
             peer_count == original->peer_count();
        for (uint64_t p = 0; ok && p < peer_count; ++p) {
          double work = 0.0;
          uint64_t invocations = 0;
          ok = GetDouble(&data, &work) && GetVarint(&data, &invocations);
          if (ok) {
            original->AddMeasured(static_cast<network::NodeId>(p), work,
                                  invocations);
          }
        }
      }

      uint64_t sink_count = 0;
      ok = ok && GetVarint(&data, &sink_count);
      for (uint64_t i = 0; ok && i < sink_count; ++i) {
        uint64_t op_index = 0, d_items = 0, d_bytes = 0, d_hash = 0;
        ok = GetVarint(&data, &op_index) && GetVarint(&data, &d_items) &&
             GetVarint(&data, &d_bytes) && GetVarint(&data, &d_hash);
        auto it = sink_by_index.find(op_index);
        ok = ok && it != sink_by_index.end();
        if (ok) it->second->MergeCounts(d_items, d_bytes, d_hash);
      }

      uint64_t edge_count = 0;
      ok = ok && GetVarint(&data, &edge_count);
      for (uint64_t i = 0; ok && i < edge_count; ++i) {
        uint64_t edge = 0, items = 0, encoded_bytes = 0;
        ok = GetVarint(&data, &edge) && GetVarint(&data, &items) &&
             GetVarint(&data, &encoded_bytes) &&
             edge < run_stats_.edges.size();
        if (ok) {
          run_stats_.edges[edge].items = items;
          run_stats_.edges[edge].encoded_bytes = encoded_bytes;
        }
      }

      uint64_t half_count = 0;
      ok = ok && GetVarint(&data, &half_count);
      for (uint64_t i = 0; ok && i < half_count; ++i) {
        uint64_t channel = 0;
        ChannelStats half;
        ok = GetVarint(&data, &channel) && GetChannelStats(&data, &half) &&
             channel < run_stats_.channels.size();
        if (ok) AddChannelStats(&run_stats_.channels[channel].stats, half);
      }

      uint64_t entries_received = 0, producer_ns = 0, consumer_ns = 0,
               max_depth = 0;
      ok = ok && GetVarint(&data, &entries_received) &&
           GetVarint(&data, &producer_ns) &&
           GetVarint(&data, &consumer_ns) && GetVarint(&data, &max_depth);
      if (ok) {
        run_stats_.workers[w].entries_received = entries_received;
        run_stats_.workers[w].producer_blocked_ns = producer_ns;
        run_stats_.workers[w].consumer_blocked_ns = consumer_ns;
        run_stats_.workers[w].max_queue_depth = max_depth;
      }

      uint64_t histogram_count = 0;
      ok = ok && GetVarint(&data, &histogram_count);
      for (uint64_t i = 0; ok && i < histogram_count; ++i) {
        std::string name;
        uint64_t bound_count = 0;
        ok = GetString(&data, &name) && GetVarint(&data, &bound_count) &&
             bound_count <= 4096;
        std::vector<double> bounds;
        bounds.reserve(ok ? bound_count : 0);
        for (uint64_t b = 0; ok && b < bound_count; ++b) {
          double edge = 0.0;
          ok = GetDouble(&data, &edge);
          bounds.push_back(edge);
        }
        uint64_t count = 0, bucket_count = 0;
        double sum = 0.0, max_value = 0.0;
        ok = ok && GetVarint(&data, &count) && GetDouble(&data, &sum) &&
             GetDouble(&data, &max_value) &&
             GetVarint(&data, &bucket_count) && bucket_count <= 4096;
        std::vector<uint64_t> buckets;
        buckets.reserve(ok ? bucket_count : 0);
        for (uint64_t b = 0; ok && b < bucket_count; ++b) {
          uint64_t value = 0;
          ok = GetVarint(&data, &value);
          buckets.push_back(value);
        }
        if (ok) {
          // Usually already registered pre-fork (same-process identity);
          // the bounds only matter for a series the parent never saw.
          obs::MetricsRegistry::Default()
              .GetHistogram(name, std::move(bounds))
              ->MergeCounts(buckets, count, sum, max_value);
        }
      }
      if (!ok && statuses[w].ok()) {
        report_error("truncated or malformed report");
      }
    }
    close_reports();

    for (size_t w = 0; w < worker_count; ++w) {
      if (children[w] < 0) continue;
      int wstatus = 0;
      while (::waitpid(children[w], &wstatus, 0) < 0 && errno == EINTR) {
      }
      if (statuses[w].ok() &&
          (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
        statuses[w] = Status::Internal(
            "worker " + std::to_string(w) +
            ": process exited abnormally (status " +
            std::to_string(wstatus) + ")");
      }
    }

    // Prefer the error that originated a failure over the relays other
    // workers recorded when the ERROR frame cascaded to them.
    if (run_status.ok()) {
      for (const Status& status : statuses) {
        if (!status.ok() &&
            status.message().compare(0, kRelayPrefix.size(),
                                     kRelayPrefix) != 0) {
          run_status = status;
          break;
        }
      }
      if (run_status.ok()) {
        for (const Status& status : statuses) {
          if (!status.ok()) {
            run_status = status;
            break;
          }
        }
      }
    }
  }

  // --- Restore the serial wiring and metrics bindings. ---
  for (Splice& splice : splices) {
    splice.source->ReplaceDownstream(splice.port.get(), splice.original);
  }
  for (const Rebind& rebind : rebinds) {
    rebind.op->RebindMetrics(rebind.shard, rebind.original);
  }

  if (wire && obs::Enabled()) {
    const TransportSeries& series = TransportSeries::Get();
    uint64_t items = 0, encoded = 0;
    for (const EdgeTrafficStats& edge : run_stats_.edges) {
      items += edge.items;
      encoded += edge.encoded_bytes;
    }
    uint64_t frames = 0, wire = 0, stalls = 0, duplicates = 0;
    for (const ChannelTrafficStats& channel : run_stats_.channels) {
      frames += channel.stats.frames_sent;
      wire += channel.stats.bytes_sent;
      stalls += channel.stats.credit_stalls;
      duplicates += channel.stats.duplicates_discarded;
    }
    series.items_sent->Add(items);
    series.encoded_bytes->Add(encoded);
    series.frames_sent->Add(frames);
    series.wire_bytes->Add(wire);
    series.credit_stalls->Add(stalls);
    series.duplicates_discarded->Add(duplicates);
  }
  return run_status;
}

}  // namespace streamshare::transport
