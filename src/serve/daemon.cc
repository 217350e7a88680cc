#include "serve/daemon.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "engine/latency.h"
#include "obs/event_log.h"
#include "serve/crashpoint.h"

namespace streamshare::serve {

namespace {

using engine::latency::NowUs;
using sharing::RegistrationResult;
using sharing::Strategy;

Strategy StrategyFromByte(uint8_t strategy) {
  switch (strategy) {
    case 0:
      return Strategy::kDataShipping;
    case 1:
      return Strategy::kQueryShipping;
    default:
      return Strategy::kStreamSharing;
  }
}

ControlResponse ErrorResponse(uint64_t request_id, const Status& status) {
  ControlResponse response;
  response.request_id = request_id;
  response.code = static_cast<uint64_t>(status.code());
  response.message = status.message();
  return response;
}

ControlResponse OkResponse(uint64_t request_id, std::string payload) {
  ControlResponse response;
  response.request_id = request_id;
  response.payload = std::move(payload);
  return response;
}

}  // namespace

ServeDaemon::ServeDaemon(workload::ScenarioSpec scenario,
                         DaemonOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {
  // Sinks double as the delivery log RESULT forwarding replays from.
  options_.system.keep_results = true;
}

ServeDaemon::~ServeDaemon() {
  if (loop_thread_.joinable()) {
    RequestDrain(/*final_drain=*/true);
    Join();
  }
}

Status ServeDaemon::Start() {
  if (scenario_.streams.empty()) {
    return Status::InvalidArgument("scenario has no streams");
  }
  if (durable()) {
    SS_RETURN_IF_ERROR(RecoverDurableState());
  } else {
    SS_RETURN_IF_ERROR(BuildFreshSystem());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.epoch = epoch_;
    stats_.items_fed = items_fed_;
  }
  crashpoint::MaybeCrash(crashpoint::kRecoverPostFoldPreListen);
  SS_RETURN_IF_ERROR(listener_.Bind(options_.port));
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::Ok();
}

Status ServeDaemon::RecoverDurableState() {
  const std::string wal_path = DefaultWalPath(options_.checkpoint_path);

  const uint64_t load_start_us = NowUs();
  Checkpoint checkpoint;
  bool have_checkpoint = false;
  {
    Result<Checkpoint> loaded = LoadCheckpoint(options_.checkpoint_path);
    if (loaded.ok()) {
      checkpoint = std::move(*loaded);
      have_checkpoint = true;
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  }

  const uint64_t scan_start_us = NowUs();
  WalRecovery wal;
  bool have_wal = false;
  {
    Result<WalRecovery> scanned = RecoverWal(wal_path);
    if (scanned.ok()) {
      wal = std::move(*scanned);
      have_wal = true;
    } else if (!scanned.status().IsNotFound()) {
      return scanned.status();
    }
  }
  const uint64_t scan_end_us = NowUs();

  uint64_t torn_truncations = 0;
  bool use_wal_records = false;
  if (have_wal && !wal.torn_header) {
    if (wal.header.scenario_fingerprint != ScenarioFingerprint(scenario_)) {
      return Status::InvalidArgument(
          "wal " + wal_path + " was written by a different scenario");
    }
    uint64_t base = have_checkpoint ? checkpoint.generation : 0;
    if (wal.header.base_generation == base) {
      use_wal_records = true;
      if (wal.torn_tail) ++torn_truncations;
    } else if (wal.header.base_generation < base) {
      // Stale log: a compaction or drain renamed its folded checkpoint
      // into place but died before truncating the log. Every record in
      // it is already inside the checkpoint — discard whole.
      obs::EventLog& log = obs::EventLog::Default();
      if (log.ShouldLog(obs::Severity::kInfo)) {
        log.Log(obs::Severity::kInfo, "serve",
                "dropping stale wal (already folded)",
                {obs::F("wal_generation", wal.header.base_generation),
                 obs::F("checkpoint_generation", base)});
      }
    } else {
      return Status::InvalidArgument(
          "wal " + wal_path + " extends checkpoint generation " +
          std::to_string(wal.header.base_generation) +
          " but the checkpoint on disk is generation " +
          std::to_string(base) + " — the checkpoint was lost");
    }
  } else if (have_wal && wal.torn_header) {
    // Crash during the log's own creation: it never held a record, and
    // Create only runs right after the checkpoint was brought current.
    ++torn_truncations;
  }

  if (have_checkpoint) {
    SS_RETURN_IF_ERROR(RestoreFromCheckpoint(checkpoint));
  } else {
    SS_RETURN_IF_ERROR(BuildFreshSystem());
  }
  size_t applied_records = 0;
  if (use_wal_records) {
    // The tail continues the checkpoint's history: its events at their
    // logged offsets, and consecutive feed records coalesce into one
    // range (only an event splits it).
    std::vector<LogEvent> events;
    uint64_t fed = items_fed_;
    for (WalRecord& record : wal.records) {
      if (record.kind == WalRecord::Kind::kEvent) {
        fed = std::max(fed, record.event.at_items);
        events.push_back(std::move(record.event));
      } else {
        fed = std::max(fed, record.items_fed);
      }
    }
    SS_RETURN_IF_ERROR(ReplayHistory(events, fed));
    applied_records = wal.records.size();
    // The log may outlive the checkpoint by whole service lives (every
    // life without a compaction extends the same base).
    if (wal.header.epoch + 1 > epoch_) epoch_ = wal.header.epoch + 1;
  }

  // Fold: a fresh checkpoint capturing everything the WAL added, then an
  // empty log extending it. Without records the checkpoint is already
  // current — only the (possibly missing or torn) log needs recreating.
  const uint64_t fold_start_us = NowUs();
  generation_ = have_checkpoint ? checkpoint.generation : 0;
  if (!have_checkpoint || applied_records != 0) {
    SS_RETURN_IF_ERROR(SaveNextCheckpoint());
  }
  crashpoint::MaybeCrash(crashpoint::kCkptPostRenamePreWalReset);
  SS_RETURN_IF_ERROR(ResetWal());

  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.recovery_checkpoint_load_us += scan_start_us - load_start_us;
  stats_.recovery_wal_scan_us += scan_end_us - scan_start_us;
  stats_.recovery_fold_us += NowUs() - fold_start_us;
  stats_.wal_recovered_records += applied_records;
  stats_.wal_torn_tail_truncations += torn_truncations;
  return Status::Ok();
}

void ServeDaemon::LogMutation(LogEvent event) {
  event.at_items = items_fed_;
  event_log_.push_back(event);
  DurableAppend(WalRecord::Event(std::move(event)));
}

void ServeDaemon::DurableAppend(const WalRecord& record) {
  if (!durable() || !wal_error_.ok()) return;
  WalCounters before = wal_.counters();
  Status appended = wal_.Append(record);
  if (!appended.ok()) {
    wal_error_ = appended;
    return;
  }
  crashpoint::MaybeCrash(crashpoint::kWalPostSyncPreAck);
  const WalCounters& after = wal_.counters();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.wal_appends += after.appends - before.appends;
  stats_.wal_bytes += after.bytes - before.bytes;
  stats_.wal_fsync_us += after.fsync_us - before.fsync_us;
}

Status ServeDaemon::CompactWal() {
  SS_RETURN_IF_ERROR(SaveNextCheckpoint());
  crashpoint::MaybeCrash(crashpoint::kCkptPostRenamePreWalReset);
  SS_RETURN_IF_ERROR(ResetWal());
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.wal_compactions;
  return Status::Ok();
}

Status ServeDaemon::SaveNextCheckpoint() {
  ++generation_;
  return SaveCheckpoint(options_.checkpoint_path, BuildCheckpoint());
}

Status ServeDaemon::ResetWal() {
  WalHeader header;
  header.scenario_fingerprint = ScenarioFingerprint(scenario_);
  header.epoch = epoch_;
  header.base_generation = generation_;
  SS_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Create(
                                DefaultWalPath(options_.checkpoint_path),
                                header));
  return Status::Ok();
}

Status ServeDaemon::BuildFreshSystem() {
  SS_ASSIGN_OR_RETURN(system_,
                      workload::BuildSystem(scenario_, options_.system));
  generators_.clear();
  generators_.reserve(scenario_.streams.size());
  for (const workload::StreamSpec& stream : scenario_.streams) {
    generators_.emplace_back(stream.gen);
  }
  return Status::Ok();
}

Status ServeDaemon::RestoreFromCheckpoint(const Checkpoint& checkpoint) {
  if (checkpoint.scenario_fingerprint !=
      ScenarioFingerprint(scenario_)) {
    return Status::InvalidArgument(
        "checkpoint " + options_.checkpoint_path +
        " was written by a different scenario");
  }
  epoch_ = checkpoint.epoch + 1;
  sharing::SystemConfig saved = options_.system;
  if (options_.resume == ResumeFlavor::kGap) {
    // Gap-not-garbage: windows re-anchor at the next boundary at or
    // after the first post-restart item; planning restricts itself to
    // epoch-safe reuse (SystemConfig::resume_mode).
    options_.system.resume_mode = true;
  }
  Status built = BuildFreshSystem();
  options_.system = saved;
  SS_RETURN_IF_ERROR(built);
  // pgcopydb's catchup: under kReplay the regenerated item history with
  // the logged control events interleaved at their recorded offsets puts
  // the engine (open windows included) in the exact pre-drain state, and
  // the sinks re-accumulate the full delivery log so re-attached clients
  // can catch up from any sequence they already hold. Under kGap the
  // installed population (query ids included) matches the drained
  // daemon; window operators start empty and re-anchor.
  SS_RETURN_IF_ERROR(ReplayHistory(checkpoint.events, checkpoint.items_fed));
  if (options_.resume == ResumeFlavor::kGap) return Status::Ok();
  return VerifyDeliveries(checkpoint);
}

Status ServeDaemon::ReplayHistory(const std::vector<LogEvent>& events,
                                  uint64_t to) {
  const uint64_t start_us = NowUs();
  const uint64_t from = items_fed_;
  const bool replay = options_.resume == ResumeFlavor::kReplay;
  uint64_t feed_us = 0, register_us = 0;
  uint64_t registrations = 0, candidates = 0;
  for (const LogEvent& event : events) {
    if (replay && event.at_items > items_fed_) {
      const uint64_t feed_start_us = NowUs();
      SS_RETURN_IF_ERROR(FeedRange(items_fed_, event.at_items));
      feed_us += NowUs() - feed_start_us;
      items_fed_ = event.at_items;
    }
    const uint64_t apply_start_us = NowUs();
    SS_RETURN_IF_ERROR(ApplyLoggedEvent(event));
    register_us += NowUs() - apply_start_us;
    if (event.kind == LogEvent::Kind::kSubscribe) {
      ++registrations;
      candidates +=
          system_->registrations().back().search.candidates_examined;
    }
    event_log_.push_back(event);
  }
  const uint64_t feed_start_us = NowUs();
  if (replay) {
    SS_RETURN_IF_ERROR(FeedRange(items_fed_, to));
  } else {
    // The post-restart stream continues where the last life stopped.
    for (workload::PhotonGenerator& generator : generators_) {
      for (uint64_t i = items_fed_; i < to; ++i) generator.NextRecord();
    }
  }
  feed_us += NowUs() - feed_start_us;
  items_fed_ = std::max(items_fed_, to);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (replay) stats_.recovery_replay_items += items_fed_ - from;
  stats_.recovery_replayed_events += events.size();
  stats_.recovery_replayed_registrations += registrations;
  stats_.recovery_candidates_examined += candidates;
  stats_.recovery_replay_register_us += register_us;
  stats_.recovery_replay_feed_us += feed_us;
  stats_.recovery_replay_us += NowUs() - start_us;
  return Status::Ok();
}

Status ServeDaemon::VerifyDeliveries(const Checkpoint& checkpoint) const {
  const std::vector<RegistrationResult>& registrations =
      system_->registrations();
  for (const DeliverySnapshot& snapshot : checkpoint.deliveries) {
    if (snapshot.query_id < 0 ||
        static_cast<size_t>(snapshot.query_id) >= registrations.size()) {
      return Status::Internal(
          "checkpoint names query " + std::to_string(snapshot.query_id) +
          " the replay never registered");
    }
    const engine::SinkOp* sink = registrations[snapshot.query_id].sink;
    uint64_t items = sink == nullptr ? 0 : sink->item_count();
    uint64_t hash = sink == nullptr ? 0 : sink->content_hash();
    if (items != snapshot.items || hash != snapshot.content_hash) {
      return Status::Internal(
          "replay diverged on query " + std::to_string(snapshot.query_id) +
          ": checkpoint items=" + std::to_string(snapshot.items) +
          " hash=" + std::to_string(snapshot.content_hash) +
          ", replay items=" + std::to_string(items) +
          " hash=" + std::to_string(hash));
    }
  }
  return Status::Ok();
}

Status ServeDaemon::ApplyLoggedEvent(const LogEvent& event) {
  switch (event.kind) {
    case LogEvent::Kind::kSubscribe: {
      // Replay rebuilds the logged plan instead of searching for it again
      // (invariant 12). Gap resume re-plans: its epoch-safe planner may
      // choose differently. The shipping baselines never search.
      const Strategy strategy = StrategyFromByte(event.strategy);
      const bool rebuild = options_.resume == ResumeFlavor::kReplay &&
                           strategy == Strategy::kStreamSharing;
      SS_ASSIGN_OR_RETURN(
          RegistrationResult result,
          system_->RegisterQuery(event.query_text,
                                 static_cast<network::NodeId>(event.vq),
                                 strategy,
                                 rebuild ? &event.choices : nullptr));
      if (result.sink != nullptr) result.sink->EnableContentHash();
      return Status::Ok();
    }
    case LogEvent::Kind::kUnsubscribe:
      return system_->Unsubscribe(static_cast<int>(event.query_id));
    case LogEvent::Kind::kFailPeer:
      return system_
          ->FailPeer(static_cast<network::NodeId>(event.peer))
          .status();
    case LogEvent::Kind::kCutLink:
      return system_
          ->CutLink(static_cast<network::NodeId>(event.link_a),
                    static_cast<network::NodeId>(event.link_b))
          .status();
    case LogEvent::Kind::kReoptimize:
      // Deterministic given the replayed state: reproduces the exact
      // plan migrations of the original pass.
      return system_
          ->Reoptimize(static_cast<int>(event.max_migrations))
          .status();
  }
  return Status::Internal("unknown logged event kind");
}

Status ServeDaemon::FeedItems(uint64_t count) {
  SS_RETURN_IF_ERROR(FeedRange(items_fed_, items_fed_ + count));
  items_fed_ += count;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.items_fed = items_fed_;
  return Status::Ok();
}

namespace {

/// Full batches per stream one FeedRange step generates and feeds. A
/// replay of the whole history holds this many slots per stream at a
/// time; engine output does not depend on how the range is cut.
constexpr uint64_t kFeedChunkBatches = 16;

}  // namespace

Status ServeDaemon::FeedRange(uint64_t from, uint64_t to) {
  const uint64_t batch_size =
      std::max<uint64_t>(1, options_.system.batch_size);
  const uint64_t chunk = kFeedChunkBatches * batch_size;
  for (uint64_t at = from; at < to; at += chunk) {
    const uint64_t count = std::min(chunk, to - at);
    sharing::StreamShareSystem::BatchesByStream batches;
    for (size_t s = 0; s < scenario_.streams.size(); ++s) {
      batches[scenario_.streams[s].name] =
          generators_[s].GenerateBatches(count, batch_size);
    }
    SS_RETURN_IF_ERROR(system_->Feed(&batches));
  }
  return Status::Ok();
}

void ServeDaemon::RequestDrain(bool final_drain) {
  int want = final_drain ? 2 : 1;
  int current = drain_request_.load(std::memory_order_relaxed);
  // A final drain overrides a pending restartable one, never vice versa.
  while (current < want &&
         !drain_request_.compare_exchange_weak(
             current, want, std::memory_order_relaxed)) {
  }
}

void ServeDaemon::Join() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

Status ServeDaemon::loop_status() const { return loop_status_; }

DaemonStats ServeDaemon::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void ServeDaemon::ExportMetrics(obs::MetricsRegistry* registry) const {
  DaemonStats snapshot = stats();
  auto gauge = [registry](const char* name, double value) {
    registry->GetGauge(name)->Set(value);
  };
  gauge("serve.epoch", static_cast<double>(snapshot.epoch));
  gauge("serve.clients.attached",
        static_cast<double>(snapshot.attached_clients));
  gauge("serve.subscriptions.admitted",
        static_cast<double>(snapshot.admitted));
  gauge("serve.subscriptions.rejected",
        static_cast<double>(snapshot.rejected));
  gauge("serve.subscriptions.unsubscribed",
        static_cast<double>(snapshot.unsubscribed));
  gauge("serve.items.fed", static_cast<double>(snapshot.items_fed));
  gauge("serve.results.forwarded",
        static_cast<double>(snapshot.results_forwarded));
  gauge("serve.control.requests",
        static_cast<double>(snapshot.control_requests));
  gauge("serve.control.unsupported",
        static_cast<double>(snapshot.unsupported_frames));
  gauge("serve.drain.micros",
        static_cast<double>(snapshot.drain_micros));
  gauge("serve.wal.appends", static_cast<double>(snapshot.wal_appends));
  gauge("serve.wal.bytes", static_cast<double>(snapshot.wal_bytes));
  gauge("serve.wal.fsync_us", static_cast<double>(snapshot.wal_fsync_us));
  gauge("serve.wal.compactions",
        static_cast<double>(snapshot.wal_compactions));
  gauge("serve.wal.recovered_records",
        static_cast<double>(snapshot.wal_recovered_records));
  gauge("serve.wal.torn_tail_truncations",
        static_cast<double>(snapshot.wal_torn_tail_truncations));
  gauge("serve.recovery.replay_items",
        static_cast<double>(snapshot.recovery_replay_items));
  gauge("serve.recovery.replayed_events",
        static_cast<double>(snapshot.recovery_replayed_events));
  gauge("serve.recovery.replay_us",
        static_cast<double>(snapshot.recovery_replay_us));
  gauge("serve.recovery.checkpoint_load_us",
        static_cast<double>(snapshot.recovery_checkpoint_load_us));
  gauge("serve.recovery.wal_scan_us",
        static_cast<double>(snapshot.recovery_wal_scan_us));
  gauge("serve.recovery.replay_register_us",
        static_cast<double>(snapshot.recovery_replay_register_us));
  gauge("serve.recovery.replay_feed_us",
        static_cast<double>(snapshot.recovery_replay_feed_us));
  gauge("serve.recovery.fold_us",
        static_cast<double>(snapshot.recovery_fold_us));
  gauge("serve.recovery.replayed_registrations",
        static_cast<double>(snapshot.recovery_replayed_registrations));
  gauge("serve.recovery.candidates_examined",
        static_cast<double>(snapshot.recovery_candidates_examined));
  gauge("serve.net.sends", static_cast<double>(snapshot.net_sends));
  gauge("serve.net.frames_out",
        static_cast<double>(snapshot.net_frames_out));
  gauge("serve.net.bytes_out", static_cast<double>(snapshot.net_bytes_out));
  gauge("serve.forward.channels",
        static_cast<double>(snapshot.forward_channels));
  // The engine/network/latency planes of the hosted system. Only safe
  // once the loop has stopped mutating it (call after Join).
  if (system_ != nullptr && !loop_thread_.joinable()) {
    system_->ExportMetrics(registry);
  }
}

void ServeDaemon::LoopMain() {
  loop_status_ = [this] {
    while (true) {
      int drain = drain_request_.load(std::memory_order_relaxed);
      if (drain != 0) return PerformDrain(drain == 2);
      SS_RETURN_IF_ERROR(LoopOnce());
    }
  }();
  if (!loop_status_.ok()) {
    obs::EventLog& log = obs::EventLog::Default();
    if (log.ShouldLog(obs::Severity::kError)) {
      log.Log(obs::Severity::kError, "serve", "daemon loop failed",
              {obs::F("error", loop_status_.ToString())});
    }
    listener_.Close();
    for (std::unique_ptr<ClientState>& client : clients_) {
      client->conn.Close();
    }
  }
}

Status ServeDaemon::LoopOnce() {
  std::vector<struct pollfd> fds;
  fds.push_back({listener_.fd(), POLLIN, 0});
  for (const std::unique_ptr<ClientState>& client : clients_) {
    short events = POLLIN;
    if (client->conn.has_pending_output()) events |= POLLOUT;
    fds.push_back({client->conn.fd(), events, 0});
  }
  int ready = ::poll(fds.data(), fds.size(), options_.poll_interval_ms);
  if (ready < 0) {
    if (errno == EINTR) return Status::Ok();
    return Status::Internal("serve poll failed");
  }
  if (ready == 0) return Status::Ok();

  if ((fds[0].revents & POLLIN) != 0) {
    while (true) {
      Result<FrameConn> accepted = listener_.Accept();
      if (!accepted.ok()) break;
      auto client = std::make_unique<ClientState>();
      client->conn = std::move(*accepted);
      clients_.push_back(std::move(client));
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.attached_clients = clients_.size();
  }

  // Only the clients that were polled: any accepted above come after them
  // and have no pollfd yet. A client that fails is detached and closed
  // at once, so nothing later in the pass forwards to it.
  for (size_t i = 0; i + 1 < fds.size(); ++i) {
    ClientState* client = clients_[i].get();
    short revents = fds[i + 1].revents;
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      // A vanished client implicitly unsubscribes everything it was
      // serving (refcounted stream GC); protocol garbage does too.
      if (!HandleReadable(client).ok()) DropClient(client);
    }
  }
  // The pass's one flush point and the loop's only write site:
  // everything queued for a client — its ACKs, the RESULT frames any
  // feed of the pass forwarded to it, and what an earlier pass's flush
  // could not fit into the socket (POLLOUT above wakes the loop for it)
  // — leaves in as few send() calls as the socket accepts. Frames are
  // queued only after their mutation's WAL sync, so a flush can never
  // expose a mutation that is not durable.
  for (const std::unique_ptr<ClientState>& client : clients_) {
    if (!client->conn.open() || !client->conn.has_pending_output()) {
      continue;
    }
    if (!client->conn.FlushSome().ok()) DropClient(client.get());
  }
  NoteNetCounters();
  size_t before = clients_.size();
  clients_.erase(
      std::remove_if(clients_.begin(), clients_.end(),
                     [](const std::unique_ptr<ClientState>& client) {
                       return !client->conn.open();
                     }),
      clients_.end());
  if (clients_.size() != before) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.attached_clients = clients_.size();
  }
  if (!wal_error_.ok()) {
    // An applied mutation could not be made durable — stop serving
    // rather than ACK it (crash-consistent failure).
    return wal_error_;
  }
  if (durable() && wal_.open() &&
      wal_.counters().bytes > options_.wal_compact_bytes) {
    SS_RETURN_IF_ERROR(CompactWal());
  }
  return Status::Ok();
}

Status ServeDaemon::HandleReadable(ClientState* client) {
  SS_RETURN_IF_ERROR(client->conn.ReadSome());
  while (true) {
    transport::Frame frame;
    SS_ASSIGN_OR_RETURN(ConnEvent event, client->conn.TryParse(&frame));
    if (event == ConnEvent::kNeedMore) return Status::Ok();
    if (event == ConnEvent::kUnsupported) {
      // Satellite of the wire change: a frame this daemon cannot
      // dispatch (newer client, or an old client poking a newer daemon)
      // gets a decodable "unsupported" answer instead of a teardown.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.unsupported_frames;
      }
      ControlResponse response = ErrorResponse(
          0, Status::Unsupported(
                 "unsupported frame (version " +
                 std::to_string(frame.version) + ", type " +
                 std::to_string(frame.raw_type) + ")"));
      SS_RETURN_IF_ERROR(client->conn.QueueFrame(
          transport::FrameType::kControlAck, EncodeResponse(response)));
      continue;
    }
    SS_RETURN_IF_ERROR(HandleRequest(client, frame));
  }
}

Status ServeDaemon::HandleRequest(ClientState* client,
                                  const transport::Frame& frame) {
  if (frame.type != transport::FrameType::kControl) {
    ControlResponse response = ErrorResponse(
        0, Status::InvalidArgument(
               "only CONTROL frames flow client-to-daemon (got type " +
               std::to_string(frame.raw_type) + ")"));
    return client->conn.QueueFrame(transport::FrameType::kControlAck,
                                   EncodeResponse(response));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.control_requests;
  }
  Result<ControlRequest> request = DecodeRequest(frame.body);
  ControlResponse response =
      request.ok() ? Dispatch(client, *request)
                   : ErrorResponse(0, request.status());
  if (!wal_error_.ok()) {
    // The mutation is applied in memory but could not be made durable:
    // acknowledging would break crash ≡ drain. No ACK leaves; the loop
    // dies with the append error (a crash-consistent stop — recovery
    // sees exactly the pre-mutation durable state).
    return wal_error_;
  }
  return client->conn.QueueFrame(transport::FrameType::kControlAck,
                                 EncodeResponse(response));
}

ControlResponse ServeDaemon::Dispatch(ClientState* client,
                                      const ControlRequest& request) {
  if (!client->hello_done && request.verb != Verb::kHello) {
    return ErrorResponse(
        request.request_id,
        Status::InvalidArgument("say hello before " +
                                std::to_string(static_cast<int>(
                                    request.verb))));
  }
  switch (request.verb) {
    case Verb::kHello:
      return DoHello(client, request);
    case Verb::kSubscribe:
      return DoSubscribe(client, request);
    case Verb::kUnsubscribe:
      return DoUnsubscribe(client, request);
    case Verb::kFailPeer:
      return DoFailPeer(request);
    case Verb::kCutLink:
      return DoCutLink(request);
    case Verb::kStats:
      return DoStats(request);
    case Verb::kFeed:
      return DoFeed(request);
    case Verb::kDrain:
      return DoDrain(client, request);
    case Verb::kDetach:
      return DoDetach(client);
    case Verb::kSubscribeBatch:
      return DoSubscribeBatch(client, request);
    case Verb::kReoptimize:
      return DoReoptimize(request);
  }
  return ErrorResponse(request.request_id,
                       Status::Internal("unhandled verb"));
}

ControlResponse ServeDaemon::DoHello(ClientState* client,
                                     const ControlRequest& request) {
  if (request.protocol != kServeProtocolVersion) {
    return ErrorResponse(
        request.request_id,
        Status::Unsupported("serve protocol " +
                            std::to_string(request.protocol) +
                            " (this daemon speaks " +
                            std::to_string(kServeProtocolVersion) + ")"));
  }
  client->hello_done = true;
  client->name = request.client_name;
  HelloReply reply;
  reply.epoch = epoch_;
  reply.items_fed = items_fed_;
  reply.draining = draining_.load(std::memory_order_relaxed);
  return OkResponse(request.request_id, EncodeHelloReply(reply));
}

ControlResponse ServeDaemon::DoSubscribe(ClientState* client,
                                         const ControlRequest& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(request.request_id,
                         Status::Unavailable("daemon is draining"));
  }

  if (request.attach_query_plus1 != 0) {
    // Re-attach to a subscription that survived this client's absence
    // (or a daemon restart): forward from where the client left off.
    int query_id = static_cast<int>(request.attach_query_plus1 - 1);
    Status active = system_->CheckActiveSubscription(query_id);
    if (!active.ok()) return ErrorResponse(request.request_id, active);
    for (const std::unique_ptr<ClientState>& other : clients_) {
      if (other->subs.count(query_id) != 0) {
        return ErrorResponse(
            request.request_id,
            Status::AlreadyExists("query " + std::to_string(query_id) +
                                  " is attached to another client"));
      }
    }
    const engine::SinkOp* sink =
        system_->registrations()[query_id].sink;
    uint64_t have = sink == nullptr ? 0 : sink->item_count();
    const uint64_t forward_from = std::min(request.resume_from, have);
    Attach(client, query_id, forward_from);
    SubscribeReply reply;
    reply.query_id = query_id;
    reply.accepted = true;
    reply.forward_from = forward_from;
    return OkResponse(request.request_id, EncodeSubscribeReply(reply));
  }

  Result<SubscribeReply> reply = RegisterAndAttach(
      client, request.query_text, request.vq, request.strategy);
  if (!reply.ok()) return ErrorResponse(request.request_id, reply.status());
  return OkResponse(request.request_id, EncodeSubscribeReply(*reply));
}

ControlResponse ServeDaemon::DoSubscribeBatch(
    ClientState* client, const ControlRequest& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(request.request_id,
                         Status::Unavailable("daemon is draining"));
  }
  // N sequential registrations, each planned against what the earlier
  // ones deployed. A hard error stops the batch; the registrations before
  // it stay installed and logged, exactly as N Subscribe verbs would.
  SubscribeBatchReply reply;
  reply.entries.reserve(request.batch.size());
  for (const ControlRequest::BatchEntry& entry : request.batch) {
    Result<SubscribeReply> registered = RegisterAndAttach(
        client, entry.query_text, entry.vq, entry.strategy);
    if (!registered.ok()) {
      return ErrorResponse(request.request_id, registered.status());
    }
    reply.entries.push_back(std::move(registered).value());
  }
  return OkResponse(request.request_id,
                    EncodeSubscribeBatchReply(reply));
}

Result<SubscribeReply> ServeDaemon::RegisterAndAttach(
    ClientState* client, const std::string& query_text, int64_t vq,
    uint8_t strategy) {
  // A parse/analysis failure consumes no query id: nothing to log.
  SS_ASSIGN_OR_RETURN(
      RegistrationResult result,
      system_->RegisterQuery(query_text, static_cast<network::NodeId>(vq),
                             StrategyFromByte(strategy)));
  // Accepted or admission-rejected, the registration consumed a query
  // id — log it (and make it durable before the ACK) so a replay
  // reassigns identical ids.
  LogEvent event;
  event.kind = LogEvent::Kind::kSubscribe;
  event.query_text = query_text;
  event.vq = vq;
  event.strategy = strategy;
  if (result.strategy == Strategy::kStreamSharing) {
    event.choices = result.plan.Choices();
  }
  LogMutation(std::move(event));

  SubscribeReply reply;
  reply.query_id = result.query_id;
  reply.accepted = result.accepted;
  reply.reject_reason = result.reject_reason;
  if (result.accepted && result.sink != nullptr) {
    // A fresh sink has delivered nothing: forwarding starts at 0.
    result.sink->EnableContentHash();
    Attach(client, result.query_id, 0);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (result.accepted) {
    ++stats_.admitted;
  } else {
    // The E6 admission-control path: a structured rejection, with the
    // deployment untouched and the daemon still serving.
    ++stats_.rejected;
  }
  return reply;
}

ControlResponse ServeDaemon::DoReoptimize(const ControlRequest& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(request.request_id,
                         Status::Unavailable("daemon is draining"));
  }
  Result<sharing::StreamShareSystem::ReoptimizeReport> report =
      system_->Reoptimize(static_cast<int>(request.max_migrations));
  if (!report.ok()) {
    return ErrorResponse(request.request_id, report.status());
  }
  LogEvent event;
  event.kind = LogEvent::Kind::kReoptimize;
  event.max_migrations = request.max_migrations;
  LogMutation(std::move(event));
  ReoptimizeReply reply;
  reply.examined = static_cast<uint64_t>(report->examined);
  reply.migrated = static_cast<uint64_t>(report->migrated);
  reply.torn_down = static_cast<uint64_t>(report->torn_down);
  reply.lost_windows = report->lost_windows;
  reply.cost_before = report->cost_before;
  reply.cost_after = report->cost_after;
  return OkResponse(request.request_id, EncodeReoptimizeReply(reply));
}

ControlResponse ServeDaemon::DoUnsubscribe(ClientState* client,
                                           const ControlRequest& request) {
  int query_id = static_cast<int>(request.query_id);
  Status status = UnsubscribeQuery(query_id);
  if (!status.ok()) return ErrorResponse(request.request_id, status);
  client->subs.erase(query_id);
  for (const std::unique_ptr<ClientState>& other : clients_) {
    other->subs.erase(query_id);
  }
  return OkResponse(request.request_id, std::string());
}

Status ServeDaemon::UnsubscribeQuery(int query_id) {
  SS_RETURN_IF_ERROR(system_->Unsubscribe(query_id));
  LogEvent event;
  event.kind = LogEvent::Kind::kUnsubscribe;
  event.query_id = query_id;
  LogMutation(std::move(event));
  channels_.erase(query_id);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.unsubscribed;
  stats_.forward_channels = channels_.size();
  return Status::Ok();
}

ControlResponse ServeDaemon::DoFailPeer(const ControlRequest& request) {
  Result<recover::RecoveryReport> report =
      system_->FailPeer(static_cast<network::NodeId>(request.peer));
  if (!report.ok()) return ErrorResponse(request.request_id,
                                         report.status());
  LogEvent event;
  event.kind = LogEvent::Kind::kFailPeer;
  event.peer = request.peer;
  LogMutation(std::move(event));
  RecoveryReply reply;
  reply.replans = report->replans;
  reply.lost_queries = report->lost_queries;
  reply.dead_targets = report->dead_targets;
  reply.lost_windows = report->lost_windows;
  return OkResponse(request.request_id, EncodeRecoveryReply(reply));
}

ControlResponse ServeDaemon::DoCutLink(const ControlRequest& request) {
  Result<recover::RecoveryReport> report = system_->CutLink(
      static_cast<network::NodeId>(request.link_a),
      static_cast<network::NodeId>(request.link_b));
  if (!report.ok()) return ErrorResponse(request.request_id,
                                         report.status());
  LogEvent event;
  event.kind = LogEvent::Kind::kCutLink;
  event.link_a = request.link_a;
  event.link_b = request.link_b;
  LogMutation(std::move(event));
  RecoveryReply reply;
  reply.replans = report->replans;
  reply.lost_queries = report->lost_queries;
  reply.dead_targets = report->dead_targets;
  reply.lost_windows = report->lost_windows;
  return OkResponse(request.request_id, EncodeRecoveryReply(reply));
}

ControlResponse ServeDaemon::DoStats(const ControlRequest& request) {
  StatsReply reply;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    reply.attached_clients = stats_.attached_clients;
    reply.admitted = stats_.admitted;
    reply.rejected = stats_.rejected;
    reply.results_forwarded = stats_.results_forwarded;
    reply.wal_appends = stats_.wal_appends;
    reply.wal_bytes = stats_.wal_bytes;
    reply.wal_fsync_us = stats_.wal_fsync_us;
    reply.wal_compactions = stats_.wal_compactions;
    reply.wal_recovered_records = stats_.wal_recovered_records;
    reply.wal_torn_tail_truncations = stats_.wal_torn_tail_truncations;
    reply.recovery_replayed_registrations =
        stats_.recovery_replayed_registrations;
    reply.recovery_candidates_examined = stats_.recovery_candidates_examined;
    reply.recovery_replay_us = stats_.recovery_replay_us;
    reply.recovery_checkpoint_load_us = stats_.recovery_checkpoint_load_us;
    reply.recovery_wal_scan_us = stats_.recovery_wal_scan_us;
    reply.recovery_replay_register_us = stats_.recovery_replay_register_us;
    reply.recovery_replay_feed_us = stats_.recovery_replay_feed_us;
    reply.recovery_fold_us = stats_.recovery_fold_us;
  }
  reply.epoch = epoch_;
  reply.draining = draining_.load(std::memory_order_relaxed);
  reply.items_fed = items_fed_;
  const std::vector<RegistrationResult>& registrations =
      system_->registrations();
  reply.queries.reserve(registrations.size());
  for (const RegistrationResult& registration : registrations) {
    QueryStat query;
    query.query_id = registration.query_id;
    query.accepted = registration.accepted;
    query.active = system_->IsActive(registration.query_id);
    if (registration.sink != nullptr) {
      query.items = registration.sink->item_count();
      query.bytes = registration.sink->total_bytes();
      query.content_hash = registration.sink->content_hash();
    }
    reply.queries.push_back(query);
  }
  return OkResponse(request.request_id, EncodeStatsReply(reply));
}

ControlResponse ServeDaemon::DoFeed(const ControlRequest& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(request.request_id,
                         Status::Unavailable("daemon is draining"));
  }
  Status fed = FeedItems(request.feed_items);
  if (!fed.ok()) return ErrorResponse(request.request_id, fed);
  crashpoint::MaybeCrash(crashpoint::kFeedPostFeedPreLog);
  // Durability before visibility: the feed offset syncs to the WAL
  // before any of its deliveries (or the ACK) leave the process, so a
  // client can never hold results of a feed a recovered daemon does not
  // know about.
  DurableAppend(WalRecord::Feed(items_fed_));
  if (!wal_error_.ok()) {
    return ErrorResponse(request.request_id, wal_error_);
  }
  // Queues the deliveries; a subscriber whose connection fails is
  // dropped at the pass's flush point and does not fail this feed.
  ForwardNewResults();
  FeedReply reply;
  reply.items_fed = items_fed_;
  return OkResponse(request.request_id, EncodeFeedReply(reply));
}

ControlResponse ServeDaemon::DoDrain(ClientState* client,
                                     const ControlRequest& request) {
  (void)client;
  if (!request.final_drain && options_.checkpoint_path.empty()) {
    return ErrorResponse(
        request.request_id,
        Status::InvalidArgument(
            "restartable drain needs a --checkpoint path"));
  }
  RequestDrain(request.final_drain);
  DrainReply reply;
  reply.final_drain = request.final_drain;
  reply.epoch = epoch_;
  return OkResponse(request.request_id, EncodeDrainReply(reply));
}

ControlResponse ServeDaemon::DoDetach(ClientState* client) {
  DetachClient(client, /*unsubscribe=*/false);
  return OkResponse(0, std::string());
}

void ServeDaemon::ForwardNewResults() {
  // One tick per forwarding pass: it is when the pass observed the
  // deliveries that appeared since the last one (the "ingress" of the
  // forwarding plane), and it stamps every frame of the pass. Only
  // attached queries are scanned — nobody forwards the others.
  uint64_t now = NowUs();
  std::string body;  // one frame body at a time, reused
  uint64_t forwarded = 0;
  for (std::unique_ptr<ClientState>& client : clients_) {
    for (auto& [query_id, attachment] : client->subs) {
      forwarded += ForwardTo(client.get(), query_id, &attachment, now, &body);
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.results_forwarded += forwarded;
  stats_.forward_channels = channels_.size();
}

uint64_t ServeDaemon::ForwardTo(ClientState* client, int query_id,
                                Attachment* attachment, uint64_t now,
                                std::string* body) {
  if (!system_->IsActive(query_id)) return 0;
  const engine::SinkOp* sink = system_->registrations()[query_id].sink;
  if (sink == nullptr) return 0;
  QueryChannel& channel = *attachment->channel;
  const uint64_t delivered = sink->retained_results();
  if (delivered > channel.observed) {
    channel.ticks.push_back({channel.observed, now});
    channel.observed = delivered;
  }
  const uint64_t first = attachment->next_index;
  if (first >= delivered) return 0;
  // The run that observed `first`; later indices walk on from it.
  auto run = std::prev(std::upper_bound(
      channel.ticks.begin(), channel.ticks.end(), first,
      [](uint64_t index, const QueryChannel::TickRun& next) {
        return index < next.first;
      }));
  for (uint64_t index = first; index < delivered; ++index) {
    if (run + 1 != channel.ticks.end() && (run + 1)->first == index) ++run;
    // Header and the stored encoding into the reused body, which
    // QueueFrame copies once into the send buffer. It cannot fail: while
    // the loop runs, a connection closes only in DropClient, which
    // clears subs.
    body->clear();
    AppendResultFrameHeader(body, query_id, index, run->tick, now);
    body->append(sink->retained(index));
    (void)client->conn.QueueFrame(transport::FrameType::kResult, *body,
                                  transport::kWireVersion);
  }
  attachment->next_index = delivered;
  client->results_forwarded += delivered - first;
  return delivered - first;
}

void ServeDaemon::Attach(ClientState* client, int query_id,
                         uint64_t next_index) {
  Attachment& attachment = client->subs[query_id];
  attachment.next_index = next_index;
  attachment.channel = &channels_[query_id];
}

void ServeDaemon::DropClient(ClientState* client) {
  DetachClient(client, /*unsubscribe=*/true);
  client->conn.Close();
}

void ServeDaemon::NoteNetCounters() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (const std::unique_ptr<ClientState>& client : clients_) {
    const FrameConn& conn = client->conn;
    stats_.net_sends += conn.sends() - client->noted_sends;
    stats_.net_frames_out += conn.frames_out() - client->noted_frames_out;
    stats_.net_bytes_out += conn.bytes_sent() - client->noted_bytes_out;
    client->noted_sends = conn.sends();
    client->noted_frames_out = conn.frames_out();
    client->noted_bytes_out = conn.bytes_sent();
  }
}

void ServeDaemon::DetachClient(ClientState* client, bool unsubscribe) {
  if (unsubscribe) {
    // A query that is no longer active, or widened a stream, stays as
    // it is: Unsubscribe refuses it without side effects.
    for (const auto& [query_id, attachment] : client->subs) {
      (void)attachment;
      (void)UnsubscribeQuery(query_id);
    }
  }
  client->subs.clear();
}

Checkpoint ServeDaemon::BuildCheckpoint() const {
  Checkpoint checkpoint;
  checkpoint.scenario_fingerprint = ScenarioFingerprint(scenario_);
  checkpoint.epoch = epoch_;
  checkpoint.generation = generation_;
  checkpoint.items_fed = items_fed_;
  checkpoint.events = event_log_;
  for (const RegistrationResult& registration :
       system_->registrations()) {
    if (registration.sink == nullptr || !registration.accepted) continue;
    if (!system_->IsActive(registration.query_id)) continue;
    DeliverySnapshot snapshot;
    snapshot.query_id = registration.query_id;
    snapshot.items = registration.sink->item_count();
    snapshot.content_hash = registration.sink->content_hash();
    checkpoint.deliveries.push_back(snapshot);
  }
  return checkpoint;
}

Status ServeDaemon::PerformDrain(bool final_drain) {
  uint64_t start = NowUs();
  draining_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.draining = true;
  }
  listener_.Close();

  if (final_drain) {
    // End of service: flush every in-flight window and forward the
    // flushed deliveries before saying goodbye. The durable files go
    // too — the service life is complete, and a leftover mid-life
    // compaction checkpoint must not resurrect a flushed-and-ended
    // deployment on the next start.
    SS_RETURN_IF_ERROR(system_->Shutdown());
    // The flushed deliveries leave with the EOS below.
    ForwardNewResults();
    if (durable()) {
      wal_.Close();
      std::remove(DefaultWalPath(options_.checkpoint_path).c_str());
      std::remove(options_.checkpoint_path.c_str());
    }
  } else {
    // Restartable drain: fold the event log into a fresh-generation
    // checkpoint, then retire the WAL (its records are all inside). A
    // crash between the two leaves a stale log the next recovery
    // recognizes by generation and discards. In-flight windows
    // deliberately stay unflushed — the replay resume reconstructs
    // them, so the eventual output is identical to an uninterrupted
    // run (flushing here would emit partials an uninterrupted run
    // never emits).
    crashpoint::MaybeCrash(crashpoint::kDrainPreCheckpoint);
    SS_RETURN_IF_ERROR(SaveNextCheckpoint());
    crashpoint::MaybeCrash(crashpoint::kCkptPostRenamePreWalReset);
    wal_.Close();
    std::remove(DefaultWalPath(options_.checkpoint_path).c_str());
  }

  for (std::unique_ptr<ClientState>& client : clients_) {
    if (!client->conn.open()) continue;
    ServeEos eos;
    eos.results_forwarded = client->results_forwarded;
    eos.final_drain = final_drain;
    // Best effort: a client that already vanished must not stall the
    // drain of the others.
    (void)client->conn.QueueFrame(transport::FrameType::kEos,
                                  EncodeServeEos(eos));
    (void)client->conn.FlushAll(/*timeout_ms=*/2000);
    client->conn.Close();
  }
  NoteNetCounters();
  clients_.clear();

  obs::EventLog& log = obs::EventLog::Default();
  if (log.ShouldLog(obs::Severity::kInfo)) {
    log.Log(obs::Severity::kInfo, "serve",
            final_drain ? "final drain complete"
                        : "restartable drain complete",
            {obs::F("epoch", epoch_), obs::F("items_fed", items_fed_)});
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.drain_micros = NowUs() - start;
  stats_.attached_clients = 0;
  return Status::Ok();
}

}  // namespace streamshare::serve
