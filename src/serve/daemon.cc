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

std::string ServeDaemon::WalPathOrDefault() const {
  return options_.wal_path.empty()
             ? DefaultWalPath(options_.checkpoint_path)
             : options_.wal_path;
}

Status ServeDaemon::RecoverDurableState() {
  const std::string wal_path = WalPathOrDefault();

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
    SS_RETURN_IF_ERROR(ApplyWalRecords(wal.records));
    applied_records = wal.records.size();
    // The log may outlive the checkpoint by whole service lives (every
    // life without a compaction extends the same base).
    if (wal.header.epoch + 1 > epoch_) epoch_ = wal.header.epoch + 1;
  }

  // Fold: a fresh checkpoint capturing everything the WAL added, then an
  // empty log extending it. Without records the checkpoint is already
  // current — only the (possibly missing or torn) log needs recreating.
  generation_ = have_checkpoint ? checkpoint.generation : 0;
  if (!have_checkpoint || applied_records != 0) {
    ++generation_;
    SS_RETURN_IF_ERROR(
        SaveCheckpoint(options_.checkpoint_path, BuildCheckpoint()));
  }
  crashpoint::MaybeCrash(crashpoint::kCkptPostRenamePreWalReset);
  WalHeader header;
  header.scenario_fingerprint = ScenarioFingerprint(scenario_);
  header.epoch = epoch_;
  header.base_generation = generation_;
  SS_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Create(wal_path, header));

  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.wal_recovered_records += applied_records;
  stats_.wal_torn_tail_truncations += torn_truncations;
  return Status::Ok();
}

Status ServeDaemon::ApplyWalRecords(const std::vector<WalRecord>& records) {
  if (options_.resume == ResumeFlavor::kReplay) {
    // Same interleaving as ReplayEvents, continued past the checkpoint:
    // regenerate the fed ranges and apply each logged mutation at the
    // offset it originally ran at.
    uint64_t fed = items_fed_;
    for (const WalRecord& record : records) {
      uint64_t at = record.kind == WalRecord::Kind::kFeed
                        ? record.items_fed
                        : record.event.at_items;
      if (at > fed) {
        SS_RETURN_IF_ERROR(FeedRange(fed, at));
        fed = at;
      }
      if (record.kind == WalRecord::Kind::kEvent) {
        SS_RETURN_IF_ERROR(ApplyLoggedEvent(record.event));
        event_log_.push_back(record.event);
      }
    }
    items_fed_ = fed;
    return Status::Ok();
  }

  // Gap flavor: events only, then skip the generators past the furthest
  // fed offset (windows re-anchor; see ReplayEvents).
  uint64_t fed = items_fed_;
  for (const WalRecord& record : records) {
    if (record.kind == WalRecord::Kind::kEvent) {
      SS_RETURN_IF_ERROR(ApplyLoggedEvent(record.event));
      event_log_.push_back(record.event);
      if (record.event.at_items > fed) fed = record.event.at_items;
    } else if (record.items_fed > fed) {
      fed = record.items_fed;
    }
  }
  for (workload::PhotonGenerator& generator : generators_) {
    for (uint64_t i = items_fed_; i < fed; ++i) generator.NextRecord();
  }
  items_fed_ = fed;
  return Status::Ok();
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
  ++generation_;
  SS_RETURN_IF_ERROR(
      SaveCheckpoint(options_.checkpoint_path, BuildCheckpoint()));
  crashpoint::MaybeCrash(crashpoint::kCkptPostRenamePreWalReset);
  WalHeader header;
  header.scenario_fingerprint = ScenarioFingerprint(scenario_);
  header.epoch = epoch_;
  header.base_generation = generation_;
  SS_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Create(WalPathOrDefault(),
                                                  header));
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.wal_compactions;
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
  SS_RETURN_IF_ERROR(ReplayEvents(checkpoint));
  event_log_ = checkpoint.events;
  items_fed_ = checkpoint.items_fed;
  return Status::Ok();
}

Status ServeDaemon::ReplayEvents(const Checkpoint& checkpoint) {
  if (options_.resume == ResumeFlavor::kReplay) {
    // pgcopydb's catchup: regenerate the fed item history and interleave
    // the logged control events at their recorded offsets — the engine
    // (open windows included) lands in the exact pre-drain state, and
    // the sinks re-accumulate the full delivery log so re-attached
    // clients can catch up from any sequence they already hold.
    uint64_t fed = 0;
    for (const LogEvent& event : checkpoint.events) {
      if (event.at_items > fed) {
        SS_RETURN_IF_ERROR(FeedRange(fed, event.at_items));
        fed = event.at_items;
      }
      SS_RETURN_IF_ERROR(ApplyLoggedEvent(event));
    }
    if (checkpoint.items_fed > fed) {
      SS_RETURN_IF_ERROR(FeedRange(fed, checkpoint.items_fed));
    }
    // Consistency check: the replayed deliveries must reproduce the
    // drained daemon's per-query counts and hashes exactly.
    const std::vector<RegistrationResult>& registrations =
        system_->registrations();
    for (const DeliverySnapshot& snapshot : checkpoint.deliveries) {
      if (snapshot.query_id < 0 ||
          static_cast<size_t>(snapshot.query_id) >= registrations.size()) {
        return Status::Internal(
            "checkpoint names query " +
            std::to_string(snapshot.query_id) +
            " the replay never registered");
      }
      const engine::SinkOp* sink =
          registrations[snapshot.query_id].sink;
      uint64_t items = sink == nullptr ? 0 : sink->item_count();
      uint64_t hash = sink == nullptr ? 0 : sink->content_hash();
      if (items != snapshot.items || hash != snapshot.content_hash) {
        return Status::Internal(
            "replay diverged on query " +
            std::to_string(snapshot.query_id) + ": checkpoint items=" +
            std::to_string(snapshot.items) + " hash=" +
            std::to_string(snapshot.content_hash) + ", replay items=" +
            std::to_string(items) + " hash=" + std::to_string(hash));
      }
    }
    return Status::Ok();
  }

  // Gap flavor: reinstall the control history without item history. The
  // installed population (query ids included) matches the drained
  // daemon; window operators start empty and re-anchor.
  for (const LogEvent& event : checkpoint.events) {
    SS_RETURN_IF_ERROR(ApplyLoggedEvent(event));
  }
  // Advance the generators past the already-consumed prefix so the
  // post-restart stream continues where the drained daemon stopped.
  for (workload::PhotonGenerator& generator : generators_) {
    for (uint64_t i = 0; i < checkpoint.items_fed; ++i) {
      generator.NextRecord();
    }
  }
  return Status::Ok();
}

Status ServeDaemon::ApplyLoggedEvent(const LogEvent& event) {
  switch (event.kind) {
    case LogEvent::Kind::kSubscribe: {
      SS_ASSIGN_OR_RETURN(
          RegistrationResult result,
          system_->RegisterQuery(event.query_text,
                                 static_cast<network::NodeId>(event.vq),
                                 StrategyFromByte(event.strategy)));
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

Status ServeDaemon::FeedRange(uint64_t from, uint64_t to) {
  if (to <= from) return Status::Ok();
  sharing::StreamShareSystem::BatchesByStream batches;
  for (size_t s = 0; s < scenario_.streams.size(); ++s) {
    batches[scenario_.streams[s].name] = generators_[s].GenerateBatches(
        to - from, options_.system.parallel.batch_size);
  }
  return system_->Feed(&batches);
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
  // and have no pollfd yet.
  std::vector<size_t> closed;
  for (size_t i = 0; i + 1 < fds.size(); ++i) {
    ClientState* client = clients_[i].get();
    short revents = fds[i + 1].revents;
    if (revents == 0) continue;
    if ((revents & POLLOUT) != 0) {
      Status flush = client->conn.FlushSome();
      if (!flush.ok()) {
        DetachClient(client, /*unsubscribe=*/true);
        closed.push_back(i);
        continue;
      }
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      Status handled = HandleReadable(client);
      if (!handled.ok()) {
        // A vanished client implicitly unsubscribes everything it was
        // serving (refcounted stream GC); protocol garbage does too.
        DetachClient(client, /*unsubscribe=*/true);
        closed.push_back(i);
      }
    }
  }
  for (auto it = closed.rbegin(); it != closed.rend(); ++it) {
    clients_.erase(clients_.begin() + static_cast<long>(*it));
  }
  if (!closed.empty()) {
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
    Attachment attachment;
    attachment.next_index = std::min(request.resume_from, have);
    client->subs[query_id] = attachment;
    SubscribeReply reply;
    reply.query_id = query_id;
    reply.accepted = true;
    reply.forward_from = attachment.next_index;
    return OkResponse(request.request_id, EncodeSubscribeReply(reply));
  }

  Result<RegistrationResult> result = system_->RegisterQuery(
      request.query_text, static_cast<network::NodeId>(request.vq),
      StrategyFromByte(request.strategy));
  if (!result.ok()) {
    // Parse/analysis failure: no query id was consumed, nothing to log.
    return ErrorResponse(request.request_id, result.status());
  }
  // Accepted or admission-rejected, the registration consumed a query
  // id — log it (and make it durable before the ACK) so a replay
  // reassigns identical ids.
  LogEvent event;
  event.kind = LogEvent::Kind::kSubscribe;
  event.at_items = items_fed_;
  event.query_text = request.query_text;
  event.vq = request.vq;
  event.strategy = request.strategy;
  event_log_.push_back(event);
  DurableAppend(WalRecord::Event(std::move(event)));

  SubscribeReply reply;
  reply.query_id = result->query_id;
  reply.accepted = result->accepted;
  reply.reject_reason = result->reject_reason;
  if (result->accepted && result->sink != nullptr) {
    result->sink->EnableContentHash();
    Attachment attachment;
    attachment.next_index =
        std::min(request.resume_from,
                 static_cast<uint64_t>(result->sink->item_count()));
    reply.forward_from = attachment.next_index;
    client->subs[result->query_id] = attachment;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (result->accepted) {
      ++stats_.admitted;
    } else {
      // The E6 admission-control path: a structured rejection, with the
      // deployment untouched and the daemon still serving.
      ++stats_.rejected;
    }
  }
  return OkResponse(request.request_id, EncodeSubscribeReply(reply));
}

ControlResponse ServeDaemon::DoSubscribeBatch(
    ClientState* client, const ControlRequest& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(request.request_id,
                         Status::Unavailable("daemon is draining"));
  }
  std::vector<sharing::StreamShareSystem::BatchQuery> queries;
  queries.reserve(request.batch.size());
  for (const ControlRequest::BatchEntry& entry : request.batch) {
    sharing::StreamShareSystem::BatchQuery query;
    query.text = entry.query_text;
    query.vq = static_cast<network::NodeId>(entry.vq);
    query.strategy = StrategyFromByte(entry.strategy);
    queries.push_back(std::move(query));
  }
  sharing::StreamShareSystem::BatchStats batch_stats;
  Result<std::vector<RegistrationResult>> results =
      system_->SubscribeBatch(queries, &batch_stats);
  // Every registration that consumed a query id — the whole batch, or
  // the installed prefix before a hard error — logs as a plain
  // subscribe: batch == sequential is the determinism invariant, so a
  // replay through individual registrations rebuilds identical state.
  for (int i = 0; i < batch_stats.registered; ++i) {
    LogEvent event;
    event.kind = LogEvent::Kind::kSubscribe;
    event.at_items = items_fed_;
    event.query_text = request.batch[i].query_text;
    event.vq = request.batch[i].vq;
    event.strategy = request.batch[i].strategy;
    event_log_.push_back(event);
    DurableAppend(WalRecord::Event(std::move(event)));
  }
  if (!results.ok()) {
    return ErrorResponse(request.request_id, results.status());
  }

  SubscribeBatchReply reply;
  reply.analyze_cache_hits =
      static_cast<uint64_t>(batch_stats.analyze_cache_hits);
  reply.plan_memo_hits = static_cast<uint64_t>(batch_stats.plan_memo_hits);
  reply.entries.reserve(results->size());
  uint64_t admitted = 0, rejected = 0;
  for (const RegistrationResult& result : *results) {
    SubscribeReply entry;
    entry.query_id = result.query_id;
    entry.accepted = result.accepted;
    entry.reject_reason = result.reject_reason;
    if (result.accepted && result.sink != nullptr) {
      result.sink->EnableContentHash();
      client->subs[result.query_id] = Attachment{};
      ++admitted;
    }
    if (!result.accepted) ++rejected;
    reply.entries.push_back(std::move(entry));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.admitted += admitted;
    stats_.rejected += rejected;
  }
  return OkResponse(request.request_id,
                    EncodeSubscribeBatchReply(reply));
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
  event.at_items = items_fed_;
  event.max_migrations = request.max_migrations;
  event_log_.push_back(event);
  DurableAppend(WalRecord::Event(std::move(event)));
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
  Status status = system_->Unsubscribe(query_id);
  if (!status.ok()) return ErrorResponse(request.request_id, status);
  LogEvent event;
  event.kind = LogEvent::Kind::kUnsubscribe;
  event.at_items = items_fed_;
  event.query_id = request.query_id;
  event_log_.push_back(event);
  DurableAppend(WalRecord::Event(std::move(event)));
  client->subs.erase(query_id);
  for (const std::unique_ptr<ClientState>& other : clients_) {
    other->subs.erase(query_id);
  }
  channels_.erase(query_id);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.unsubscribed;
  }
  return OkResponse(request.request_id, std::string());
}

ControlResponse ServeDaemon::DoFailPeer(const ControlRequest& request) {
  Result<recover::RecoveryReport> report =
      system_->FailPeer(static_cast<network::NodeId>(request.peer));
  if (!report.ok()) return ErrorResponse(request.request_id,
                                         report.status());
  LogEvent event;
  event.kind = LogEvent::Kind::kFailPeer;
  event.at_items = items_fed_;
  event.peer = request.peer;
  event_log_.push_back(event);
  DurableAppend(WalRecord::Event(std::move(event)));
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
  event.at_items = items_fed_;
  event.link_a = request.link_a;
  event.link_b = request.link_b;
  event_log_.push_back(event);
  DurableAppend(WalRecord::Event(std::move(event)));
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
  Status forwarded = ForwardNewResults();
  if (!forwarded.ok()) {
    return ErrorResponse(request.request_id, forwarded);
  }
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

Status ServeDaemon::ForwardNewResults() {
  // Note the observation tick of every delivery that appeared since the
  // last scan (the "ingress" of the forwarding plane).
  uint64_t now = NowUs();
  for (const RegistrationResult& registration :
       system_->registrations()) {
    if (registration.sink == nullptr || !registration.accepted) continue;
    QueryChannel& channel = channels_[registration.query_id];
    size_t delivered = registration.sink->items().size();
    while (channel.observed_us.size() < delivered) {
      channel.observed_us.push_back(now);
    }
  }
  // A client whose connection failed keeps the others from losing their
  // deliveries; the first failure is still reported.
  Status first_error = Status::Ok();
  for (std::unique_ptr<ClientState>& client : clients_) {
    for (auto& [query_id, attachment] : client->subs) {
      Status forwarded = ForwardTo(client.get(), query_id, &attachment);
      if (!forwarded.ok()) {
        if (first_error.ok()) first_error = std::move(forwarded);
        break;
      }
    }
  }
  return first_error;
}

Status ServeDaemon::ForwardTo(ClientState* client, int query_id,
                              Attachment* attachment) {
  if (!system_->IsActive(query_id)) return Status::Ok();
  const engine::SinkOp* sink = system_->registrations()[query_id].sink;
  if (sink == nullptr) return Status::Ok();
  const std::vector<engine::ItemPtr>& items = sink->items();
  const QueryChannel& channel = channels_[query_id];
  uint64_t forwarded = 0;
  std::string encoded;
  while (attachment->next_index < items.size()) {
    uint64_t index = attachment->next_index;
    encoded.clear();
    client->encoder.Encode(*items[index], &encoded);
    uint64_t delivery_us = index < channel.observed_us.size()
                               ? channel.observed_us[index]
                               : NowUs();
    std::string body = EncodeResultFrame(query_id, index, delivery_us,
                                         NowUs(), encoded);
    SS_RETURN_IF_ERROR(client->conn.QueueFrame(
        transport::FrameType::kResult, body, transport::kWireVersion));
    ++attachment->next_index;
    ++forwarded;
  }
  if (forwarded != 0) {
    client->results_forwarded += forwarded;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.results_forwarded += forwarded;
  }
  return Status::Ok();
}

void ServeDaemon::DetachClient(ClientState* client, bool unsubscribe) {
  if (unsubscribe) {
    for (const auto& [query_id, attachment] : client->subs) {
      (void)attachment;
      if (!system_->IsActive(query_id)) continue;
      if (system_->Unsubscribe(query_id).ok()) {
        LogEvent event;
        event.kind = LogEvent::Kind::kUnsubscribe;
        event.at_items = items_fed_;
        event.query_id = query_id;
        event_log_.push_back(event);
        DurableAppend(WalRecord::Event(std::move(event)));
        channels_.erase(query_id);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.unsubscribed;
      }
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
    // Best effort, like the EOS below: a client that closed before the
    // loop noticed must not fail the drain of the others.
    (void)ForwardNewResults();
    if (durable()) {
      wal_.Close();
      std::remove(WalPathOrDefault().c_str());
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
    ++generation_;
    SS_RETURN_IF_ERROR(
        SaveCheckpoint(options_.checkpoint_path, BuildCheckpoint()));
    crashpoint::MaybeCrash(crashpoint::kCkptPostRenamePreWalReset);
    wal_.Close();
    std::remove(WalPathOrDefault().c_str());
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
