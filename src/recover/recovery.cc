// Failure recovery of shared streams: the teardown / re-plan machinery
// behind StreamShareSystem::FailPeer, CutLink and Unsubscribe.
//
// Recovery is a registry walk, not a graph walk. A failure severs every
// stream whose route crosses the dead peer or a down link, plus —
// transitively — every stream derived from a severed one. Each active
// query that consumes or registered a severed stream (or whose own
// transmission route broke) is orphaned: its operator chains are detached
// (open windows are destroyed, counted, never flushed as partial results
// — gap, not garbage) and the query is re-planned with Subscribe against
// the surviving topology under epoch-safe reuse, its windowed residual
// operators rebuilt in resume mode so output restarts at the next window
// boundary. Shared streams are refcounted throughout: a departing query's
// chain up to a still-consumed stream's tail keeps running (parked), and
// a fixed point garbage-collects parked chains as their streams lose
// their last consumers, cascading up reuse chains.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "sharing/system.h"

namespace streamshare::sharing {

using network::NodeId;
using network::PeerHealth;
using network::RegisteredStream;
using network::StreamId;

namespace {

/// The path no longer carries traffic: a node on it is dead or a link on
/// it is down.
bool RouteBroken(const network::Topology& topology, const PeerHealth& health,
                 const std::vector<NodeId>& route) {
  for (NodeId node : route) {
    if (!health.RoutesThrough(node)) return true;
  }
  Result<std::vector<network::LinkId>> links = topology.LinksOnPath(route);
  if (links.ok()) {
    for (network::LinkId link : *links) {
      if (!health.LinkUp(link)) return true;
    }
  }
  return false;
}

}  // namespace

bool StreamShareSystem::StreamSevered(
    StreamId id, const std::vector<bool>& severed) const {
  const RegisteredStream& stream = registry_.stream(id);
  if (stream.retired) return false;
  if (RouteBroken(topology_, state_.health(), stream.route)) return true;
  // Streams register in derivation order, so upstream verdicts are final
  // by the time a derived stream is examined.
  return stream.upstream >= 0 && severed[stream.upstream];
}

bool StreamShareSystem::TryDismantle(ParkedWiring* parked,
                                     uint64_t* lost_windows) {
  QueryDeployment::InputWiring& w = parked->wiring;
  const bool stream_needed =
      w.registered_stream >= 0 &&
      !registry_.stream(w.registered_stream).retired &&
      registry_.stream(w.registered_stream).consumers > 0;
  if (stream_needed) {
    // The stream this wiring produces still feeds other subscriptions:
    // keep the segment up to its final tap flowing and cut only the
    // departed query's private tail behind it.
    if (!w.tail_cut) {
      if (w.stream_tail != nullptr && w.private_head != nullptr) {
        w.stream_tail->RemoveDownstream(w.private_head);
      }
      if (lost_windows != nullptr) {
        for (size_t i = w.tail_boundary; i < w.private_ops.size(); ++i) {
          *lost_windows += w.private_ops[i]->OpenWindowCount();
        }
      }
      w.tail_cut = true;
      w.tail_counted = true;
    }
    return false;
  }
  // Nothing depends on the wiring any more: detach the whole chain from
  // the shared tap, retire the stream it registered, release the
  // resources its plan input committed, and drop its consumer reference
  // (which may unblock a parked wiring further up the reuse chain).
  if (w.tap != nullptr && w.first != nullptr) {
    w.tap->RemoveDownstream(w.first);
  }
  if (lost_windows != nullptr) {
    size_t end = w.tail_counted ? w.tail_boundary : w.private_ops.size();
    for (size_t i = 0; i < end; ++i) {
      *lost_windows += w.private_ops[i]->OpenWindowCount();
    }
  }
  if (w.registered_stream >= 0) {
    registry_.Retire(w.registered_stream);
    taps_.erase(w.registered_stream);
  }
  for (const auto& [link, kbps] : parked->added_bandwidth_kbps) {
    state_.AddBandwidth(link, -kbps);
  }
  for (const auto& [peer, load] : parked->added_load) {
    state_.AddLoad(peer, -load);
  }
  if (w.reused_stream >= 0) registry_.ReleaseConsumer(w.reused_stream);
  return true;
}

void StreamShareSystem::ParkWirings(int query_id,
                                    QueryDeployment* deployment,
                                    const EvaluationPlan& plan,
                                    uint64_t* lost_windows) {
  for (size_t i = 0; i < deployment->inputs.size(); ++i) {
    ParkedWiring parked;
    parked.query_id = query_id;
    parked.wiring = deployment->inputs[i];
    if (i < plan.inputs.size()) {
      parked.added_bandwidth_kbps = plan.inputs[i].added_bandwidth_kbps;
      parked.added_load = plan.inputs[i].added_load;
    }
    if (!TryDismantle(&parked, lost_windows)) {
      parked_.push_back(std::move(parked));
    }
  }
  deployment->inputs.clear();
}

uint64_t StreamShareSystem::GcStreams() {
  uint64_t lost = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = parked_.begin(); it != parked_.end();) {
      if (TryDismantle(&*it, &lost)) {
        it = parked_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  return lost;
}

Status StreamShareSystem::Unsubscribe(int query_id) {
  SS_RETURN_IF_ERROR(CheckActiveSubscription(query_id));
  QueryDeployment& deployment = deployments_[query_id];
  if (deployment.widened_a_stream) {
    return Status::InvalidArgument(
        "query " + std::to_string(query_id) +
        " widened a shared stream; widening is irreversible while later "
        "subscriptions may rely on the widened content");
  }
  deployment.active = false;
  ParkWirings(query_id, &deployment, registrations_[query_id].plan,
              nullptr);
  GcStreams();
  registrations_[query_id].sink->DropRetained();
  obs::EventLog& log = obs::EventLog::Default();
  if (log.ShouldLog(obs::Severity::kInfo)) {
    log.Log(obs::Severity::kInfo, "recover", "query unsubscribed",
            {obs::F("query", query_id),
             obs::F("parked_chains", parked_.size())});
  }
  return Status::Ok();
}

Result<recover::RecoveryReport> StreamShareSystem::RecoverAfter(
    std::string trigger) {
  recover::RecoveryReport report;
  report.trigger = std::move(trigger);
  const PeerHealth& health = state_.health();

  // 1. Sever: walk the registry in derivation order; a stream is dead
  //    when its own route broke or the stream it taps is dead.
  std::vector<bool> severed(registry_.streams().size(), false);
  for (const RegisteredStream& stream : registry_.streams()) {
    if (StreamSevered(stream.id, severed)) {
      severed[stream.id] = true;
      report.severed_streams.push_back(stream.id);
    }
  }
  // Retire severed streams before re-planning: the planner must neither
  // reuse them nor treat a dead source as available.
  for (StreamId id : report.severed_streams) {
    registry_.Retire(id);
  }

  // 2. Classify every active query.
  struct Affected {
    int query_id;
    bool dead_target;
  };
  std::vector<Affected> affected;
  for (size_t q = 0; q < deployments_.size(); ++q) {
    const QueryDeployment& deployment = deployments_[q];
    if (!deployment.active) continue;
    const RegistrationResult& reg = registrations_[q];
    if (health.IsDead(reg.vq)) {
      affected.push_back({static_cast<int>(q), /*dead_target=*/true});
      continue;
    }
    bool orphaned = false;
    for (const QueryDeployment::InputWiring& w : deployment.inputs) {
      if ((w.reused_stream >= 0 && severed[w.reused_stream]) ||
          (w.registered_stream >= 0 && severed[w.registered_stream])) {
        orphaned = true;
        break;
      }
    }
    // Shipping strategies register no stream; their transmission route
    // lives only in the plan.
    for (const InputPlan& input : reg.plan.inputs) {
      if (orphaned) break;
      if (input.new_stream.has_value() &&
          RouteBroken(topology_, health, input.new_stream->route)) {
        orphaned = true;
      }
    }
    if (orphaned) {
      affected.push_back({static_cast<int>(q), /*dead_target=*/false});
    }
  }

  // 3. Tear down and re-plan, in query-id order so earlier recovered
  //    queries' re-registered (epoch-safe) streams are reusable by later
  //    ones.
  PlannerOptions recovery_options = config_.planner;
  recovery_options.epoch_safe_only = true;
  recovery_options.enable_widening = false;
  Planner recovery_planner(&topology_, &state_, &registry_,
                           cost_model_.get(), recovery_options);
  recovery_planner.set_candidate_index(candidate_index_.get());
  uint64_t lost_total = 0;
  for (const Affected& a : affected) {
    QueryDeployment& deployment = deployments_[a.query_id];
    RegistrationResult& reg = registrations_[a.query_id];
    recover::QueryRecovery outcome;
    outcome.query_id = a.query_id;
    outcome.old_cost = reg.plan.TotalCost();

    uint64_t lost_here = 0;
    deployment.active = false;
    ParkWirings(a.query_id, &deployment, reg.plan, &lost_here);

    if (a.dead_target) {
      outcome.outcome = recover::QueryRecovery::Outcome::kDeadTarget;
      outcome.detail =
          "target super-peer " + topology_.peer(reg.vq).name + " failed";
      ++report.dead_targets;
    } else {
      ++report.orphaned_queries;
      SearchStats search;
      Result<EvaluationPlan> plan = [&]() -> Result<EvaluationPlan> {
        switch (reg.strategy) {
          case Strategy::kDataShipping:
            return recovery_planner.DataShipping(*deployment.query,
                                                 reg.vq);
          case Strategy::kQueryShipping:
            return recovery_planner.QueryShipping(*deployment.query,
                                                  reg.vq);
          case Strategy::kStreamSharing:
            return recovery_planner.Subscribe(*deployment.query, reg.vq,
                                              &search);
        }
        return Status::Internal("unknown strategy");
      }();
      if (!plan.ok()) {
        outcome.outcome = recover::QueryRecovery::Outcome::kLost;
        outcome.detail = plan.status().message();
        ++report.lost_queries;
      } else if (config_.enforce_limits && !plan->Feasible()) {
        outcome.outcome = recover::QueryRecovery::Outcome::kLost;
        outcome.detail =
            "no evaluation plan without overload on the surviving "
            "topology";
        ++report.lost_queries;
      } else {
        engine::SinkOp* sink = reg.sink;
        Status built = BuildDeployment(*plan, deployment.query, reg.vq,
                                       reg.strategy, a.query_id,
                                       /*resume=*/true, &sink,
                                       &deployment);
        if (!built.ok()) {
          outcome.outcome = recover::QueryRecovery::Outcome::kLost;
          outcome.detail = built.message();
          deployment.active = false;
          ++report.lost_queries;
        } else {
          reg.plan = std::move(plan).value();
          if (reg.strategy == Strategy::kStreamSharing) {
            reg.search = std::move(search);
          }
          outcome.outcome = recover::QueryRecovery::Outcome::kReplanned;
          outcome.new_cost = reg.plan.TotalCost();
          ++report.replans;
        }
      }
    }
    outcome.lost_windows = lost_here;
    lost_total += lost_here;
    report.queries.push_back(std::move(outcome));
  }

  // 4. Garbage-collect parked chains whose streams lost their last
  //    consumer in this event (cascades up reuse chains).
  lost_total += GcStreams();
  report.lost_windows = lost_total;

  // 5. Snapshot every surviving sink: the epoch boundary the oracle
  //    compares post-recovery output against.
  for (size_t q = 0; q < deployments_.size(); ++q) {
    if (!deployments_[q].active) continue;
    const engine::SinkOp* sink = registrations_[q].sink;
    if (sink == nullptr) continue;
    recover::SinkSnapshot snapshot;
    snapshot.items = sink->item_count();
    snapshot.bytes = sink->total_bytes();
    snapshot.content_hash = sink->content_hash();
    report.snapshots[static_cast<int>(q)] = snapshot;
  }

  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("recover.replans")->Add(report.replans);
    registry.GetCounter("recover.orphaned_queries")
        ->Add(report.orphaned_queries);
    registry.GetCounter("recover.dead_target_queries")
        ->Add(report.dead_targets);
    registry.GetCounter("recover.lost_queries")->Add(report.lost_queries);
    registry.GetCounter("recover.lost_windows")->Add(report.lost_windows);
  }
  obs::EventLog& log = obs::EventLog::Default();
  if (log.ShouldLog(obs::Severity::kWarn)) {
    log.Log(obs::Severity::kWarn, "recover", "recovery completed",
            {obs::F("trigger", report.trigger),
             obs::F("severed_streams", report.severed_streams.size()),
             obs::F("replans", report.replans),
             obs::F("lost_queries", report.lost_queries),
             obs::F("dead_targets", report.dead_targets),
             obs::F("lost_windows", report.lost_windows)});
  }
  recovery_reports_.push_back(report);
  return report;
}

Result<recover::RecoveryReport> StreamShareSystem::FailPeer(NodeId peer) {
  if (peer < 0 || peer >= static_cast<NodeId>(topology_.peer_count())) {
    return Status::InvalidArgument("peer out of range");
  }
  if (state_.health().IsDead(peer)) {
    return Status::InvalidArgument("peer " + topology_.peer(peer).name +
                                   " is already dead");
  }
  state_.mutable_health().MarkDead(peer, "FailPeer");
  return RecoverAfter("fail-peer " + topology_.peer(peer).name);
}

Result<recover::RecoveryReport> StreamShareSystem::FailPeer(
    const std::string& peer_name) {
  std::optional<NodeId> peer = topology_.FindPeer(peer_name);
  if (!peer.has_value()) {
    return Status::NotFound("no peer named '" + peer_name + "'");
  }
  return FailPeer(*peer);
}

Result<recover::RecoveryReport> StreamShareSystem::CutLink(NodeId a,
                                                           NodeId b) {
  std::optional<network::LinkId> link = topology_.FindLink(a, b);
  if (!link.has_value()) {
    return Status::NotFound("no link between the given peers");
  }
  if (!state_.health().LinkUp(*link)) {
    return Status::InvalidArgument(
        "link " + topology_.peer(topology_.link(*link).a).name + "-" +
        topology_.peer(topology_.link(*link).b).name + " is already down");
  }
  state_.mutable_health().CutLink(*link);
  return RecoverAfter("cut-link " + topology_.peer(a).name + "-" +
                      topology_.peer(b).name);
}

}  // namespace streamshare::sharing
