#include "sharing/system.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <set>

#include "engine/combine.h"
#include "engine/restructure.h"
#include "engine/window_agg.h"
#include "obs/event_log.h"
#include "sharing/latency_audit.h"
#include "obs/trace.h"
#include "transport/loopback.h"
#include "transport/tcp.h"

namespace streamshare::sharing {

using network::NodeId;
using network::RegisteredStream;
using network::StreamId;

std::string_view StrategyToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kDataShipping:
      return "data shipping";
    case Strategy::kQueryShipping:
      return "query shipping";
    case Strategy::kStreamSharing:
      return "stream sharing";
  }
  return "?";
}

StreamShareSystem::StreamShareSystem(network::Topology topology,
                                     SystemConfig config)
    : topology_(std::move(topology)),
      config_(config),
      state_(&topology_),
      metrics_(topology_) {
  // A resumed system must not reuse aggregate streams whose windows may
  // straddle the resume point — see PlannerOptions::epoch_safe_only.
  if (config_.resume_mode) config_.planner.epoch_safe_only = true;
  cost_model_ =
      std::make_unique<cost::CostModel>(&statistics_, config_.cost_params);
  if (config_.candidate_index) {
    candidate_index_ = std::make_unique<CandidateIndex>(&topology_,
                                                        &registry_);
    registry_.set_listener(candidate_index_.get());
  }
  planner_ = std::make_unique<Planner>(&topology_, &state_, &registry_,
                                       cost_model_.get(), config_.planner);
  planner_->set_candidate_index(candidate_index_.get());
  if (!config_.subnet_assignment.empty()) {
    Result<network::SubnetPartition> partition =
        network::SubnetPartition::Create(&topology_,
                                         config_.subnet_assignment);
    if (partition.ok()) {
      partition_ = std::make_unique<network::SubnetPartition>(
          std::move(partition).value());
      hierarchical_planner_ = std::make_unique<HierarchicalPlanner>(
          planner_.get(), partition_.get());
    }
    // An invalid assignment silently falls back to flat planning; the
    // constructor cannot report errors, and flat plans are always valid.
  }
}

Status StreamShareSystem::RegisterStream(
    const std::string& name,
    std::shared_ptr<const xml::StreamSchema> schema,
    double item_frequency_hz, NodeId source) {
  return RegisterStream(
      name, cost::StreamStatistics(std::move(schema), item_frequency_hz),
      source);
}

Status StreamShareSystem::RegisterStream(
    const std::string& name, cost::StreamStatistics statistics,
    NodeId source) {
  if (registry_.FindOriginal(name) != nullptr) {
    return Status::AlreadyExists("stream '" + name +
                                 "' is already registered");
  }
  if (source < 0 || source >= static_cast<NodeId>(topology_.peer_count())) {
    return Status::InvalidArgument("source peer out of range");
  }
  statistics_.Register(name, std::move(statistics));

  RegisteredStream stream;
  stream.variant_of = name;
  stream.props.stream_name = name;
  stream.source_node = source;
  stream.target_node = source;
  stream.route = {source};
  SS_ASSIGN_OR_RETURN(cost::StreamEstimate estimate,
                      cost_model_->EstimateStream(stream.props));
  stream.rate_kbps = estimate.RateKbps();
  StreamId id = registry_.Register(std::move(stream));

  engine::Operator* entry =
      graph_.Add<engine::PassOp>("source:" + name);
  taps_[id].taps = {entry};
  stream_entries_[name] = entry;
  obs::EventLog& log = obs::EventLog::Default();
  if (log.ShouldLog(obs::Severity::kInfo)) {
    log.Log(obs::Severity::kInfo, "sharing", "stream registered",
            {obs::F("stream", name),
             obs::F("source", topology_.peer(source).name),
             obs::F("rate_kbps", registry_.stream(id).rate_kbps)});
  }
  return Status::Ok();
}

Status StreamShareSystem::SetRange(const std::string& stream,
                                   const xml::Path& path,
                                   cost::ValueRange range) {
  // StatisticsRegistry stores by value; mutate through a fresh copy.
  const cost::StreamStatistics* stats = statistics_.Find(stream);
  if (stats == nullptr) {
    return Status::NotFound("stream '" + stream + "' is not registered");
  }
  cost::StreamStatistics updated = *stats;
  updated.SetRange(path, range);
  statistics_.Register(stream, std::move(updated));
  return Status::Ok();
}

Status StreamShareSystem::SetAvgIncrement(const std::string& stream,
                                          const xml::Path& path,
                                          double increment) {
  const cost::StreamStatistics* stats = statistics_.Find(stream);
  if (stats == nullptr) {
    return Status::NotFound("stream '" + stream + "' is not registered");
  }
  cost::StreamStatistics updated = *stats;
  updated.SetAvgIncrement(path, increment);
  statistics_.Register(stream, std::move(updated));
  return Status::Ok();
}

Result<RegistrationResult> StreamShareSystem::RegisterQuery(
    std::string_view query_text, NodeId vq, Strategy strategy) {
  if (vq < 0 || vq >= static_cast<NodeId>(topology_.peer_count())) {
    return Status::InvalidArgument("query target peer out of range");
  }
  auto start = std::chrono::steady_clock::now();
  obs::TraceSpan span(&obs::TraceRecorder::Default(), "RegisterQuery",
                      "sharing");
  span.AddArg(obs::TraceArg::Str("strategy",
                                 std::string(StrategyToString(strategy))));
  span.AddArg(obs::TraceArg::Str("vq", topology_.peer(vq).name));

  RegistrationResult result;
  result.query_id = static_cast<int>(registrations_.size());
  result.vq = vq;
  result.strategy = strategy;

  SS_ASSIGN_OR_RETURN(wxquery::AnalyzedQuery analyzed,
                      wxquery::ParseAndAnalyze(query_text));
  auto query =
      std::make_shared<const wxquery::AnalyzedQuery>(std::move(analyzed));

  Result<EvaluationPlan> plan = [&]() -> Result<EvaluationPlan> {
    switch (strategy) {
      case Strategy::kDataShipping:
        return planner_->DataShipping(*query, vq);
      case Strategy::kQueryShipping:
        return planner_->QueryShipping(*query, vq);
      case Strategy::kStreamSharing:
        if (hierarchical_planner_ != nullptr) {
          return hierarchical_planner_->Subscribe(*query, vq,
                                                  &result.search);
        }
        return planner_->Subscribe(*query, vq, &result.search);
    }
    return Status::Internal("unknown strategy");
  }();
  SS_RETURN_IF_ERROR(plan.status());
  result.plan = std::move(plan).value();

  if (config_.enforce_limits && !result.plan.Feasible()) {
    result.accepted = false;
    result.reject_reason =
        "no evaluation plan without overload on peers or connections";
    deployments_.emplace_back();  // inactive placeholder
  } else {
    SS_RETURN_IF_ERROR(
        DeployPlan(result.plan, query, vq, strategy, &result));
    result.accepted = true;
    queries_.push_back(query);
  }

  auto end = std::chrono::steady_clock::now();
  result.registration_micros =
      std::chrono::duration<double, std::micro>(end - start).count();

  span.AddArg(obs::TraceArg::Num("C(P)", result.plan.TotalCost()));
  span.AddArg(obs::TraceArg::Num(
      "plans_generated",
      static_cast<double>(result.search.plans_generated)));
  span.AddArg(obs::TraceArg::Str("accepted",
                                 result.accepted ? "true" : "false"));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  static obs::Histogram* micros = registry.GetHistogram(
      "sharing.subscribe.micros",
      obs::Histogram::ExponentialBounds(10, 4, 10));
  static obs::Histogram* costs = registry.GetHistogram(
      "sharing.plan.cost",
      obs::Histogram::ExponentialBounds(0.001, 4, 14));
  static obs::Counter* accepted =
      registry.GetCounter("sharing.queries.accepted");
  static obs::Counter* rejected =
      registry.GetCounter("sharing.queries.rejected");
  micros->Observe(result.registration_micros);
  costs->Observe(result.plan.TotalCost());
  (result.accepted ? accepted : rejected)->Add(1);
  obs::EventLog& log = obs::EventLog::Default();
  if (log.ShouldLog(obs::Severity::kInfo)) {
    std::vector<obs::LogField> fields = {
        obs::F("query", result.query_id),
        obs::F("strategy", StrategyToString(strategy)),
        obs::F("vq", topology_.peer(vq).name),
        obs::F("cost", result.plan.TotalCost()),
        obs::F("accepted", result.accepted)};
    if (!result.accepted) {
      fields.push_back(obs::F("reason", result.reject_reason));
    }
    log.Log(obs::Severity::kInfo, "sharing", "query registered",
            std::move(fields));
  }

  registrations_.push_back(result);
  return result;
}

bool StreamShareSystem::IsActive(int query_id) const {
  return query_id >= 0 &&
         static_cast<size_t>(query_id) < deployments_.size() &&
         deployments_[query_id].active;
}

Status StreamShareSystem::CheckActiveSubscription(int query_id) const {
  if (query_id < 0 ||
      static_cast<size_t>(query_id) >= deployments_.size()) {
    return Status::NotFound("query " + std::to_string(query_id) +
                            " was never registered");
  }
  if (deployments_[query_id].active) return Status::Ok();
  if (static_cast<size_t>(query_id) < registrations_.size() &&
      !registrations_[query_id].accepted) {
    return Status::NotFound("query " + std::to_string(query_id) +
                            " was rejected at admission and never deployed");
  }
  return Status::NotFound("query " + std::to_string(query_id) +
                          " was already unsubscribed");
}

Result<StreamShareSystem::ReoptimizeReport> StreamShareSystem::Reoptimize(
    int max_migrations) {
  ReoptimizeReport report;
  // Re-optimization uses the recovery planner profile, so a migrated
  // query depends only on post-migration items and no background pass
  // ever widens a stream.
  const Planner planner = EpochSafePlanner();

  for (int query_id = 0;
       query_id < static_cast<int>(deployments_.size()); ++query_id) {
    if (max_migrations >= 0 && report.migrated >= max_migrations) break;
    QueryDeployment& deployment = deployments_[query_id];
    if (!deployment.active || deployment.query == nullptr) continue;
    RegistrationResult& reg = registrations_[query_id];
    if (reg.strategy != Strategy::kStreamSharing) continue;
    // A query that widened a stream cannot hand its wiring over (the
    // widening is irreversible while consumers may rely on it).
    if (deployment.widened_a_stream) continue;
    ++report.examined;
    double old_cost = reg.plan.TotalCost();
    report.cost_before += old_cost;

    // Phase 1, read-only: is a strictly cheaper epoch-safe plan available
    // against today's stream population? The estimate is pessimistic —
    // the query's own committed resources still count against
    // availability — so the pass only ever migrates less, never more,
    // than a from-scratch replan would.
    Result<EvaluationPlan> estimate =
        planner.Subscribe(*deployment.query, reg.vq);
    if (!estimate.ok() ||
        !(estimate->TotalCost() < old_cost * (1.0 - 1e-9)) ||
        (config_.enforce_limits && !estimate->Feasible())) {
      report.cost_after += old_cost;
      continue;
    }

    // The estimate must not count on a stream that parking this query
    // would retire — its own orphaned streams, or a departed query's
    // stream this query keeps alive as last consumer. Such a plan can
    // never be realized (phase 2 re-plans post-park, after the GC), so
    // migrating on its promise would tear down windows for a handover
    // that lands back at the old cost — and a background pass would
    // repeat that churn forever. The retirement cascade is simulated
    // against a copy of the consumer counts, exactly TryDismantle's
    // rules, without touching the registry.
    std::map<StreamId, int> consumer_counts;
    auto count = [&](StreamId stream) -> int& {
      auto [it, inserted] = consumer_counts.try_emplace(
          stream, registry_.stream(stream).consumers);
      return it->second;
    };
    std::set<StreamId> would_retire;
    std::function<void(StreamId)> release = [&](StreamId stream) {
      if (stream < 0) return;
      if (--count(stream) > 0) return;
      // Streams with an active owner survive at zero consumers; only a
      // parked owner wiring dismantles when its last consumer leaves.
      for (const ParkedWiring& parked : parked_) {
        if (parked.wiring.registered_stream != stream ||
            would_retire.count(stream) != 0) {
          continue;
        }
        would_retire.insert(stream);
        release(parked.wiring.reused_stream);
        return;
      }
    };
    for (const QueryDeployment::InputWiring& wiring : deployment.inputs) {
      if (wiring.registered_stream >= 0 &&
          count(wiring.registered_stream) > 0) {
        continue;  // still tapped: the wiring parks intact, refs held
      }
      if (wiring.registered_stream >= 0) {
        would_retire.insert(wiring.registered_stream);
      }
      release(wiring.reused_stream);
    }
    bool self_dependent = false;
    for (const InputPlan& input : estimate->inputs) {
      if (would_retire.count(input.reused_stream) != 0) {
        self_dependent = true;
        break;
      }
    }
    if (self_dependent) {
      report.cost_after += old_cost;
      continue;
    }

    // Phase 2: the epoch-safe stream handover, exactly the recovery
    // pattern — park the old wiring (shared segments keep flowing for
    // their consumers), re-plan against the post-park state (the
    // query's resources are released and its orphaned streams retired,
    // so the plan is built from what actually survives), rebuild onto
    // the existing sink in resume mode, and GC what lost its last
    // consumer. Gap-not-garbage: the query resumes at the next window
    // boundary.
    uint64_t lost_here = 0;
    bool restored = ReplanOntoSink(planner, query_id, &lost_here).ok();
    lost_here += GcStreams();
    report.lost_windows += lost_here;
    if (restored) {
      ++report.migrated;
      report.cost_after += reg.plan.TotalCost();
    } else {
      ++report.torn_down;
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetCounter("sharing.reoptimize.passes")->Add(1);
  registry.GetCounter("sharing.reoptimize.migrated")->Add(report.migrated);
  registry.GetCounter("sharing.reoptimize.lost_windows")
      ->Add(report.lost_windows);
  obs::EventLog& log = obs::EventLog::Default();
  if (log.ShouldLog(obs::Severity::kInfo)) {
    log.Log(obs::Severity::kInfo, "sharing", "reoptimize pass",
            {obs::F("examined", report.examined),
             obs::F("migrated", report.migrated),
             obs::F("cost_before", report.cost_before),
             obs::F("cost_after", report.cost_after),
             obs::F("lost_windows", report.lost_windows)});
  }
  return report;
}

Status StreamShareSystem::WireInput(
    const InputPlan& input,
    std::shared_ptr<const wxquery::AnalyzedQuery> query, NodeId vq,
    Strategy strategy, int query_id, bool resume,
    engine::Operator* terminal, QueryDeployment::InputWiring* wiring) {
  const cost::CostParams& params = cost_model_->params();
  (void)query;
  (void)vq;
  wiring->reused_stream = input.reused_stream;
  registry_.AddConsumer(input.reused_stream);

  // Stream widening: relax the deployed producer operators and update the
  // registry before the new subscription attaches. Consumers are immune
  // by construction (their residual/compensation operators re-filter).
  if (input.widening.has_value()) {
    const WideningSpec& widening = *input.widening;
    DeployedStream& deployed = taps_[widening.stream];
    if (deployed.select != nullptr) {
      deployed.select->set_predicates(widening.widened_selection);
    }
    if (deployed.project != nullptr && !widening.widened_output.empty()) {
      deployed.project->set_output_paths(widening.widened_output);
    }
    RegisteredStream& record = registry_.mutable_stream(widening.stream);
    record.props = widening.widened_props;
    record.rate_kbps = widening.new_rate_kbps;
    registry_.NotifyUpdated(widening.stream);
  }

  // Locate the tap operator where the reused stream is intercepted.
  const RegisteredStream& reused = registry_.stream(input.reused_stream);
  auto route_it = std::find(reused.route.begin(), reused.route.end(),
                            input.reuse_node);
  if (route_it == reused.route.end()) {
    return Status::Internal("reuse node is not on the reused stream's "
                            "route");
  }
  size_t tap_index =
      static_cast<size_t>(route_it - reused.route.begin());
  engine::Operator* const tap =
      taps_[input.reused_stream].taps[tap_index];
  engine::Operator* current = tap;
  wiring->tap = tap;

  // Records the head of this query's private chain — the operator the tap
  // must shed on deregistration — and, once past the stream tail, the
  // head of the private tail behind a registered shared stream.
  bool past_tail = false;
  auto attach = [&](engine::Operator* op) {
    if (current == tap && wiring->first == nullptr) wiring->first = op;
    if (past_tail && wiring->private_head == nullptr) {
      wiring->private_head = op;
    }
    current->AddDownstream(op);
    current = op;
    wiring->private_ops.push_back(op);
  };

  auto make_engine_op =
      [&](const EngineOpSpec& spec) -> Result<engine::Operator*> {
    engine::Operator* op = nullptr;
    std::string label =
        "q" + std::to_string(query_id) + ":" + spec.ToString();
    switch (spec.kind) {
      case EngineOpSpec::Kind::kSelect:
        op = graph_.Add<engine::SelectOp>(label, spec.predicates);
        break;
      case EngineOpSpec::Kind::kProject:
        op = graph_.Add<engine::ProjectOp>(label, spec.output_paths);
        break;
      case EngineOpSpec::Kind::kWindowAgg:
        op = graph_.Add<engine::WindowAggOp>(
            label, spec.func, spec.aggregated_element, spec.window,
            resume);
        break;
      case EngineOpSpec::Kind::kAggCombine:
        op = graph_.Add<engine::AggCombineOp>(label, spec.func,
                                              spec.fine_window, spec.window);
        break;
      case EngineOpSpec::Kind::kAggFilter:
        op = graph_.Add<engine::AggFilterOp>(label, spec.func,
                                             spec.predicates);
        break;
      case EngineOpSpec::Kind::kWindowContents:
        op = graph_.Add<engine::WindowContentsOp>(label, spec.window,
                                                  resume);
        break;
    }
    op->SetAccounting(&metrics_, spec.node,
                      BaseLoadFor(spec.kind, params) *
                          topology_.peer(spec.node).pindex);
    return op;
  };

  // Operators at the reuse node run before transmission; compensation
  // operators never do (they belong behind the shared tap points).
  engine::SelectOp* producer_select = nullptr;
  engine::ProjectOp* producer_project = nullptr;
  for (const EngineOpSpec& spec : input.ops) {
    if (spec.compensation || spec.node != input.reuse_node ||
        input.ships_raw_stream) {
      continue;
    }
    SS_ASSIGN_OR_RETURN(engine::Operator * op, make_engine_op(spec));
    if (spec.kind == EngineOpSpec::Kind::kSelect) {
      producer_select = static_cast<engine::SelectOp*>(op);
    }
    if (spec.kind == EngineOpSpec::Kind::kProject) {
      producer_project = static_cast<engine::ProjectOp*>(op);
    }
    attach(op);
  }

  // Transmission along the route: one LinkOp per hop, billed to the
  // sending peer.
  std::vector<engine::Operator*> new_taps{current};
  if (input.new_stream.has_value()) {
    const std::vector<NodeId>& route = input.new_stream->route;
    SS_ASSIGN_OR_RETURN(std::vector<network::LinkId> links,
                        topology_.LinksOnPath(route));
    for (size_t i = 0; i < links.size(); ++i) {
      NodeId sender = route[i];
      engine::Operator* link_op = graph_.Add<engine::LinkOp>(
          "link:" + topology_.peer(sender).name + "->" +
              topology_.peer(route[i + 1]).name,
          &metrics_, links[i]);
      link_op->SetAccounting(&metrics_, sender,
                             params.bload_transport *
                                 topology_.peer(sender).pindex);
      attach(link_op);
      new_taps.push_back(link_op);
    }
  }

  // Everything attached from here on is private to this query even when
  // it registers a shared stream — `current` is the stream's final tap,
  // and Unsubscribe cuts behind it while other consumers remain.
  wiring->stream_tail = current;
  wiring->tail_boundary = wiring->private_ops.size();
  past_tail = true;

  // Operators at the query's super-peer: data shipping places everything
  // here, and compensation operators always deploy behind the tap points.
  for (const EngineOpSpec& spec : input.ops) {
    if (!spec.compensation && spec.node == input.reuse_node &&
        !input.ships_raw_stream) {
      continue;
    }
    SS_ASSIGN_OR_RETURN(engine::Operator * op, make_engine_op(spec));
    attach(op);
  }

  // Hand the input's stream to the query's terminal (the restructuring
  // operator, or one combination port for multi-input subscriptions).
  if (current == tap && wiring->first == nullptr) wiring->first = terminal;
  if (wiring->private_head == nullptr) wiring->private_head = terminal;
  current->AddDownstream(terminal);

  // Under stream sharing, the new (pre-restructuring) stream becomes a
  // reuse candidate for later subscriptions.
  if (strategy == Strategy::kStreamSharing &&
      input.new_stream.has_value()) {
    RegisteredStream stream;
    stream.variant_of = input.input_stream_name;
    stream.props = input.new_stream->props;
    stream.source_node = input.new_stream->source_node;
    stream.target_node = input.new_stream->target_node;
    stream.route = input.new_stream->route;
    stream.rate_kbps = input.new_stream->rate_kbps;
    stream.upstream = input.reused_stream;
    // Source latency of the new stream: the reused stream's own source
    // latency plus the route prefix up to the tap node.
    stream.source_latency_ms = reused.source_latency_ms;
    {
      auto tap_it = std::find(reused.route.begin(), reused.route.end(),
                              input.reuse_node);
      if (tap_it != reused.route.end()) {
        std::vector<NodeId> prefix(reused.route.begin(), tap_it + 1);
        Result<double> prefix_latency = topology_.PathLatencyMs(prefix);
        if (prefix_latency.ok()) {
          stream.source_latency_ms += *prefix_latency;
        }
      }
    }
    // Widenable: the stream owns reconfigurable σ/Π producers and is not
    // an aggregate/window stream.
    bool plain = stream.props.aggregation() == nullptr;
    for (const properties::Operator& op : stream.props.operators) {
      if (std::holds_alternative<properties::UserDefinedOp>(op)) {
        plain = false;
      }
    }
    stream.widenable =
        plain && (producer_select != nullptr || producer_project != nullptr);
    StreamId id = registry_.Register(std::move(stream));
    wiring->registered_stream = id;
    DeployedStream& deployed = taps_[id];
    deployed.taps = new_taps;
    deployed.select = producer_select;
    deployed.project = producer_project;
  }

  // Commit the input's resource usage to the network state.
  for (const auto& [link, kbps] : input.added_bandwidth_kbps) {
    state_.AddBandwidth(link, kbps);
  }
  for (const auto& [peer, load] : input.added_load) {
    state_.AddLoad(peer, load);
  }
  return Status::Ok();
}

Status StreamShareSystem::BuildDeployment(
    const EvaluationPlan& plan,
    std::shared_ptr<const wxquery::AnalyzedQuery> query, NodeId vq,
    Strategy strategy, int query_id, bool resume, engine::SinkOp** sink,
    QueryDeployment* deployment) {
  const cost::CostParams& params = cost_model_->params();
  if (plan.inputs.size() != query->bindings.size()) {
    return Status::Internal("plan inputs do not match query bindings");
  }

  // The query's terminal stage: a restructuring operator for single-input
  // subscriptions, or a combination operator with one port per input (the
  // paper's final post-processing step, whose output is never shared).
  std::vector<engine::Operator*> terminals;
  engine::Operator* sink_parent = nullptr;
  if (query->bindings.size() == 1) {
    engine::Operator* restructure = graph_.Add<engine::RestructureOp>(
        "q" + std::to_string(query_id) + ":restructure", query);
    restructure->SetAccounting(
        &metrics_, vq,
        params.bload_restructure * topology_.peer(vq).pindex);
    terminals.push_back(restructure);
    sink_parent = restructure;
  } else {
    auto* combiner = graph_.Add<engine::CombineOp>(
        "q" + std::to_string(query_id) + ":combine", query);
    for (size_t i = 0; i < query->bindings.size(); ++i) {
      engine::Operator* port = graph_.Add<engine::CombinePortOp>(
          "q" + std::to_string(query_id) + ":port" + std::to_string(i),
          combiner, i);
      port->SetAccounting(
          &metrics_, vq,
          params.bload_restructure * topology_.peer(vq).pindex);
      terminals.push_back(port);
    }
    sink_parent = combiner;
  }
  // Recovery re-plans into the query's existing sink so its counters (and
  // anything holding a pointer to it) survive the failure.
  if (*sink == nullptr) {
    *sink = graph_.Add<engine::SinkOp>(
        "q" + std::to_string(query_id) + ":sink", config_.keep_results);
    if (config_.measure_latency) {
      (*sink)->EnableLatencyRecording("q" + std::to_string(query_id));
    }
  }
  sink_parent->AddDownstream(*sink);

  deployment->query = query;
  deployment->inputs.clear();
  deployment->inputs.resize(plan.inputs.size());
  deployment->widened_a_stream = false;
  for (size_t i = 0; i < plan.inputs.size(); ++i) {
    SS_RETURN_IF_ERROR(WireInput(plan.inputs[i], query, vq, strategy,
                                 query_id, resume, terminals[i],
                                 &deployment->inputs[i]));
    if (plan.inputs[i].widening.has_value()) {
      deployment->widened_a_stream = true;
    }
  }
  deployment->active = true;
  return Status::Ok();
}

Status StreamShareSystem::DeployPlan(
    const EvaluationPlan& plan,
    std::shared_ptr<const wxquery::AnalyzedQuery> query, NodeId vq,
    Strategy strategy, RegistrationResult* result) {
  engine::SinkOp* sink = nullptr;
  QueryDeployment deployment;
  SS_RETURN_IF_ERROR(BuildDeployment(plan, query, vq, strategy,
                                     result->query_id,
                                     config_.resume_mode, &sink,
                                     &deployment));
  result->sink = sink;
  deployments_.push_back(std::move(deployment));
  return Status::Ok();
}

namespace {

StreamShareSystem::BatchesByStream ChunkStreams(
    const StreamShareSystem::ItemsByStream& items_by_stream,
    size_t batch_size) {
  StreamShareSystem::BatchesByStream batches;
  for (const auto& [name, items] : items_by_stream) {
    batches[name] = engine::ChunkItems(items, batch_size, /*adopt=*/true);
  }
  return batches;
}

}  // namespace

Status StreamShareSystem::Run(const ItemsByStream& items_by_stream) {
  BatchesByStream batches =
      ChunkStreams(items_by_stream, config_.parallel.batch_size);
  return Run(&batches);
}

Status StreamShareSystem::Run(BatchesByStream* batches_by_stream) {
  return Execute(batches_by_stream, /*finish=*/true);
}

Status StreamShareSystem::Feed(const ItemsByStream& items_by_stream) {
  BatchesByStream batches =
      ChunkStreams(items_by_stream, config_.parallel.batch_size);
  return Feed(&batches);
}

Status StreamShareSystem::Feed(BatchesByStream* batches_by_stream) {
  return Execute(batches_by_stream, /*finish=*/false);
}

Status StreamShareSystem::Shutdown() {
  BatchesByStream none;
  for (const auto& [name, entry] : stream_entries_) none[name];
  return Execute(&none, /*finish=*/true);
}

Status StreamShareSystem::Execute(BatchesByStream* batches_by_stream,
                                  bool finish) {
  std::vector<engine::Operator*> entries;
  std::vector<std::vector<engine::ItemBatch>> batch_lists;
  for (auto& [name, batches] : *batches_by_stream) {
    const RegisteredStream* original = registry_.FindOriginal(name);
    if (original == nullptr) {
      return Status::NotFound("stream '" + name + "' is not registered");
    }
    entries.push_back(stream_entries_.at(name));
    // A stream whose source peer failed no longer produces: its batches
    // are dropped, so a harness can keep feeding one map across a failure
    // (its entry stays, so a finishing run still ends it).
    batch_lists.emplace_back();
    if (!original->retired) batch_lists.back() = std::move(batches);
  }
  if (!config_.record_path) {
    for (std::vector<engine::ItemBatch>& batches : batch_lists) {
      for (engine::ItemBatch& batch : batches) batch.MakeOpaque();
    }
  }
  if (config_.executor == ExecutorKind::kSerial) {
    return engine::RunBatchStreams(entries, &batch_lists, finish,
                                   config_.measure_latency);
  }
  transport::RunnerOptions options;
  options.parallel = config_.parallel;
  options.flow = config_.flow;
  options.faults = config_.faults;
  std::unique_ptr<transport::Transport> transport;
  if (config_.executor == ExecutorKind::kTcp) {
    transport = std::make_unique<transport::TcpTransport>(config_.tcp);
  } else {
    transport = std::make_unique<transport::LoopbackTransport>();
  }
  transport::PartitionedRunner runner(*transport, options);
  Status status =
      runner.Run(entries, &batch_lists, finish, config_.measure_latency);
  run_stats_ = runner.run_stats();
  // Liveness detection: a sender that exhausted its credit-wait retries
  // observed a stalled-or-gone receiver. Promote the symptom into
  // suspicion of the receiving worker's peers — advisory only (routing is
  // unchanged); FailPeer confirms and commits recovery.
  if (status.IsDeadlineExceeded()) {
    for (const transport::ChannelTrafficStats& channel :
         run_stats_.channels) {
      if (channel.stats.deadline_failures == 0) continue;
      if (channel.target_worker >= run_stats_.workers.size()) continue;
      for (network::NodeId peer :
           run_stats_.workers[channel.target_worker].peers) {
        state_.mutable_health().MarkSuspect(
            peer, "transport: " + status.message());
      }
    }
  }
  return status;
}

int StreamShareSystem::accepted_count() const {
  int count = 0;
  for (const RegistrationResult& result : registrations_) {
    if (result.accepted) ++count;
  }
  return count;
}

int StreamShareSystem::rejected_count() const {
  return static_cast<int>(registrations_.size()) - accepted_count();
}

std::string StreamShareSystem::DescribeDeployment() const {
  std::string out = "=== streams ===\n";
  for (const RegisteredStream& stream : registry_.streams()) {
    out += "#" + std::to_string(stream.id) + " ";
    if (stream.retired) out += "[retired] ";
    if (stream.IsOriginal()) {
      out += "original '" + stream.variant_of + "'";
    } else {
      out += stream.props.ToString();
    }
    out += "\n    route [";
    for (size_t i = 0; i < stream.route.size(); ++i) {
      if (i > 0) out += ",";
      out += topology_.peer(stream.route[i]).name;
    }
    out += "]  ~" + std::to_string(stream.rate_kbps) + " kbps";
    // Active consumers.
    std::string consumers;
    for (size_t q = 0; q < deployments_.size(); ++q) {
      if (!deployments_[q].active) continue;
      for (const QueryDeployment::InputWiring& wiring :
           deployments_[q].inputs) {
        if (wiring.reused_stream == stream.id) {
          if (!consumers.empty()) consumers += ",";
          consumers += "q" + std::to_string(q);
        }
      }
    }
    if (!consumers.empty()) out += "  consumers {" + consumers + "}";
    out += "\n";
  }
  out += "=== subscriptions ===\n";
  for (size_t q = 0; q < registrations_.size(); ++q) {
    const RegistrationResult& registration = registrations_[q];
    out += "q" + std::to_string(q) + " ";
    if (!registration.accepted) {
      out += "[rejected: " + registration.reject_reason + "]\n";
      continue;
    }
    out += IsActive(static_cast<int>(q)) ? "[active] " : "[deregistered] ";
    out += registration.plan.ToString() + "\n";
  }
  return out;
}

void StreamShareSystem::ExportMetrics(obs::MetricsRegistry* registry) const {
  // Absolute measurements re-exported on every call: gauges, not
  // counters, so repeated exports overwrite instead of double-counting.
  for (size_t l = 0; l < topology_.link_count(); ++l) {
    network::LinkId link = static_cast<network::LinkId>(l);
    const network::Link& edge = topology_.link(link);
    std::string name = topology_.peer(edge.a).name + "-" +
                       topology_.peer(edge.b).name;
    registry->GetGauge("engine.link." + name + ".bytes")
        ->Set(static_cast<double>(metrics_.BytesOnLink(link)));
    registry->GetGauge("network.link." + name + ".utilization")
        ->Set(state_.RelativeBandwidthUse(link));
    registry->GetGauge("network.link." + name + ".peak_kbps")
        ->Set(state_.PeakBandwidthKbps(link));
    registry->GetGauge("network.link." + name + ".up")
        ->Set(state_.health().LinkUp(link) ? 1.0 : 0.0);
  }
  for (size_t p = 0; p < topology_.peer_count(); ++p) {
    network::NodeId peer = static_cast<network::NodeId>(p);
    const std::string& name = topology_.peer(peer).name;
    registry->GetGauge("engine.peer." + name + ".work")
        ->Set(metrics_.WorkAtPeer(peer));
    registry->GetGauge("engine.peer." + name + ".items")
        ->Set(static_cast<double>(
            metrics_.OperatorInvocationsAtPeer(peer)));
    registry->GetGauge("network.peer." + name + ".utilization")
        ->Set(state_.RelativeLoadUse(peer));
    registry->GetGauge("network.peer." + name + ".peak_load")
        ->Set(state_.PeakLoad(peer));
    // 0 = alive, 1 = suspect, 2 = dead.
    registry->GetGauge("network.peer." + name + ".health")
        ->Set(static_cast<double>(state_.health().status(peer)));
  }
  // The kept-result logs, summed over every query's sink: what retention
  // costs in memory, growing with uptime while keep_results is on.
  // Unsubscribed queries hold none (Unsubscribe drops their logs).
  uint64_t retained_bytes = 0, retained_results = 0;
  for (const RegistrationResult& registration : registrations_) {
    if (registration.sink == nullptr) continue;
    retained_bytes += registration.sink->retained_bytes();
    retained_results += registration.sink->retained_results();
  }
  registry->GetGauge("engine.sink.retained_bytes")
      ->Set(static_cast<double>(retained_bytes));
  registry->GetGauge("engine.sink.retained_results")
      ->Set(static_cast<double>(retained_results));
  // Transport measurements of the most recent partitioned run: measured
  // traffic per topology link, next to the committed bandwidth u_b(e)
  // the cost model predicted for that link.
  if (!run_stats_.transport.empty()) {
    std::map<int, uint64_t> encoded_per_link;
    std::map<int, uint64_t> items_per_link;
    for (const transport::EdgeTrafficStats& edge : run_stats_.edges) {
      if (edge.link < 0) continue;
      encoded_per_link[edge.link] += edge.encoded_bytes;
      items_per_link[edge.link] += edge.items;
    }
    for (const auto& [link, encoded_bytes] : encoded_per_link) {
      const network::Link& edge =
          topology_.link(static_cast<network::LinkId>(link));
      std::string name = topology_.peer(edge.a).name + "-" +
                         topology_.peer(edge.b).name;
      registry->GetGauge("transport.link." + name + ".encoded_bytes")
          ->Set(static_cast<double>(encoded_bytes));
      registry->GetGauge("transport.link." + name + ".items")
          ->Set(static_cast<double>(items_per_link[link]));
      registry->GetGauge("transport.link." + name + ".predicted_kbps")
          ->Set(state_.UsedBandwidthKbps(
              static_cast<network::LinkId>(link)));
    }
    uint64_t wire_bytes = 0, frames = 0, stalls = 0, stall_ns = 0;
    for (const transport::ChannelTrafficStats& channel :
         run_stats_.channels) {
      wire_bytes += channel.stats.bytes_sent;
      frames += channel.stats.frames_sent;
      stalls += channel.stats.credit_stalls;
      stall_ns += channel.stats.credit_stall_ns;
    }
    registry->GetGauge("transport.run.wire_bytes")
        ->Set(static_cast<double>(wire_bytes));
    registry->GetGauge("transport.run.frames")
        ->Set(static_cast<double>(frames));
    registry->GetGauge("transport.run.credit_stalls")
        ->Set(static_cast<double>(stalls));
    registry->GetGauge("transport.run.credit_stall_ns")
        ->Set(static_cast<double>(stall_ns));
  }
  // Batching configuration in effect, so a metrics snapshot records the
  // knobs a run's queue/blocking numbers were measured under.
  registry->GetGauge("engine.queue.capacity")
      ->Set(static_cast<double>(config_.parallel.queue_capacity));
  registry->GetGauge("engine.batch.size")
      ->Set(static_cast<double>(config_.parallel.batch_size));
  registry->GetGauge("engine.record_path")
      ->Set(config_.record_path ? 1.0 : 0.0);
  for (size_t w = 0; w < run_stats_.workers.size(); ++w) {
    const engine::ParallelWorkerStats& stats = run_stats_.workers[w];
    std::string prefix = "engine.worker." + std::to_string(w);
    registry->GetGauge(prefix + ".entries_received")
        ->Set(static_cast<double>(stats.entries_received));
    registry->GetGauge(prefix + ".producer_blocked_ns")
        ->Set(static_cast<double>(stats.producer_blocked_ns));
    registry->GetGauge(prefix + ".consumer_blocked_ns")
        ->Set(static_cast<double>(stats.consumer_blocked_ns));
    registry->GetGauge(prefix + ".max_queue_depth")
        ->Set(static_cast<double>(stats.max_queue_depth));
  }
  // Measured end-to-end latency per query. The sink histograms record
  // microseconds; the summary quantiles re-export as millisecond gauges so a
  // JSON/CSV snapshot carries per-query p50/p95/p99 without the reader
  // having to interpolate buckets itself.
  for (const RegistrationResult& registration : registrations_) {
    if (!registration.accepted || registration.sink == nullptr) continue;
    const obs::Histogram* hist = registration.sink->latency_histogram();
    if (hist == nullptr || hist->Count() == 0) continue;
    std::string prefix =
        "latency.query.q" + std::to_string(registration.query_id);
    registry->GetGauge(prefix + ".p50_ms")
        ->Set(hist->Quantile(0.50) / 1000.0);
    registry->GetGauge(prefix + ".p95_ms")
        ->Set(hist->Quantile(0.95) / 1000.0);
    registry->GetGauge(prefix + ".p99_ms")
        ->Set(hist->Quantile(0.99) / 1000.0);
    registry->GetGauge(prefix + ".max_ms")->Set(hist->Max() / 1000.0);
    registry->GetGauge(prefix + ".stamped_items")
        ->Set(static_cast<double>(hist->Count()));
  }
  ExportLatencyAudit(CollectLatencyAudit(registrations_), registry);
}

}  // namespace streamshare::sharing
