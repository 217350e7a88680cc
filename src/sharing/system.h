// StreamShareSystem: the StreamGlobe-style facade tying everything
// together. It owns the network (topology + utilization state), the stream
// registry and statistics, the cost model and planner, and a running
// engine deployment. Streams are registered once; continuous queries are
// registered incrementally under one of the three strategies, the winning
// plan is deployed into the live operator network, and new shareable
// streams become candidates for later subscriptions — the paper's
// multi-subscription optimization.

#ifndef STREAMSHARE_SHARING_SYSTEM_H_
#define STREAMSHARE_SHARING_SYSTEM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cost/statistics.h"
#include "engine/executor.h"
#include "engine/metrics.h"
#include "engine/operator.h"
#include "network/state.h"
#include "network/stream_registry.h"
#include "network/subnet.h"
#include "network/topology.h"
#include "obs/metrics_registry.h"
#include "recover/report.h"
#include "sharing/candidate_index.h"
#include "sharing/hierarchy.h"
#include "sharing/plan.h"
#include "sharing/subscribe.h"
#include "transport/runner.h"
#include "transport/tcp.h"
#include "wxquery/analyzer.h"

namespace streamshare::sharing {

enum class Strategy { kDataShipping, kQueryShipping, kStreamSharing };

std::string_view StrategyToString(Strategy strategy);

/// How Run() and Feed() drive the deployed operator network: serial on
/// the calling thread (the default and the correctness oracle), or on
/// transport::PartitionedRunner — partitioned by super-peer, with every
/// cross-peer edge a wire channel (binary codec + credit-based flow
/// control) over in-process loopback pipes (kLoopback) or localhost TCP
/// connections (kTcp). Either way every partition runs as a thread.
enum class ExecutorKind { kSerial, kLoopback, kTcp };

struct SystemConfig {
  cost::CostParams cost_params;
  PlannerOptions planner;
  /// Reject subscriptions whose best plan overloads a peer or connection
  /// (the paper's capacity-limited experiment).
  bool enforce_limits = false;
  /// Keep every delivered result in its query's sink, as a log of
  /// self-contained encoded items (SinkOp). The serve daemon forces it on
  /// (the log is what it forwards); tests, the oracle and some benches
  /// turn it on to compare results. The log grows with every delivery.
  bool keep_results = false;
  /// Hierarchical organization (paper §6): when non-empty, assigns every
  /// peer to a subnet and stream-sharing registrations search the query's
  /// subnet first, escalating to the global search when the subnet offers
  /// no derived stream to reuse.
  std::vector<int> subnet_assignment;
  /// Executor Run() and Feed() use.
  ExecutorKind executor = ExecutorKind::kSerial;
  /// Queue capacity / dispatch batching for the partitioned executors;
  /// every executor chunks fed DOM items by batch_size.
  engine::ParallelOptions parallel;
  /// Indexed candidate lookup: Subscribe consults a CandidateIndex
  /// (hash buckets on (variant stream, route node), dominance-grouped by
  /// property shape and tap latency, signature-pruned) instead of the
  /// flat per-node registry scan. Planning outcomes are identical either
  /// way (ARCHITECTURE.md invariant 10); false keeps the flat BFS as the
  /// differential oracle reference.
  bool candidate_index = true;
  /// Master switch for the compact-record hot path: fed DOM items are
  /// adopted into PhotonRecords when photon-conforming. Off, every fed
  /// slot becomes an opaque DOM item (record slots of fed batches are
  /// materialized), so operators evaluate on trees — the differential
  /// oracle's reference mode, on the same batch execution path.
  bool record_path = true;
  /// Credit window / timeouts and fault injection for partitioned runs.
  transport::FlowOptions flow;
  transport::FaultPlan faults;
  /// Connect retry/backoff for kTcp.
  transport::TcpOptions tcp;
  /// Resume mode: the system is (re)started mid-stream — item positions do
  /// not begin at zero. Every deployed window operator anchors at the first
  /// window that STARTS at or after the first item it sees (straddling
  /// windows are suppressed, gap-not-garbage), and planning is restricted
  /// to epoch-safe reuse. The differential oracle uses this to build the
  /// fresh reference run a recovered deployment must match over
  /// post-recovery epochs.
  bool resume_mode = false;
  /// Measured-latency plane: stamp every item at ingress and record
  /// per-query end-to-end latency histograms at the sinks (exported as
  /// latency.query.* / latency.audit.* metrics). The one switch for
  /// stamping: Execute hands it to the feeder, and everything downstream
  /// (queue residency, the wire's stamp extension, sink recording) acts
  /// only on stamped items. Stamping never changes results — only
  /// metrics — but costs one clock read per fed batch, so throughput
  /// benchmarks may switch it off.
  bool measure_latency = true;
};

/// Outcome of registering one continuous query.
struct RegistrationResult {
  int query_id = -1;
  bool accepted = false;
  std::string reject_reason;
  EvaluationPlan plan;
  SearchStats search;
  /// Wall-clock registration latency (parse + analyze + plan + deploy).
  double registration_micros = 0.0;
  /// Result collector of this query (borrowed; valid while the system
  /// lives). nullptr if rejected.
  engine::SinkOp* sink = nullptr;
  /// Super-peer the query registered at; failure recovery tears the query
  /// down (instead of re-planning) when this peer dies.
  network::NodeId vq = -1;
  /// Strategy the query registered under; recovery re-plans under the
  /// same strategy family (stream sharing re-registers shareable streams,
  /// the shipping baselines do not).
  Strategy strategy = Strategy::kStreamSharing;
};

class StreamShareSystem {
 public:
  StreamShareSystem(network::Topology topology, SystemConfig config);

  /// Registers an original data stream produced at `source`.
  Status RegisterStream(const std::string& name,
                        std::shared_ptr<const xml::StreamSchema> schema,
                        double item_frequency_hz,
                        network::NodeId source);

  /// Registers an original data stream with fully collected statistics
  /// (schema, frequency, ranges, increments) — the natural companion of
  /// cost::StatisticsCollector.
  Status RegisterStream(const std::string& name,
                        cost::StreamStatistics statistics,
                        network::NodeId source);

  /// Statistics hooks (value ranges, reference-element increments) for a
  /// registered stream; call before registering queries.
  Status SetRange(const std::string& stream, const xml::Path& path,
                  cost::ValueRange range);
  Status SetAvgIncrement(const std::string& stream, const xml::Path& path,
                         double increment);

  /// Registers a continuous query at super-peer `vq` under `strategy`.
  /// Returns the registration outcome (also retained in registrations()).
  /// A parse/analysis error fails the call; an overload rejection returns
  /// accepted = false.
  Result<RegistrationResult> RegisterQuery(std::string_view query_text,
                                           network::NodeId vq,
                                           Strategy strategy);

  /// Outcome of one background re-optimization pass.
  struct ReoptimizeReport {
    /// Active stream-sharing queries whose plan was re-evaluated.
    int examined = 0;
    /// Queries migrated to a strictly cheaper plan.
    int migrated = 0;
    /// Queries lost because the post-park re-plan failed (degraded
    /// topology mid-pass; effectively unreachable on a healthy network).
    int torn_down = 0;
    /// Σ C(P) over examined queries before/after the pass.
    double cost_before = 0.0;
    double cost_after = 0.0;
    /// Open windows destroyed by migrations (gap-not-garbage: migrated
    /// queries resume at the next window boundary).
    uint64_t lost_windows = 0;
  };

  /// Background re-optimization: re-plans every active stream-sharing
  /// query against today's stream population (arrival-order incremental
  /// planning leaves traffic on the table — the A6 gap) and migrates
  /// queries whose re-plan is strictly cheaper, using the same epoch-safe
  /// stream-handover machinery as failure recovery: the old wiring is
  /// parked (shared segments keep flowing for their consumers), the query
  /// is re-planned under epoch-safe reuse post-park, rebuilt in resume
  /// mode onto its existing sink, and orphaned streams are
  /// garbage-collected. `max_migrations` bounds the number of queries
  /// moved per pass (< 0: unbounded). Call between feeds — the handover
  /// is epoch-safe at feed boundaries, exactly like recovery.
  Result<ReoptimizeReport> Reoptimize(int max_migrations = -1);

  /// Deregisters a continuous query, refcounted: the query leaves
  /// immediately, but a shared stream it registered keeps flowing while
  /// other subscriptions still consume it — only the query's private tail
  /// is cut. Once the last consumer of such a stream leaves, the stream
  /// and its whole deferred chain are garbage-collected (cascading up the
  /// reuse chain) and the resources released. The query's sink drops its
  /// kept results; its counts, bytes and content hash stay. Refuses for
  /// queries that widened a stream (widening is irreversible while later
  /// subscriptions may rely on the widened content).
  Status Unsubscribe(int query_id);

  /// Declares a super-peer dead (operator intervention, or promotion of a
  /// transport liveness verdict): marks it dead in the health view, cuts
  /// its incident links, and recovers every subscription that transitively
  /// depended on it — orphaned queries are re-planned against the
  /// surviving topology under epoch-safe reuse, with windowed residual
  /// operators rebuilt in resume mode so each recovered query resumes at
  /// the next window boundary (gap-not-garbage); queries with no surviving
  /// plan, and queries registered AT the dead peer, are torn down. Shared
  /// streams whose last consumer left are garbage-collected. Idempotent
  /// per peer (failing a dead peer is an error).
  Result<recover::RecoveryReport> FailPeer(network::NodeId peer);
  Result<recover::RecoveryReport> FailPeer(const std::string& peer_name);

  /// Severs one link (both peers stay alive) and recovers every
  /// subscription whose plan routed over it, with the same semantics as
  /// FailPeer. Cutting a link that is already down is an error.
  Result<recover::RecoveryReport> CutLink(network::NodeId a,
                                          network::NodeId b);

  /// Reports of every FailPeer / CutLink event, in order.
  const std::vector<recover::RecoveryReport>& recovery_reports() const {
    return recovery_reports_;
  }

  /// True while the query is deployed (false after Unsubscribe, after a
  /// recovery tore it down, or for rejected registrations).
  bool IsActive(int query_id) const;

  /// NotFound with a message naming why `query_id` is not an active
  /// subscription — never registered, rejected at admission, or already
  /// removed — or Ok while it is deployed. Unsubscribe and the daemon's
  /// re-attach gate on this, so a double-unsubscribe is NotFound
  /// everywhere, not whatever the registry walk happens to hit.
  Status CheckActiveSubscription(int query_id) const;

  /// Items or batches of named original streams, the input of Run and
  /// Feed.
  using ItemsByStream = std::map<std::string, std::vector<engine::ItemPtr>>;
  using BatchesByStream =
      std::map<std::string, std::vector<engine::ItemBatch>>;

  /// Single-shot run on the configured executor: feeds the named original
  /// streams through the deployed network (round-robin across streams),
  /// then signals end of stream — window operators flush their partial
  /// windows. Every executor produces the serial results and merged
  /// metrics. DOM items are chunked at parallel.batch_size; batches
  /// (PhotonGenerator::GenerateBatches or a decoder — the compact path
  /// that never builds a source DOM) are consumed in place. Use
  /// Feed/Shutdown instead for continuous operation across multiple
  /// feeds.
  Status Run(const ItemsByStream& items_by_stream);
  Status Run(BatchesByStream* batches_by_stream);

  /// Per-worker queue stats and cross-edge traffic of the most recent
  /// partitioned run (kLoopback or kTcp); empty before one, so its
  /// transport name is empty until then.
  const transport::RunStats& run_stats() const { return run_stats_; }

  /// Continuous operation: feeds like Run without signalling end of
  /// stream. Subscriptions may be registered and deregistered between
  /// feeds; window state carries across.
  Status Feed(const ItemsByStream& items_by_stream);
  Status Feed(BatchesByStream* batches_by_stream);

  /// Ends all streams on the configured executor: flushes buffered window
  /// state to every active subscription. One-shot; after shutdown no
  /// further Feed is meaningful.
  Status Shutdown();

  const network::Topology& topology() const { return topology_; }
  const network::NetworkState& state() const { return state_; }
  const network::StreamRegistry& registry() const { return registry_; }
  /// The candidate index, or nullptr when config.candidate_index=false.
  const CandidateIndex* candidate_index() const {
    return candidate_index_.get();
  }
  const engine::Metrics& metrics() const { return metrics_; }
  const cost::CostModel& cost_model() const { return *cost_model_; }
  const std::vector<RegistrationResult>& registrations() const {
    return registrations_;
  }

  int accepted_count() const;
  int rejected_count() const;

  /// Human-readable snapshot of the deployment: every stream flowing in
  /// the network (content, route, rate, consumers) and every active
  /// subscription.
  std::string DescribeDeployment() const;

  /// Folds the system's own measurements into named registry series:
  /// engine.link.<a>-<b>.bytes and engine.peer.<name>.{work,items} from
  /// the deployment's Metrics, engine.worker.<i>.* from the most recent
  /// partitioned run, network.{link,peer}.<...>.utilization gauges from
  /// the committed plan usage, and — after a kTransport run —
  /// transport.link.<a>-<b>.{encoded_bytes,predicted_kbps} gauges that
  /// put measured bytes-on-wire next to the cost model's committed
  /// bandwidth u_b(e). Call before exporting a snapshot.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  /// How one registered query is wired into the engine (for later
  /// deregistration and failure recovery).
  struct QueryDeployment {
    struct InputWiring {
      engine::Operator* tap = nullptr;    // shared stream's tap operator
      engine::Operator* first = nullptr;  // head of the private chain
      network::StreamId registered_stream = -1;  // -1 if none registered
      network::StreamId reused_stream = -1;
      /// Last operator of the segment that produces registered_stream
      /// (the stream's final tap); everything attached after it is
      /// private to this query.
      engine::Operator* stream_tail = nullptr;
      /// First operator attached after stream_tail (a vq-side residual op
      /// or the query's terminal stage).
      engine::Operator* private_head = nullptr;
      /// Every operator this wiring created, in wire order; window
      /// operators among them are what recovery counts as lost.
      std::vector<engine::Operator*> private_ops;
      /// Index into private_ops where the private tail begins (ops before
      /// it produce registered_stream and may outlive the query).
      size_t tail_boundary = 0;
      bool tail_cut = false;       // private tail detached (deferred GC)
      bool tail_counted = false;   // tail's lost windows already tallied
    };
    std::vector<InputWiring> inputs;
    /// The analyzed query this deployment evaluates (recovery re-plans
    /// from it). Null for rejected placeholders.
    std::shared_ptr<const wxquery::AnalyzedQuery> query;
    bool active = false;
    bool widened_a_stream = false;
  };

  /// A dismantled-but-deferred wiring: its registered stream still has
  /// consumers, so the shared segment keeps flowing after the owning
  /// query left. Carries the resource deltas of the plan input that
  /// deployed it, released when the wiring finally goes.
  struct ParkedWiring {
    int query_id = -1;
    QueryDeployment::InputWiring wiring;
    std::vector<std::pair<network::LinkId, double>> added_bandwidth_kbps;
    std::vector<std::pair<network::NodeId, double>> added_load;
  };

  Status DeployPlan(const EvaluationPlan& plan,
                    std::shared_ptr<const wxquery::AnalyzedQuery> query,
                    network::NodeId vq, Strategy strategy,
                    RegistrationResult* result);
  /// Builds the terminal stage + input chains of `plan` and attaches them
  /// to `sink` (created fresh when null, reused across a recovery
  /// re-plan otherwise). With `resume` true, window operators anchor at
  /// the next window boundary at or after their first item. Fills
  /// `deployment` (not pushed — caller decides whether this is a new
  /// deployment or replaces an existing one's wiring).
  Status BuildDeployment(const EvaluationPlan& plan,
                         std::shared_ptr<const wxquery::AnalyzedQuery> query,
                         network::NodeId vq, Strategy strategy, int query_id,
                         bool resume, engine::SinkOp** sink,
                         QueryDeployment* deployment);
  /// Wires one input's operator chain from its tap point to the query's
  /// terminal stage (restructuring, or a combination port).
  Status WireInput(const InputPlan& input,
                   std::shared_ptr<const wxquery::AnalyzedQuery> query,
                   network::NodeId vq, Strategy strategy, int query_id,
                   bool resume, engine::Operator* terminal,
                   QueryDeployment::InputWiring* wiring);

  /// Detaches a wiring from the operator network if nothing else consumes
  /// its registered stream (retiring the stream, releasing the parked
  /// resources, dropping the consumer ref on the reused stream); otherwise
  /// cuts only the private tail. Returns true when fully dismantled.
  /// `lost_windows`, when non-null, accumulates open windows destroyed.
  bool TryDismantle(ParkedWiring* parked, uint64_t* lost_windows);
  /// Marks `query_id` inactive and moves every wiring of its deployment
  /// into parked_ (dismantling the ones nothing depends on), releasing
  /// resources per its registered plan's inputs. The deployment's wiring
  /// list is cleared.
  void ParkWirings(int query_id, uint64_t* lost_windows);
  /// The planner profile of every mid-stream rebuild: config_.planner
  /// restricted to epoch-safe reuse (a rebuilt query must depend only on
  /// post-rebuild items) and without widening (irreversible).
  Planner EpochSafePlanner() const;
  /// The epoch-safe stream handover that failure recovery and
  /// re-optimization share: parks `query_id`, re-plans it with `planner`
  /// (an EpochSafePlanner) under its registered strategy against the
  /// post-park state, refuses an overloading plan under enforce_limits,
  /// and rebuilds onto the query's existing sink in resume mode. On
  /// success the registration takes the new plan (and search stats);
  /// otherwise the query stays inactive and the status says why. Open
  /// windows lost to parking accumulate in *lost_windows; collecting
  /// what lost its last consumer (GcStreams) is the caller's.
  Status ReplanOntoSink(const Planner& planner, int query_id,
                        uint64_t* lost_windows);
  /// Fixed point over parked_: dismantles every parked wiring whose
  /// registered stream lost its last consumer; cascades up reuse chains.
  uint64_t GcStreams();
  /// Shared implementation of FailPeer / CutLink: after the health view
  /// has been mutated, severs dead streams, classifies and recovers
  /// affected queries, GCs, snapshots sinks, and records the report.
  Result<recover::RecoveryReport> RecoverAfter(std::string trigger);
  /// Route crosses a dead peer or a down link (the stream stopped
  /// flowing), or its upstream chain does.
  bool StreamSevered(network::StreamId id,
                     const std::vector<bool>& severed) const;
  /// The one driver behind Run, Feed and Shutdown: resolves the named
  /// original streams to their entry operators (NotFound for an unknown
  /// name) and feeds each its batches on the configured executor;
  /// `finish` signals end of stream afterwards.
  Status Execute(BatchesByStream* batches_by_stream, bool finish);

  network::Topology topology_;
  SystemConfig config_;
  network::NetworkState state_;
  network::StreamRegistry registry_;
  cost::StatisticsRegistry statistics_;
  std::unique_ptr<cost::CostModel> cost_model_;
  /// Incrementally maintained candidate lookup (null when disabled); it
  /// listens on registry_ mutations and is consulted by every planner.
  std::unique_ptr<CandidateIndex> candidate_index_;
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<network::SubnetPartition> partition_;
  std::unique_ptr<HierarchicalPlanner> hierarchical_planner_;
  engine::OperatorGraph graph_;
  engine::Metrics metrics_;
  /// Engine-side footprint of a registered stream: its tap operators
  /// (taps[i] materializes the stream at route node i) and, for widenable
  /// streams, the reconfigurable producer operators.
  struct DeployedStream {
    std::vector<engine::Operator*> taps;
    engine::SelectOp* select = nullptr;
    engine::ProjectOp* project = nullptr;
  };
  std::map<network::StreamId, DeployedStream> taps_;
  /// Entry operator per original stream name (fed by Run()).
  std::map<std::string, engine::Operator*> stream_entries_;
  std::vector<std::shared_ptr<const wxquery::AnalyzedQuery>> queries_;
  std::vector<RegistrationResult> registrations_;
  /// Indexed by query id (one entry per registration, rejected included).
  std::vector<QueryDeployment> deployments_;
  /// Wirings of departed queries whose registered streams still feed
  /// other subscriptions (see ParkedWiring).
  std::vector<ParkedWiring> parked_;
  std::vector<recover::RecoveryReport> recovery_reports_;
  transport::RunStats run_stats_;
};

}  // namespace streamshare::sharing

#endif  // STREAMSHARE_SHARING_SYSTEM_H_
