// The paper's two evaluation scenarios (§4), as reproducible specs:
//
//   Scenario 1 — "extended example": the 8-super-peer topology of Figs.
//   1/2, one photon stream at SP4, 25 queries (the paper's Q1–Q4 first,
//   then template-generated ones) registered at the super-peers the
//   example's thin peers attach to.
//
//   Scenario 2 — "4×4 grid": 16 super-peers, two photon streams at
//   opposite corners, 100 template-generated queries at uniformly chosen
//   super-peers.

#ifndef STREAMSHARE_WORKLOAD_SCENARIO_H_
#define STREAMSHARE_WORKLOAD_SCENARIO_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sharing/system.h"
#include "workload/photon_gen.h"
#include "workload/query_gen.h"

namespace streamshare::workload {

struct StreamSpec {
  std::string name;
  network::NodeId source = 0;
  PhotonGenConfig gen;
};

struct QuerySpec {
  std::string text;
  network::NodeId target = 0;
};

struct ScenarioSpec {
  std::string name;
  network::Topology topology;
  std::vector<StreamSpec> streams;
  std::vector<QuerySpec> queries;
};

/// Default capacity parameters: chosen so that the default scenarios sit
/// comfortably below saturation (the paper's blades and 100 Mbit LAN do
/// too), while the E6 overload experiment caps them at 10% / 1 Mbit/s.
inline constexpr double kDefaultBandwidthKbps = 100000.0;  // 100 Mbit/s
inline constexpr double kDefaultMaxLoad = 5000.0;          // work units/s

/// Scenario 1. `query_count` defaults to the paper's 25.
ScenarioSpec ExtendedExampleScenario(uint64_t seed = 11,
                                     size_t query_count = 25);

/// Scenario 2. 4×4 grid, 2 streams, `query_count` defaults to 100.
/// Bandwidth/load caps are parameters so the overload experiment (E6) can
/// shrink them.
ScenarioSpec GridScenario(uint64_t seed = 13, size_t query_count = 100,
                          double bandwidth_kbps = kDefaultBandwidthKbps,
                          double max_load = kDefaultMaxLoad);

/// Registers the scenario's streams (with schema, frequency, value-range
/// and increment statistics) in a freshly constructed system.
Result<std::unique_ptr<sharing::StreamShareSystem>> BuildSystem(
    const ScenarioSpec& scenario, sharing::SystemConfig config);

/// One mid-run failure: after `at_offset` items per stream, FailPeer
/// (kFailPeer) or CutLink (kCutLink) fires and the remaining items keep
/// flowing through the re-planned deployment.
struct ChurnEvent {
  enum class Kind { kFailPeer, kCutLink };

  Kind kind = Kind::kFailPeer;
  network::NodeId peer = 0;             // kFailPeer
  network::NodeId link_a = 0, link_b = 0;  // kCutLink
  size_t at_offset = 0;
};

/// Each stream's items, keyed by stream name.
using StreamItems = std::map<std::string, std::vector<engine::ItemPtr>>;

/// Generates `items_per_stream` photons for every stream of the scenario.
StreamItems GenerateItems(const ScenarioSpec& scenario,
                          size_t items_per_stream);

/// Per-stream sub-batches [from, to) of `items`.
StreamItems SliceItems(const StreamItems& items, size_t from, size_t to);

/// Applies one churn event to an in-process system.
Status ApplyChurn(sharing::StreamShareSystem* system,
                  const ChurnEvent& event);

/// The one rule for when churn happens. Events apply in ascending
/// `at_offset` order (a stable sort: events at the same offset keep their
/// list order), each after exactly min(at_offset, items_per_stream) items
/// per stream. RunTo(stop) feeds up to each pending event at or before
/// `stop`, applies it, and then feeds up to `stop`; a later RunTo resumes
/// where the last one stopped. The caller supplies both steps: `feed`
/// gets only non-empty ranges [from, to) of items per stream, `apply`
/// gets each event with its offset clamped.
class ChurnWalk {
 public:
  using FeedStep = std::function<Status(size_t from, size_t to)>;
  using ApplyStep = std::function<Status(const ChurnEvent& event)>;

  ChurnWalk(std::vector<ChurnEvent> events, size_t items_per_stream);

  Status RunTo(size_t stop, const FeedStep& feed, const ApplyStep& apply);
  Status RunToEnd(const FeedStep& feed, const ApplyStep& apply) {
    return RunTo(items_per_stream_, feed, apply);
  }

  /// The offset of the last event in walk order (0 without events).
  size_t last_offset() const {
    return events_.empty() ? 0 : events_.back().at_offset;
  }

 private:
  std::vector<ChurnEvent> events_;  // walk order, offsets clamped
  size_t items_per_stream_;
  size_t next_ = 0;
  size_t fed_ = 0;
};

struct ScenarioRun {
  std::unique_ptr<sharing::StreamShareSystem> system;
  /// Simulated stream duration in seconds (items / frequency).
  double duration_s = 0.0;
  int accepted = 0;
  int rejected = 0;
  int registration_failures = 0;  // parse/analysis errors (should be 0)
  /// The churn events as applied, in walk order: recovery report i of
  /// the system belongs to churn[i].
  std::vector<ChurnEvent> churn;
};

/// Builds the system, registers all queries under `strategy`, generates
/// `items_per_stream` photons per stream, and runs them through the
/// deployed network. With `churn` events the items are fed in segments
/// by a ChurnWalk, each failure applied at its offset.
Result<ScenarioRun> RunScenario(const ScenarioSpec& scenario,
                                sharing::Strategy strategy,
                                sharing::SystemConfig config,
                                size_t items_per_stream,
                                const std::vector<ChurnEvent>& churn = {});

}  // namespace streamshare::workload

#endif  // STREAMSHARE_WORKLOAD_SCENARIO_H_
