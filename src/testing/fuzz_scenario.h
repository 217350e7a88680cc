// Randomized differential-test scenarios. A FuzzScenario is a fully
// structured description of one end-to-end workload — topology, photon
// streams, and subscriptions — generated deterministically from a seed.
// Everything is kept in shrinkable, re-renderable form (query *specs*,
// not query text) so the shrinker can drop predicates, narrow windows,
// or remove queries and re-render, and the JSON codec can replay a
// scenario bit-identically on another machine.
//
// The generator favours shareable workloads the same way the paper's
// evaluation does: predicates draw their sky boxes from a small
// per-scenario pool (repeats create containment), and window (Δ, µ)
// pairs are drawn so coarser windows are recombinable from finer ones.

#ifndef STREAMSHARE_TESTING_FUZZ_SCENARIO_H_
#define STREAMSHARE_TESTING_FUZZ_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "network/topology.h"
#include "properties/window.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"

namespace streamshare::testing {

/// Deterministic random helpers on top of mt19937_64 raw output. The
/// standard distributions are implementation-defined; these are not, so a
/// seed replays identically across standard libraries.
class DetRng {
 public:
  explicit DetRng(uint64_t seed) : state_(seed != 0 ? seed : 0x9e3779b9) {}

  /// Uniform in [0, n). n must be > 0.
  uint64_t Below(uint64_t n);
  /// Uniform in [lo, hi] inclusive.
  int64_t Between(int64_t lo, int64_t hi);
  /// Uniform in [0, 1).
  double Unit();
  /// Uniform in [lo, hi).
  double BetweenReal(double lo, double hi);
  /// True with probability p.
  bool Chance(double p) { return Unit() < p; }
  /// Raw 64-bit draw (splitmix64); seeds for nested generators.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// One subscription, structured. Rendered to WXQuery text on demand.
struct FuzzQuerySpec {
  enum class Kind {
    kSelection,    // σ + Π: box / threshold predicates, projected return
    kAggregation,  // windowed aggregate with optional result filter
  };

  Kind kind = Kind::kSelection;
  std::string stream = "photons";
  network::NodeId target = 0;

  /// Selection predicates; each side of the sky box is optional so the
  /// shrinker can drop them one at a time.
  std::optional<double> ra_min, ra_max, dec_min, dec_max;
  /// "en >= threshold", optional.
  std::optional<double> en_threshold;
  /// Cross-variable atom "dx <= dy + c" (detector coordinates), optional;
  /// exercises the $v θ $w + c predicate form end to end.
  std::optional<double> det_skew;

  /// Projected item-relative paths (kSelection only). Empty = return the
  /// whole item ($p form).
  std::vector<std::string> projection;

  // kAggregation only:
  /// "count" windows are item-based, "diff" windows ride det_time.
  properties::WindowType window_type = properties::WindowType::kDiff;
  int window_size = 40;
  int window_step = 20;
  std::string agg_func = "avg";  // avg | sum | count | min | max
  /// Result filter "$a >= value", optional (avg streams only, mirroring
  /// the workload generator's constraint).
  std::optional<double> agg_filter;

  /// Renders the spec as WXQuery subscription text.
  std::string ToQueryText() const;
};

/// One original photon stream.
struct FuzzStreamSpec {
  std::string name = "photons";
  network::NodeId source = 0;
  uint64_t gen_seed = 1;
  double frequency_hz = 100.0;
  double det_time_increment_mean = 0.5;
  /// Hot-region weights over the scenario's box pool (same length as
  /// FuzzScenario::boxes; 0 drops a region).
  std::vector<double> hot_weights;

  workload::PhotonGenConfig ToGenConfig() const;
};

/// An undirected connected topology, as edit-friendly data.
struct FuzzTopologySpec {
  int peers = 4;
  std::vector<std::pair<int, int>> links;
  double bandwidth_kbps = 100000.0;
  double max_load = 100000.0;

  Result<network::Topology> Build() const;
};

/// A complete differential-test scenario.
struct FuzzScenario {
  uint64_t seed = 0;
  FuzzTopologySpec topology;
  /// Per-scenario sky-box pool; queries and hot regions draw from it.
  std::vector<workload::SkyBox> boxes;
  std::vector<FuzzStreamSpec> streams;
  std::vector<FuzzQuerySpec> queries;
  /// Mid-run failures; empty for a clean scenario. After `at_offset`
  /// items per stream the harness calls FailPeer or CutLink and keeps
  /// feeding — the recovery oracle then checks that every surviving
  /// subscription matches a fresh no-failure run over the post-recovery
  /// epochs. Every arm applies them in workload::ChurnWalk order, so a
  /// hand-edited list need not be sorted. The generator keeps them sorted
  /// and mutually independent (no peer fails twice, no link is cut twice
  /// or after an endpoint died), so replaying them can never hit the
  /// "already dead / already down" argument errors.
  std::vector<workload::ChurnEvent> churn;
  size_t items_per_stream = 200;

  std::string ToString() const;
};

struct GeneratorOptions {
  int min_peers = 3, max_peers = 9;
  int min_streams = 1, max_streams = 2;
  int min_queries = 2, max_queries = 8;
  size_t min_items = 120, max_items = 320;
  /// Probability that a scenario carries churn events at all. The churn
  /// draws happen after every other draw, so at the default 0 a seed's
  /// scenario is bit-identical to what it generated before churn existed.
  /// A scenario that does draw churn additionally gains a few redundancy
  /// links (so failures are survivable, not just fatal) — its clean part
  /// is a superset of, not identical to, the churn-free scenario.
  double churn_probability = 0.0;
  int min_churn_events = 1, max_churn_events = 2;
};

/// Generates scenario `seed` deterministically (same seed + options →
/// bit-identical scenario, across platforms).
FuzzScenario GenerateScenario(uint64_t seed,
                              const GeneratorOptions& options = {});

/// The photon generator configuration of one scenario stream, with the
/// scenario's box pool installed as hot regions per the stream's weights.
workload::PhotonGenConfig StreamGenConfig(const FuzzScenario& scenario,
                                          const FuzzStreamSpec& stream);

}  // namespace streamshare::testing

#endif  // STREAMSHARE_TESTING_FUZZ_SCENARIO_H_
