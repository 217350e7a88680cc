#include "testing/shrink.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace streamshare::testing {
namespace {

class Shrinker {
 public:
  Shrinker(FuzzScenario scenario, const FailurePredicate& still_fails,
           ShrinkStats* stats)
      : scenario_(std::move(scenario)),
        still_fails_(still_fails),
        stats_(stats) {}

  FuzzScenario Run(int max_rounds) {
    for (int round = 0; round < max_rounds; ++round) {
      bool changed = false;
      changed |= DropChurn();
      changed |= DropQueries();
      changed |= DropStreams();
      changed |= ReduceItems();
      changed |= SimplifyQueries();
      changed |= PrunePeers();
      if (!changed) break;
    }
    return scenario_;
  }

 private:
  /// Accepts `candidate` as the new current scenario iff it still fails.
  bool Try(const FuzzScenario& candidate) {
    if (stats_ != nullptr) ++stats_->predicate_runs;
    if (!still_fails_(candidate)) return false;
    scenario_ = candidate;
    if (stats_ != nullptr) ++stats_->accepted_steps;
    return true;
  }

  /// Churn first: a failure that reproduces without any churn (or with
  /// fewer events) is a plain differential bug, not a recovery bug, and
  /// the smaller event list pins down which failure actually matters.
  /// Dropping events never invalidates the list — independence (no
  /// repeated peer, no doubly-cut link) is closed under removal.
  bool DropChurn() {
    bool changed = false;
    if (!scenario_.churn.empty()) {
      FuzzScenario candidate = scenario_;
      candidate.churn.clear();
      if (Try(candidate)) return true;
    }
    for (size_t i = 0; i < scenario_.churn.size();) {
      FuzzScenario candidate = scenario_;
      candidate.churn.erase(candidate.churn.begin() + i);
      if (Try(candidate)) {
        changed = true;
      } else {
        ++i;
      }
    }
    return changed;
  }

  /// ddmin-style: first try removing halves, then individual queries.
  bool DropQueries() {
    bool changed = false;
    size_t n = scenario_.queries.size();
    for (size_t chunk = n / 2; chunk >= 1; chunk /= 2) {
      for (size_t start = 0; start + chunk <= scenario_.queries.size();) {
        if (scenario_.queries.size() <= 1) return changed;
        FuzzScenario candidate = scenario_;
        candidate.queries.erase(candidate.queries.begin() + start,
                                candidate.queries.begin() + start + chunk);
        if (Try(candidate)) {
          changed = true;  // same start now points at the next chunk
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
    return changed;
  }

  /// A stream can go only when no remaining query reads it.
  bool DropStreams() {
    bool changed = false;
    for (size_t s = 0; s < scenario_.streams.size();) {
      bool referenced = false;
      for (const auto& q : scenario_.queries) {
        if (q.stream == scenario_.streams[s].name) referenced = true;
      }
      if (referenced || scenario_.streams.size() <= 1) {
        ++s;
        continue;
      }
      FuzzScenario candidate = scenario_;
      candidate.streams.erase(candidate.streams.begin() + s);
      if (Try(candidate)) {
        changed = true;
      } else {
        ++s;
      }
    }
    return changed;
  }

  bool ReduceItems() {
    bool changed = false;
    while (scenario_.items_per_stream > 8) {
      FuzzScenario candidate = scenario_;
      candidate.items_per_stream = scenario_.items_per_stream / 2;
      // Scale churn offsets along so events stay mid-run instead of
      // collecting past the (shrunken) end of the stream.
      for (workload::ChurnEvent& event : candidate.churn) {
        event.at_offset /= 2;
      }
      if (!Try(candidate)) break;
      changed = true;
    }
    return changed;
  }

  bool SimplifyQueries() {
    bool changed = false;
    for (size_t i = 0; i < scenario_.queries.size(); ++i) {
      changed |= SimplifyQuery(i);
    }
    return changed;
  }

  bool SimplifyQuery(size_t i) {
    bool changed = false;
    // Optional predicate atoms, one at a time.
    changed |= TryClear(i, [](FuzzQuerySpec& q) { q.det_skew.reset(); },
                        scenario_.queries[i].det_skew.has_value());
    changed |= TryClear(i, [](FuzzQuerySpec& q) { q.en_threshold.reset(); },
                        scenario_.queries[i].en_threshold.has_value());
    changed |= TryClear(i, [](FuzzQuerySpec& q) { q.ra_min.reset(); },
                        scenario_.queries[i].ra_min.has_value());
    changed |= TryClear(i, [](FuzzQuerySpec& q) { q.ra_max.reset(); },
                        scenario_.queries[i].ra_max.has_value());
    changed |= TryClear(i, [](FuzzQuerySpec& q) { q.dec_min.reset(); },
                        scenario_.queries[i].dec_min.has_value());
    changed |= TryClear(i, [](FuzzQuerySpec& q) { q.dec_max.reset(); },
                        scenario_.queries[i].dec_max.has_value());
    const FuzzQuerySpec& q = scenario_.queries[i];
    if (q.kind == FuzzQuerySpec::Kind::kSelection) {
      changed |= TryClear(i, [](FuzzQuerySpec& s) { s.projection.clear(); },
                          !q.projection.empty());
    } else {
      changed |= TryClear(i, [](FuzzQuerySpec& s) { s.agg_filter.reset(); },
                          q.agg_filter.has_value());
      // Shrink the window while preserving step | size divisibility when
      // it held before (non-divisible pairs stay non-divisible: keep size,
      // only halving would mend them, so shrink both by the same factor).
      while (scenario_.queries[i].window_size >= 4 &&
             scenario_.queries[i].window_step >= 2 &&
             scenario_.queries[i].window_size % 2 == 0 &&
             scenario_.queries[i].window_step % 2 == 0) {
        FuzzScenario candidate = scenario_;
        candidate.queries[i].window_size /= 2;
        candidate.queries[i].window_step /= 2;
        if (!Try(candidate)) break;
        changed = true;
      }
    }
    return changed;
  }

  template <typename Fn>
  bool TryClear(size_t i, Fn mutate, bool applicable) {
    if (!applicable) return false;
    FuzzScenario candidate = scenario_;
    mutate(candidate.queries[i]);
    return Try(candidate);
  }

  /// Removes peers that host no stream and no query target, splicing
  /// their links so the topology stays connected.
  bool PrunePeers() {
    bool changed = false;
    for (int p = scenario_.topology.peers - 1; p >= 0; --p) {
      if (scenario_.topology.peers <= 2) break;
      bool used = false;
      for (const auto& s : scenario_.streams) {
        if (s.source == p) used = true;
      }
      for (const auto& q : scenario_.queries) {
        if (q.target == p) used = true;
      }
      for (const auto& e : scenario_.churn) {
        if (e.kind == workload::ChurnEvent::Kind::kFailPeer) {
          if (e.peer == p) used = true;
        } else if (e.link_a == p || e.link_b == p) {
          used = true;
        }
      }
      if (used) continue;
      FuzzScenario candidate = scenario_;
      RemovePeer(&candidate.topology, p);
      for (auto& s : candidate.streams) {
        if (s.source > p) --s.source;
      }
      for (auto& q : candidate.queries) {
        if (q.target > p) --q.target;
      }
      for (auto& e : candidate.churn) {
        if (e.peer > p) --e.peer;
        if (e.link_a > p) --e.link_a;
        if (e.link_b > p) --e.link_b;
      }
      if (Try(candidate)) changed = true;
    }
    return changed;
  }

  static void RemovePeer(FuzzTopologySpec* topo, int p) {
    std::vector<int> neighbors;
    std::vector<std::pair<int, int>> kept;
    std::set<std::pair<int, int>> seen;
    for (const auto& [a, b] : topo->links) {
      if (a == p || b == p) {
        int other = (a == p) ? b : a;
        if (other != p) neighbors.push_back(other);
        continue;
      }
      auto key = std::minmax(a, b);
      if (seen.insert(key).second) kept.push_back({a, b});
    }
    // Chain the orphaned neighbors together so connectivity survives.
    for (size_t i = 0; i + 1 < neighbors.size(); ++i) {
      auto key = std::minmax(neighbors[i], neighbors[i + 1]);
      if (key.first != key.second && seen.insert(key).second) {
        kept.push_back({neighbors[i], neighbors[i + 1]});
      }
    }
    // Renumber peers above p down by one.
    for (auto& [a, b] : kept) {
      if (a > p) --a;
      if (b > p) --b;
    }
    topo->links = std::move(kept);
    --topo->peers;
  }

  FuzzScenario scenario_;
  const FailurePredicate& still_fails_;
  ShrinkStats* stats_;
};

}  // namespace

FuzzScenario Shrink(FuzzScenario scenario, const FailurePredicate& still_fails,
                    int max_rounds, ShrinkStats* stats) {
  Shrinker shrinker(std::move(scenario), still_fails, stats);
  return shrinker.Run(max_rounds);
}

}  // namespace streamshare::testing
