#include "engine/partition.h"

#include <algorithm>
#include <map>
#include <set>

namespace streamshare::engine {

namespace {

/// Union-find over dense ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// Iterative Tarjan SCC; returns a component id per node such that the
/// condensation is a DAG.
std::vector<size_t> StronglyConnectedComponents(
    const std::vector<std::set<size_t>>& adj, size_t* component_count) {
  size_t n = adj.size();
  std::vector<size_t> index(n, SIZE_MAX), lowlink(n, 0), comp(n, SIZE_MAX);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  size_t next_index = 0, components = 0;

  struct Frame {
    size_t node;
    std::set<size_t>::const_iterator it;
  };
  for (size_t start = 0; start < n; ++start) {
    if (index[start] != SIZE_MAX) continue;
    std::vector<Frame> frames;
    frames.push_back({start, adj[start].begin()});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      size_t v = frame.node;
      if (frame.it != adj[v].end()) {
        size_t w = *frame.it++;
        if (index[w] == SIZE_MAX) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, adj[w].begin()});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          while (true) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = components;
            if (w == v) break;
          }
          ++components;
        }
        frames.pop_back();
        if (!frames.empty()) {
          size_t parent = frames.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  *component_count = components;
  return comp;
}

}  // namespace

Status PlanPeerPartitions(const std::vector<Operator*>& entries,
                          PartitionPlan* plan) {
  *plan = PartitionPlan();
  for (Operator* entry : entries) {
    if (entry == nullptr) {
      return Status::InvalidArgument(
          "PlanPeerPartitions: null entry operator");
    }
  }

  // --- Discover the reachable operator graph (BFS from the entries). ---
  std::vector<Operator*>& ops = plan->ops;
  std::unordered_map<Operator*, size_t>& op_index = plan->op_index;
  auto intern = [&](Operator* op) -> size_t {
    auto [it, inserted] = op_index.emplace(op, ops.size());
    if (inserted) ops.push_back(op);
    return it->second;
  };
  for (Operator* entry : entries) intern(entry);
  {
    std::vector<Operator*> hard_succ;
    for (size_t i = 0; i < ops.size(); ++i) {  // ops grows as we discover
      for (Operator* down : ops[i]->downstreams()) intern(down);
      hard_succ.clear();
      ops[i]->AppendHardSuccessors(&hard_succ);
      for (Operator* next : hard_succ) intern(next);
    }
  }
  std::vector<std::vector<size_t>>& succ = plan->succ;
  succ.assign(ops.size(), {});
  std::vector<std::vector<size_t>> pred(ops.size()), hard(ops.size());
  {
    std::vector<Operator*> hard_succ;
    for (size_t i = 0; i < ops.size(); ++i) {
      for (Operator* down : ops[i]->downstreams()) {
        size_t j = op_index[down];
        succ[i].push_back(j);
        pred[j].push_back(i);
      }
      hard_succ.clear();
      ops[i]->AppendHardSuccessors(&hard_succ);
      for (Operator* next : hard_succ) {
        size_t j = op_index[next];
        hard[i].push_back(j);
        pred[j].push_back(i);
      }
    }
  }

  // --- Resolve each operator's peer partition. Operators without
  // accounting (entry taps, sinks, combiners) inherit from the nearest
  // accounted neighbor: first along upstream edges, else downstream. ---
  std::vector<int>& peer_key = plan->peer_key;
  peer_key.assign(ops.size(), -2);
  std::vector<bool> visiting(ops.size(), false);
  auto resolve = [&](auto&& self, size_t i) -> int {
    if (peer_key[i] != -2) return peer_key[i];
    if (ops[i]->peer() >= 0) return peer_key[i] = ops[i]->peer();
    if (visiting[i]) return -2;
    visiting[i] = true;
    int resolved = -2;
    for (size_t p : pred[i]) {
      resolved = self(self, p);
      if (resolved >= 0) break;
    }
    if (resolved < 0) {
      for (size_t s : succ[i]) {
        resolved = self(self, s);
        if (resolved >= 0) break;
      }
    }
    if (resolved < 0) {
      for (size_t s : hard[i]) {
        resolved = self(self, s);
        if (resolved >= 0) break;
      }
    }
    visiting[i] = false;
    if (resolved < 0) resolved = 0;  // isolated chain: any worker will do
    return peer_key[i] = resolved;
  };
  for (size_t i = 0; i < ops.size(); ++i) resolve(resolve, i);

  // --- Contract hard-linked operators (unsynchronized shared state, must
  // share a thread) into clusters. ---
  UnionFind uf(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j : hard[i]) uf.Union(i, j);
  }
  std::map<size_t, size_t> rep_to_cluster;
  std::vector<size_t> cluster_of(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    cluster_of[i] = rep_to_cluster.emplace(uf.Find(i), rep_to_cluster.size())
                        .first->second;
  }
  size_t cluster_count = rep_to_cluster.size();
  std::vector<int> cluster_key(cluster_count, -2);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (cluster_key[cluster_of[i]] == -2) {
      cluster_key[cluster_of[i]] = peer_key[i];
    }
  }
  std::vector<std::set<size_t>> csucc(cluster_count), cpred(cluster_count);
  std::vector<size_t> indegree(cluster_count, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j : succ[i]) {
      size_t a = cluster_of[i], b = cluster_of[j];
      if (a != b && csucc[a].insert(b).second) {
        cpred[b].insert(a);
        ++indegree[b];
      }
    }
  }

  // --- Assign clusters to worker groups in topological order. A cluster
  // joins an existing group of its peer unless the new handoff edges
  // would close a cycle among groups — bounded blocking on a cycle can
  // deadlock and the pill protocol needs a DAG — in which case the peer's
  // operators split into a fresh group. Traffic flowing both ways between
  // two peers therefore costs an extra worker, not a merged one. ---
  std::vector<size_t> topo;
  topo.reserve(cluster_count);
  {
    std::vector<bool> emitted(cluster_count, false);
    for (size_t c = 0; c < cluster_count; ++c) {
      if (indegree[c] == 0) topo.push_back(c);
    }
    for (size_t head = 0; head < topo.size(); ++head) {
      emitted[topo[head]] = true;
      for (size_t d : csucc[topo[head]]) {
        if (--indegree[d] == 0) topo.push_back(d);
      }
    }
    // A cyclic operator graph never comes out of the planner; if one
    // appears anyway, append the leftovers — the SCC pass below merges
    // whatever group cycles result.
    for (size_t c = 0; c < cluster_count; ++c) {
      if (!emitted[c]) topo.push_back(c);
    }
  }
  std::vector<size_t> group_of_cluster(cluster_count, SIZE_MAX);
  std::vector<std::set<size_t>> group_succ;
  std::map<int, std::vector<size_t>> groups_for_peer;
  auto reaches = [&](size_t from, const std::set<size_t>& targets) {
    std::vector<size_t> frontier{from};
    std::set<size_t> seen{from};
    while (!frontier.empty()) {
      size_t g = frontier.back();
      frontier.pop_back();
      if (targets.count(g)) return true;
      for (size_t next : group_succ[g]) {
        if (seen.insert(next).second) frontier.push_back(next);
      }
    }
    return false;
  };
  for (size_t c : topo) {
    std::set<size_t> pred_groups;
    for (size_t p : cpred[c]) {
      if (group_of_cluster[p] != SIZE_MAX) {
        pred_groups.insert(group_of_cluster[p]);
      }
    }
    size_t chosen = SIZE_MAX;
    for (size_t g : groups_for_peer[cluster_key[c]]) {
      std::set<size_t> others = pred_groups;
      others.erase(g);
      if (others.empty() || !reaches(g, others)) {
        chosen = g;
        break;
      }
    }
    if (chosen == SIZE_MAX) {
      chosen = group_succ.size();
      group_succ.emplace_back();
      groups_for_peer[cluster_key[c]].push_back(chosen);
    }
    group_of_cluster[c] = chosen;
    for (size_t pg : pred_groups) {
      if (pg != chosen) group_succ[pg].insert(chosen);
    }
    for (size_t s : csucc[c]) {  // only relevant on the cyclic fallback
      if (group_of_cluster[s] != SIZE_MAX && group_of_cluster[s] != chosen) {
        group_succ[chosen].insert(group_of_cluster[s]);
      }
    }
  }

  // Safety net: the greedy pass keeps group_succ acyclic for any operator
  // DAG, so this is an identity map unless the graph itself was cyclic.
  size_t component_count = 0;
  std::vector<size_t> component =
      StronglyConnectedComponents(group_succ, &component_count);

  // Dense worker ids in first-use order over the operators.
  std::vector<size_t>& worker_of = plan->worker_of;
  worker_of.assign(ops.size(), 0);
  std::map<size_t, size_t> comp_to_worker;
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t comp = component[group_of_cluster[cluster_of[i]]];
    worker_of[i] =
        comp_to_worker.emplace(comp, comp_to_worker.size()).first->second;
  }
  plan->worker_count = comp_to_worker.size();

  plan->worker_peers.assign(plan->worker_count, {});
  plan->worker_operator_count.assign(plan->worker_count, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t w = worker_of[i];
    ++plan->worker_operator_count[w];
    if (peer_key[i] >= 0 &&
        std::find(plan->worker_peers[w].begin(),
                  plan->worker_peers[w].end(),
                  peer_key[i]) == plan->worker_peers[w].end()) {
      plan->worker_peers[w].push_back(peer_key[i]);
    }
  }

  // --- Deduplicated cross-worker edges, in discovery order. ---
  std::set<std::pair<size_t, size_t>> seen_edges;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j : succ[i]) {
      if (worker_of[i] == worker_of[j]) continue;
      if (!seen_edges.emplace(i, j).second) continue;
      plan->cross_edges.push_back(PartitionPlan::CrossEdge{i, j});
    }
  }
  return Status::Ok();
}

}  // namespace streamshare::engine
