// Hierarchical query registration — the paper's scalability future work
// (§6): instead of searching the whole network for shareable streams, the
// Subscribe search runs within the registering query's subnet first (plus
// the input stream's source node, so the fallback plan and streams
// crossing into the subnet remain reachable), and escalates to the global
// search only when the local one finds no derived stream to reuse.

#ifndef STREAMSHARE_SHARING_HIERARCHY_H_
#define STREAMSHARE_SHARING_HIERARCHY_H_

#include "network/subnet.h"
#include "sharing/subscribe.h"

namespace streamshare::sharing {

class HierarchicalPlanner {
 public:
  HierarchicalPlanner(const Planner* planner,
                      const network::SubnetPartition* partition)
      : planner_(planner), partition_(partition) {}

  /// Algorithm 1 with a subnet-restricted search.
  Result<EvaluationPlan> Subscribe(const wxquery::AnalyzedQuery& query,
                                   network::NodeId vq,
                                   SearchStats* stats = nullptr) const;

 private:
  const Planner* planner_;
  const network::SubnetPartition* partition_;
};

}  // namespace streamshare::sharing

#endif  // STREAMSHARE_SHARING_HIERARCHY_H_
