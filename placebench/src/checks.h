// Output checkers of the placement benchmark. Each one recomputes a property
// of the final cluster state from the raw container records
// (ClusterState::ForEachContainer) and the node-group membership, apart
// from the program's own bookkeeping (Node::used(), the schedulers'
// verdicts, ConstraintEvaluator), and returns the violations it found.

#ifndef PLACEBENCH_SRC_CHECKS_H_
#define PLACEBENCH_SRC_CHECKS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/core/constraint_manager.h"

namespace placebench {

// The raw facts the checkers read: every node's capacity and availability,
// and every allocated container. Self-tests build broken ones by hand.
struct ObservedState {
  struct NodeFacts {
    medea::Resource capacity;
    bool available = true;
  };
  struct ContainerFacts {
    uint32_t app = 0;
    uint32_t node = 0;
    medea::Resource resource;
    std::vector<std::string> tags;
    bool long_running = false;
  };
  std::vector<NodeFacts> nodes;
  std::vector<ContainerFacts> containers;
  std::shared_ptr<const medea::NodeGroupRegistry> groups;
};

// Copies the facts out of `state`, naming tags through `tags`.
ObservedState Observe(const medea::ClusterState& state, const medea::TagPool& tags);

// No node's summed container demand exceeds its capacity.
std::vector<std::string> CheckCapacity(const ObservedState& observed);

// What one LRA asked for, and whether the program reports it placed.
struct LraExpectation {
  uint32_t app = 0;
  size_t containers = 0;
  bool reported_placed = false;
};

// Eq. 4 and node health: a placed LRA has all of its containers, each on an
// up node; an LRA reported unplaced has none.
std::vector<std::string> CheckLras(const ObservedState& observed,
                                   const std::vector<LraExpectation>& lras);

// One §7.1 constraint, written out independently of the template strings:
// every container carrying all `subject` tags must sit in a node set of
// kind `group` holding between `cmin` and `cmax` other containers that
// carry all `target` tags.
struct ConstraintDef {
  std::vector<std::string> subject;
  std::vector<std::string> target;
  int cmin = 0;
  int cmax = 0;  // kNoMax for "inf"
  std::string group;

  static constexpr int kNoMax = -1;
};

// The §7.1 constraints an instance of each template carries (application
// `app`), and the shared operator rules.
std::vector<ConstraintDef> HBaseConstraints(uint32_t app);
std::vector<ConstraintDef> TensorFlowConstraints(uint32_t app);
std::vector<ConstraintDef> StormConstraints(uint32_t app, int supervisors);
std::vector<ConstraintDef> SharedConstraints(int hbase_workers_per_node,
                                             int tf_workers_per_node);

// Counts satisfied (constraint, subject) pairs; `subjects` receives the
// number of pairs evaluated.
long long CountSatisfied(const ObservedState& observed, const std::vector<ConstraintDef>& defs,
                         long long* subjects);

}  // namespace placebench

#endif  // PLACEBENCH_SRC_CHECKS_H_
