#include "src/schedulers/placement.h"

#include <algorithm>
#include <atomic>

#include "src/common/logging.h"

namespace medea {
namespace {
// Atomic: the placement service's planner workers audit plans while its
// committer and heartbeat audit state mutations. Install/uninstall still happens
// quiesced (no concurrent pipeline), which SetPlacementAuditor documents.
std::atomic<PlacementAuditor*> g_auditor{nullptr};
}  // namespace

PlacementAuditor* SetPlacementAuditor(PlacementAuditor* auditor) {
  return g_auditor.exchange(auditor, std::memory_order_acq_rel);
}

PlacementAuditor* GetPlacementAuditor() {
  return g_auditor.load(std::memory_order_acquire);
}

std::vector<LraAssignments> AssignmentsByLra(const PlacementPlan& plan, size_t num_lras) {
  std::vector<LraAssignments> per_lra(num_lras);
  for (const Assignment& a : plan.assignments) {
    if (a.lra_index >= 0 && static_cast<size_t>(a.lra_index) < num_lras) {
      per_lra[static_cast<size_t>(a.lra_index)].push_back(&a);
    }
  }
  return per_lra;
}

bool PlannedNodeDemand(const LraRequest& lra, const LraAssignments& assignments,
                       const ClusterState& state, std::vector<NodeDemand>* per_node) {
  per_node->clear();
  per_node->reserve(assignments.size());
  std::vector<bool> covered(lra.containers.size(), false);
  for (const Assignment* a : assignments) {
    const auto c = static_cast<size_t>(a->container_index);
    if (a->container_index < 0 || c >= covered.size() || covered[c] ||
        a->node.value >= state.num_nodes()) {
      return false;
    }
    covered[c] = true;
    per_node->push_back(NodeDemand{a->node, lra.containers[c].demand});
  }
  // One flat vector, not a hash map: the service commits many LRAs per
  // epoch, and short-lived per-node map entries interleaved with the
  // state's own allocations raised the bulk benchmark's peak RSS by 6 MB.
  std::sort(per_node->begin(), per_node->end(),
            [](const NodeDemand& x, const NodeDemand& y) { return x.node.value < y.node.value; });
  size_t out = 0;
  for (const NodeDemand& need : *per_node) {
    if (out > 0 && (*per_node)[out - 1].node == need.node) {
      (*per_node)[out - 1].demand += need.demand;
    } else {
      (*per_node)[out++] = need;
    }
  }
  per_node->resize(out);
  return assignments.size() == covered.size();  // distinct, so each exactly once
}

bool CommitLra(const LraRequest& lra, const LraAssignments& assignments, ClusterState& state) {
  std::vector<NodeDemand> per_node;
  if (!PlannedNodeDemand(lra, assignments, state, &per_node)) {
    return false;
  }
  for (const NodeDemand& need : per_node) {
    const Node& node = state.node(need.node);
    if (!node.available() || !node.CanFit(need.demand)) {
      return false;
    }
  }
  std::vector<ContainerId> allocated;
  allocated.reserve(assignments.size());
  for (const Assignment* a : assignments) {
    const ContainerRequest& req = lra.containers[static_cast<size_t>(a->container_index)];
    auto result = state.Allocate(lra.app, a->node, req.demand, req.tags, /*long_running=*/true);
    if (!result.ok()) {
      MEDEA_LOG(kInfo) << "commit conflict for app" << lra.app.value << ": "
                       << result.status().ToString();
      for (ContainerId c : allocated) {
        MEDEA_CHECK(state.Release(c).ok());
      }
      return false;
    }
    allocated.push_back(*result);
  }
  return true;
}

bool CommitPlan(const PlacementProblem& problem, const PlacementPlan& plan, ClusterState& state,
                std::vector<bool>* committed_lras) {
  if (committed_lras != nullptr) {
    committed_lras->assign(problem.lras.size(), false);
  }
  const std::vector<LraAssignments> per_lra = AssignmentsByLra(plan, problem.lras.size());
  size_t grouped = 0;
  for (const LraAssignments& assignments : per_lra) {
    grouped += assignments.size();
  }
  bool all_ok = grouped == plan.assignments.size();
  for (size_t i = 0; i < problem.lras.size(); ++i) {
    if (i < plan.lra_placed.size() && !plan.lra_placed[i]) {
      continue;  // the plan legitimately left this LRA unplaced
    }
    if (!CommitLra(problem.lras[i], per_lra[i], state)) {
      all_ok = false;
      continue;
    }
    if (committed_lras != nullptr) {
      (*committed_lras)[i] = true;
    }
  }
  return all_ok;
}

}  // namespace medea
