#include "src/schedulers/placement.h"

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

bool CommitPlan(const PlacementProblem& problem, const PlacementPlan& plan, ClusterState& state,
                std::vector<bool>* committed_lras) {
  bool all_ok = true;
  if (committed_lras != nullptr) {
    committed_lras->assign(problem.lras.size(), false);
  }
  // Group assignments per LRA so a failing LRA can be rolled back atomically.
  std::vector<std::vector<const Assignment*>> per_lra(problem.lras.size());
  for (const Assignment& a : plan.assignments) {
    MEDEA_CHECK(a.lra_index >= 0 && a.lra_index < static_cast<int>(problem.lras.size()));
    per_lra[static_cast<size_t>(a.lra_index)].push_back(&a);
  }
  for (size_t i = 0; i < problem.lras.size(); ++i) {
    if (i < plan.lra_placed.size() && !plan.lra_placed[i]) {
      continue;  // the plan legitimately left this LRA unplaced
    }
    const LraRequest& lra = problem.lras[i];
    if (per_lra[i].size() != lra.containers.size()) {
      all_ok = false;
      continue;  // incomplete plan for this LRA
    }
    std::vector<ContainerId> allocated;
    bool lra_ok = true;
    for (const Assignment* a : per_lra[i]) {
      const ContainerRequest& req =
          lra.containers[static_cast<size_t>(a->container_index)];
      auto result = state.Allocate(lra.app, a->node, req.demand, req.tags,
                                   /*long_running=*/true);
      if (!result.ok()) {
        MEDEA_LOG(kInfo) << "commit conflict for app" << lra.app.value << ": "
                         << result.status().ToString();
        lra_ok = false;
        break;
      }
      allocated.push_back(*result);
    }
    if (!lra_ok) {
      for (ContainerId c : allocated) {
        MEDEA_CHECK(state.Release(c).ok());
      }
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
