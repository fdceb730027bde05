#include "src/runtime/lra_backlog.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/logging.h"

namespace medea::runtime {

void LraBacklog::Submit(LraRequest request, double now_ms, bool is_failover) {
  counts_.submitted += is_failover ? 0 : 1;
  pending_.push_back(BacklogEntry{std::move(request), now_ms, 0, is_failover});
}

std::vector<BacklogEntry> LraBacklog::Take(size_t max) {
  const size_t n = max == 0 ? size() : std::min(max, size());
  const auto end = pending_.begin() + static_cast<std::ptrdiff_t>(n);
  std::vector<BacklogEntry> taken(std::make_move_iterator(pending_.begin()),
                                  std::make_move_iterator(end));
  pending_.erase(pending_.begin(), end);
  return taken;
}

void LraBacklog::Resolve(std::vector<BacklogEntry> taken, const PlacementPlan& plan,
                         const std::vector<bool>& committed, const ConflictHook& on_conflict,
                         const VerdictHook& on_verdict) {
  MEDEA_CHECK(committed.size() == taken.size());
  for (size_t i = 0; i < taken.size(); ++i) {
    BacklogEntry& entry = taken[i];
    bool landed = committed[i];
    if (!landed && i < plan.lra_placed.size() && plan.lra_placed[i]) {
      ++counts_.commit_conflicts;
      landed = on_conflict && on_conflict(i);
    }
    Verdict verdict = Verdict::kRequeued;
    if (landed) {
      verdict = Verdict::kPlaced;
      ++(entry.is_failover ? counts_.failover_replacements : counts_.placed);
    } else if (++entry.attempts >= max_attempts_) {
      verdict = Verdict::kRejected;
      counts_.rejected += entry.is_failover ? 0 : 1;
    } else {
      ++counts_.resubmissions;
    }
    on_verdict(entry, verdict);
    if (verdict == Verdict::kRequeued) {
      pending_.push_back(std::move(entry));
    }
  }
}

PlacementProblem ProblemFor(const std::vector<BacklogEntry>& batch) {
  PlacementProblem problem;
  problem.lras.reserve(batch.size());
  for (const BacklogEntry& entry : batch) {
    problem.lras.push_back(entry.request);
  }
  return problem;
}

NodeFailure FailNode(ClusterState& state, NodeId node, TaskScheduler* tasks, SimTimeMs now) {
  NodeFailure failure;
  // Snapshot first: releases mutate the node's container list.
  const std::vector<ContainerId> containers(state.node(node).containers().begin(),
                                            state.node(node).containers().end());
  for (ContainerId c : containers) {
    const ContainerInfo* info = state.FindContainer(c);
    MEDEA_CHECK(info != nullptr);
    if (info->long_running) {
      LraRequest& request = failure.lost[info->app];
      request.app = info->app;
      request.containers.push_back(ContainerRequest{info->resource, info->tags});
      ++failure.lra_containers_lost;
      MEDEA_CHECK(state.Release(c).ok());
    } else if (tasks != nullptr && tasks->IsRunning(c)) {
      MEDEA_CHECK(tasks->EvictTask(state, c, now).ok());
      ++failure.tasks_evicted;
    }
  }
  state.SetNodeAvailable(node, false);
  return failure;
}

}  // namespace medea::runtime
