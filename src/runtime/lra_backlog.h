// Copyright (c) Medea reproduction authors.
// §5.4's commit-and-resubmit bookkeeping and the node-failure path, shared
// by both front ends of the placement pipeline (Simulation, PlacementService).
//
// A front end takes a batch from the backlog, plans it, commits the plan with
// CommitPlan and hands the batch back to Resolve, which applies one rule to
// every LRA: landed means placed (or a failover replacement); planned but
// not committed counts a commit conflict; whatever did not land is
// requeued at the back, or rejected once it reaches max_attempts. So
// placed + rejected = submitted once the backlog drains. Failover
// re-placements are not submissions: a landed one counts under
// failover_replacements, one that gives up under nothing.
//
// Not synchronized; the service guards it with its mutex.

#ifndef SRC_RUNTIME_LRA_BACKLOG_H_
#define SRC_RUNTIME_LRA_BACKLOG_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/schedulers/placement.h"
#include "src/tasksched/task_scheduler.h"

namespace medea::runtime {

struct BacklogEntry {
  LraRequest request;
  double submitted_ms = 0.0;  // fractional ms in the front end's clock
  int attempts = 0;
  bool is_failover = false;
};

struct BacklogCounts {
  long long submitted = 0;
  long long placed = 0;
  long long rejected = 0;
  long long resubmissions = 0;
  long long commit_conflicts = 0;
  long long failover_replacements = 0;
};

enum class Verdict { kPlaced, kRequeued, kRejected };

class LraBacklog {
 public:
  // Called for a commit conflict with the LRA's index in the batch; returns
  // true if the front end's conflict policy landed the LRA after all.
  using ConflictHook = std::function<bool(size_t index)>;
  // Called once per entry, in batch order.
  using VerdictHook = std::function<void(const BacklogEntry& entry, Verdict verdict)>;

  explicit LraBacklog(int max_attempts) : max_attempts_(max_attempts) {}

  // `is_failover`: the re-placement of containers lost to a node failure.
  void Submit(LraRequest request, double now_ms, bool is_failover = false);

  bool empty() const { return pending_.empty(); }
  size_t size() const { return pending_.size(); }
  const BacklogCounts& counts() const { return counts_; }

  // Takes up to `max` entries (0 = all) from the front.
  std::vector<BacklogEntry> Take(size_t max);

  // Resolves a taken batch whose plan was committed; `committed` is
  // CommitPlan's per-LRA verdict.
  void Resolve(std::vector<BacklogEntry> taken, const PlacementPlan& plan,
               const std::vector<bool>& committed, const ConflictHook& on_conflict,
               const VerdictHook& on_verdict);

 private:
  const int max_attempts_;
  std::deque<BacklogEntry> pending_;
  BacklogCounts counts_;
};

// A taken batch's placement problem (requests copied; state and manager
// are the caller's).
PlacementProblem ProblemFor(const std::vector<BacklogEntry>& batch);

struct NodeFailure {
  // Lost LRA containers per application; the map type fixes the order in
  // which front ends resubmit them.
  std::unordered_map<ApplicationId, LraRequest, std::hash<ApplicationId>> lost;
  int lra_containers_lost = 0;
  int tasks_evicted = 0;
};

// The node-failure path (§2.3): releases the node's LRA containers into
// per-application lost requests (their constraints stay registered),
// evicts its running tasks back to the head of their queues (if `tasks` is
// given) and marks the node down.
NodeFailure FailNode(ClusterState& state, NodeId node, TaskScheduler* tasks, SimTimeMs now);

}  // namespace medea::runtime

#endif  // SRC_RUNTIME_LRA_BACKLOG_H_
