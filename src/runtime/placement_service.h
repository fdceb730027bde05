// Copyright (c) Medea reproduction authors.
// PlacementService: Medea's concurrent runtime (§3.2, Fig. 4) — batched,
// snapshot-isolated LRA placement plus the task-based heartbeat tier.
//
// The paper's LRA scheduler "can place multiple applications at once" while
// the cluster keeps moving (§3.2). This service is that claim as a request
// path:
//
//   Submit() ──> admission queue ──> planner workers ──> PlanQueue ──> committer
//                 (bounded,           (batch up to        (bounded,     (single
//                  blocks when         max_batch LRAs,     blocks when   thread,
//                  full)               plan against an     full)         commits +
//                                      epoch snapshot)                   publishes)
//
// Batching: each planner cycle coalesces up to `max_batch` pending requests
// into one multi-app PlacementProblem, so a single ILP (or greedy) solve
// places them jointly; the solver's component decomposition splits
// non-interacting apps back into independent sub-models.
//
// Snapshot isolation: planners call EpochClusterState::Acquire() — a
// pointer copy — and plan against a frozen epoch while the committer keeps
// committing. Plans are suggestions: the committer hands each one to
// CommitPlan, which allocates only the LRAs whose plan still fits the live
// state, and the LraBacklog (lra_backlog.h) — the same one the Simulation
// uses — requeues (up to `max_attempts`) or rejects the rest (§5.4
// placement conflicts).
//
// Task-based jobs (SubmitTaskJob) run on a heartbeat thread: every
// kHeartbeatPeriod it completes due tasks, allocates queued ones through
// the TaskScheduler and, every `migration_every_heartbeats` beats, runs a
// migration cycle. The thread sleeps on a condition variable while no task
// is pending or running (and migration is off), and publishes an epoch only
// when a beat changed the cluster, so LRA-only use pays nothing for it.
//
// One allocation path: every mutation of the live cluster — LRA commits,
// task allocation, completion and eviction, migration, node up/down — runs
// inside EpochClusterState::Commit, under its writer lock. The task
// scheduler holds no pointer into that state; each call gets the live
// ClusterState& from the Commit it runs in.
//
// Backpressure: two bounded queues. Submit() blocks once
// `admission_capacity` requests are pending, and planners block on the
// PlanQueue when the committer falls behind.
//
// Two execution modes share the batch/plan/commit code path:
//   * Start()/Stop(): planner workers, the committer and the heartbeat.
//   * RunSynchronous(): single-threaded deterministic drain — same batching,
//     same snapshot plumbing, zero concurrency, no task tier. This is the
//     mode the scenario fuzzer runs differentially against a plain
//     sequential place-and-commit loop (identical batches => identical
//     plans, commits and Eq.1 objectives).
//
// Lock order: task_mu_ → EpochClusterState::writer_mu_ →
// EpochClusterState::publish_mu_; mu_ and the PlanQueue's mutex are never
// held together with another lock.

#ifndef SRC_RUNTIME_PLACEMENT_SERVICE_H_
#define SRC_RUNTIME_PLACEMENT_SERVICE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "src/cluster/epoch_state.h"
#include "src/common/sync/mutex.h"
#include "src/common/sync/thread.h"
#include "src/core/constraint_manager.h"
#include "src/runtime/lra_backlog.h"
#include "src/runtime/plan_queue.h"
#include "src/schedulers/placement.h"
#include "src/tasksched/task_scheduler.h"
#include "src/workload/lra_templates.h"

namespace medea::runtime {

struct ServiceConfig {
  // Max LRA requests coalesced into one multi-app placement problem.
  size_t max_batch = 16;
  // Admission-queue bound: Submit() blocks while this many requests are
  // pending (closed-loop backpressure ahead of the PlanQueue).
  size_t admission_capacity = 64;
  // Planner worker threads; each owns its own LraScheduler instance.
  int num_workers = 2;
  size_t plan_queue_capacity = 4;
  // A request is rejected after this many failed placement attempts.
  int max_attempts = 3;
  // Run a migration cycle every N task heartbeats; 0 disables. While
  // enabled the heartbeat runs even with no task work.
  int migration_every_heartbeats = 0;
};

struct ServiceMetrics {
  long long submitted = 0;
  long long batches = 0;
  // Every submitted LRA resolves once as placed or rejected; failover
  // re-placements count under failover_replacements only (LraBacklog).
  long long lras_placed = 0;
  long long lras_rejected = 0;
  long long resubmissions = 0;
  long long commit_conflicts = 0;
  long long stale_plans = 0;
  long long failover_replacements = 0;
  long long lra_containers_lost = 0;
  // Task-based heartbeat tier.
  long long heartbeats = 0;
  long long tasks_completed = 0;
  long long tasks_requeued_on_failure = 0;
  long long migrations = 0;
};

// Result of one synchronous batch cycle (RunSynchronous): what was asked,
// what the planner proposed against `epoch`, and what actually committed.
struct BatchOutcome {
  std::vector<LraRequest> lras;
  PlacementPlan plan;
  std::vector<bool> committed;
  uint64_t epoch = 0;
};

class PlacementService {
 public:
  using SchedulerFactory = std::function<std::unique_ptr<LraScheduler>()>;

  // Period of the task heartbeat (Start() mode only). The service clock is
  // wall time in milliseconds since construction, so TaskRequest durations
  // are real milliseconds.
  static constexpr std::chrono::milliseconds kHeartbeatPeriod{2};

  PlacementService(ServiceConfig config, ClusterState initial, ConstraintManager manager);
  ~PlacementService();

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // Spawns `num_workers` planner threads (one scheduler instance each, from
  // `factory`), the committer thread and the heartbeat thread.
  void Start(const SchedulerFactory& factory);

  // Stops all threads; pending plans in the PlanQueue are drained and
  // committed, un-planned admissions are dropped.
  void Stop();

  // Enqueues a placement request. Blocks while the admission queue is full.
  // Requests submitted after Stop() are dropped.
  void Submit(LraRequest request);

  // Builds an LRA spec against the shared tag pool, registers its
  // constraints (RegisterLraConstraints; bad texts are logged and skipped)
  // in one manager republish, and submits its request.
  void SubmitSpec(const std::function<LraSpec(TagPool&)>& build);

  // Enqueues a task-based job on the heartbeat tier's single FIFO queue
  // (it runs after Start()).
  void SubmitTaskJob(std::vector<TaskRequest> tasks);

  // Mutates the constraint manager (register/remove constraints, intern
  // tags) and republishes the snapshot used by subsequent planner cycles.
  void WithManager(const std::function<void(ConstraintManager&)>& fn);
  std::shared_ptr<const ConstraintManager> manager_snapshot() const;

  // Failover path (§2.3): FailNode in one epoch commit — marks the node
  // down, evicts its running tasks back to the head of their queues and
  // releases its LRA containers — then resubmits the lost containers to the
  // backlog as failovers. NodeUp re-enables the node (another epoch).
  void NodeDown(NodeId node);
  void NodeUp(NodeId node);

  // Blocks until every submitted LRA request has resolved (committed or
  // rejected) or `timeout` elapses; returns false on timeout. Task jobs may
  // still be running.
  bool WaitIdle(std::chrono::milliseconds timeout);

  // Deterministic single-threaded mode (do not Start()): drains the
  // admission queue one batch per cycle in submission order, planning with
  // `scheduler` and committing immediately. Returns the per-batch outcomes.
  std::vector<BatchOutcome> RunSynchronous(LraScheduler& scheduler);

  // Epoch-snapshot access for readers/tests.
  std::shared_ptr<const ClusterSnapshot> AcquireSnapshot() const { return epoch_.Acquire(); }
  uint64_t epoch() const { return epoch_.epoch(); }
  // Runs `fn(const ClusterState&)` on the live working state under the
  // writer lock (end-of-run audits, invariant checks).
  void WithLiveState(const std::function<void(const ClusterState&)>& fn) const {
    epoch_.WithLive(fn);
  }

  ServiceMetrics metrics() const;

 private:
  struct Completion {
    SimTimeMs end_ms = 0;
    ContainerId container;
    bool operator>(const Completion& other) const { return end_ms > other.end_ms; }
  };
  // The heartbeat tier's state. Touched only under task_mu_; the scheduler
  // is created by the first SubmitTaskJob.
  struct TaskTier {
    std::optional<TaskScheduler> scheduler;
    std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions;
    ApplicationId next_app{1u << 20};  // task jobs get synthetic app ids
    bool stop = false;
  };
  struct BeatCounts {
    long long tasks_completed = 0;
    long long migrations = 0;
  };

  void WorkerLoop(LraScheduler* scheduler);
  void CommitterLoop();
  void HeartbeatLoop();

  // Takes up to max_batch requests from the backlog into `batch`. With
  // `wait` it blocks until a request is pending; returns false when
  // stopping, or when nothing is pending.
  bool NextBatch(bool wait, std::vector<BacklogEntry>* batch) MEDEA_EXCLUDES(mu_);

  // Plans `batch` against the current epoch snapshot with `scheduler` and
  // wraps the result in an envelope (snapshot_version = epoch).
  PlanEnvelope PlanBatch(std::vector<BacklogEntry> batch, LraScheduler& scheduler);

  // Commits an envelope's plan against the live state (CommitPlan, one
  // epoch), then resolves its batch through the backlog: placed, requeued
  // or rejected. If `outcome` is non-null the batch result is recorded
  // there (synchronous mode).
  void CommitEnvelope(PlanEnvelope envelope, BatchOutcome* outcome) MEDEA_EXCLUDES(mu_);

  // Waits out one heartbeat period; while the tier has no work, waits for
  // some first. Returns false once the heartbeat is stopping.
  bool AwaitHeartbeat() MEDEA_EXCLUDES(task_mu_);
  bool HasTaskWorkLocked() const MEDEA_REQUIRES(task_mu_);
  // One heartbeat (`beat` counts from 1): completes due tasks, allocates
  // queued ones and migrates on every migration_every_heartbeats-th beat,
  // inside one epoch commit that publishes only on change.
  BeatCounts Beat(long long beat, const ConstraintManager& manager) MEDEA_EXCLUDES(task_mu_);
  // Milliseconds of service clock since construction.
  SimTimeMs NowMs() const;
  void MutateManagerLocked(const std::function<void(ConstraintManager&)>& fn)
      MEDEA_REQUIRES(mu_);

  const ServiceConfig config_;
  const SteadyTime start_time_ = std::chrono::steady_clock::now();
  EpochClusterState epoch_;
  PlanQueue plan_queue_;

  mutable sync::Mutex mu_;
  sync::CondVar work_cv_;       // backlog_ became non-empty (or stopping)
  sync::CondVar admission_cv_;  // backlog_ dropped below capacity
  sync::CondVar idle_cv_;       // outstanding_ hit zero
  LraBacklog backlog_ MEDEA_GUARDED_BY(mu_);
  std::shared_ptr<const ConstraintManager> manager_ MEDEA_GUARDED_BY(mu_);
  size_t outstanding_ MEDEA_GUARDED_BY(mu_) = 0;
  bool stopping_ MEDEA_GUARDED_BY(mu_) = false;
  ServiceMetrics metrics_ MEDEA_GUARDED_BY(mu_);

  mutable sync::Mutex task_mu_;
  sync::CondVar task_cv_;  // task work arrived, or stopping
  TaskTier tasks_ MEDEA_GUARDED_BY(task_mu_);

  std::vector<std::unique_ptr<LraScheduler>> planners_;
  std::vector<sync::Thread> workers_;
  sync::Thread committer_;
  sync::Thread heartbeat_;
  bool started_ = false;
};

}  // namespace medea::runtime

#endif  // SRC_RUNTIME_PLACEMENT_SERVICE_H_
