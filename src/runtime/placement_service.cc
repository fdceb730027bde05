#include "src/runtime/placement_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/schedulers/migration.h"

namespace medea::runtime {

PlacementService::PlacementService(ServiceConfig config, ClusterState initial,
                                   ConstraintManager manager)
    : config_(std::move(config)),
      epoch_(std::move(initial)),
      plan_queue_(config_.plan_queue_capacity),
      backlog_(config_.max_attempts),
      manager_(std::make_shared<const ConstraintManager>(std::move(manager))) {}

PlacementService::~PlacementService() { Stop(); }

void PlacementService::Start(const SchedulerFactory& factory) {
  MEDEA_CHECK(!started_);
  started_ = true;
  const int workers = std::max(1, config_.num_workers);
  planners_.reserve(static_cast<size_t>(workers));
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    planners_.push_back(factory());
    LraScheduler* scheduler = planners_.back().get();
    workers_.emplace_back("medea-svc-plan", [this, scheduler] { WorkerLoop(scheduler); });
  }
  committer_ = sync::Thread("medea-svc-commit", [this] { CommitterLoop(); });
  heartbeat_ = sync::Thread("medea-svc-beat", [this] { HeartbeatLoop(); });
}

void PlacementService::Stop() {
  {
    sync::MutexLock lock(&mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    work_cv_.SignalAll();
    admission_cv_.SignalAll();
    idle_cv_.SignalAll();
  }
  // Unblocks planners stuck in Push; the committer's blocking Pop keeps
  // draining the already-planned envelopes and exits on closed-and-empty.
  plan_queue_.Close();
  workers_.clear();
  committer_.Join();
  {
    sync::MutexLock lock(&task_mu_);
    tasks_.stop = true;
    task_cv_.SignalAll();
  }
  heartbeat_.Join();
}

void PlacementService::Submit(LraRequest request) {
  sync::MutexLock lock(&mu_);
  while (backlog_.size() >= config_.admission_capacity && !stopping_) {
    admission_cv_.Wait(&mu_);
  }
  if (stopping_) {
    return;
  }
  ++outstanding_;
  backlog_.Submit(std::move(request), MsSince(start_time_));
  if (obs::MetricsEnabled()) {
    obs::Count("service.requests");
    obs::SetGauge("service.admission_depth", static_cast<double>(backlog_.size()));
  }
  work_cv_.Signal();
}

void PlacementService::SubmitSpec(const std::function<LraSpec(TagPool&)>& build) {
  LraSpec spec;
  WithManager([&](ConstraintManager& manager) {
    spec = build(manager.tags());
    const Status status = RegisterLraConstraints(spec, manager);
    if (!status.ok()) {
      MEDEA_LOG(kWarning) << "bad constraint: " << status.ToString();
    }
  });
  Submit(std::move(spec.request));
}

void PlacementService::SubmitTaskJob(std::vector<TaskRequest> tasks) {
  sync::MutexLock lock(&task_mu_);
  if (!tasks_.scheduler.has_value()) {
    tasks_.scheduler.emplace();
  }
  tasks_.scheduler->SubmitJob(tasks_.next_app, "default", std::move(tasks), NowMs());
  tasks_.next_app = ApplicationId(tasks_.next_app.value + 1);
  task_cv_.Signal();
}

SimTimeMs PlacementService::NowMs() const { return static_cast<SimTimeMs>(MsSince(start_time_)); }

void PlacementService::WithManager(const std::function<void(ConstraintManager&)>& fn) {
  sync::MutexLock lock(&mu_);
  MutateManagerLocked(fn);
}

std::shared_ptr<const ConstraintManager> PlacementService::manager_snapshot() const {
  sync::MutexLock lock(&mu_);
  return manager_;
}

void PlacementService::MutateManagerLocked(const std::function<void(ConstraintManager&)>& fn) {
  // Copy-on-write republish: planner cycles hold the old snapshot safely.
  auto next = std::make_shared<ConstraintManager>(*manager_);
  fn(*next);
  manager_ = std::move(next);
}

bool PlacementService::NextBatch(bool wait, std::vector<BacklogEntry>* batch) {
  sync::MutexLock lock(&mu_);
  while (wait && backlog_.empty() && !stopping_) {
    work_cv_.Wait(&mu_);
  }
  if (stopping_ || backlog_.empty()) {
    return false;
  }
  *batch = backlog_.Take(config_.max_batch);
  ++metrics_.batches;
  admission_cv_.SignalAll();
  if (!backlog_.empty()) {
    work_cv_.Signal();  // more work for another planner
  }
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.admission_depth", static_cast<double>(backlog_.size()));
  }
  return true;
}

PlanEnvelope PlacementService::PlanBatch(std::vector<BacklogEntry> batch,
                                         LraScheduler& scheduler) {
  const obs::ScopedSpan plan_span("service.plan", "service");
  auto snapshot = epoch_.Acquire();
  // Torn-epoch sentinel (see epoch_state.h) — cheap enough to keep on.
  MEDEA_CHECK(snapshot->epoch == snapshot->epoch_check);
  const auto manager = manager_snapshot();

  PlanEnvelope envelope;
  envelope.taken = std::move(batch);
  PlacementProblem problem = ProblemFor(envelope.taken);
  problem.state = &snapshot->state;
  problem.manager = manager.get();
  {
    const obs::ScopedLatencyTimer plan_timer("service.plan_ms");
    envelope.plan = scheduler.Place(problem);
  }
  envelope.snapshot_version = snapshot->epoch;
  if (obs::MetricsEnabled()) {
    obs::Observe("service.batch_size", static_cast<double>(envelope.taken.size()));
  }
  return envelope;
}

void PlacementService::WorkerLoop(LraScheduler* scheduler) {
  obs::SetCurrentThreadName("medea-svc-plan");
  std::vector<BacklogEntry> batch;
  while (NextBatch(/*wait=*/true, &batch)) {
    PlanEnvelope envelope = PlanBatch(std::move(batch), *scheduler);
    batch.clear();
    if (!plan_queue_.Push(std::move(envelope))) {
      return;  // closed: shutting down
    }
  }
}

void PlacementService::CommitterLoop() {
  obs::SetCurrentThreadName("medea-svc-commit");
  PlanEnvelope envelope;
  while (plan_queue_.Pop(&envelope)) {
    CommitEnvelope(std::move(envelope), nullptr);
  }
}

void PlacementService::HeartbeatLoop() {
  obs::SetCurrentThreadName("medea-svc-beat");
  long long beat = 0;
  while (AwaitHeartbeat()) {
    const BeatCounts counts = Beat(++beat, *manager_snapshot());
    sync::MutexLock lock(&mu_);
    ++metrics_.heartbeats;
    metrics_.tasks_completed += counts.tasks_completed;
    metrics_.migrations += counts.migrations;
  }
}

bool PlacementService::HasTaskWorkLocked() const {
  if (config_.migration_every_heartbeats > 0) {
    return true;
  }
  return tasks_.scheduler.has_value() &&
         (tasks_.scheduler->pending_tasks() > 0 || tasks_.scheduler->running_tasks() > 0);
}

bool PlacementService::AwaitHeartbeat() {
  sync::MutexLock lock(&task_mu_);
  while (!tasks_.stop && !HasTaskWorkLocked()) {
    task_cv_.Wait(&task_mu_);
  }
  if (!tasks_.stop) {
    task_cv_.WaitFor(&task_mu_, kHeartbeatPeriod);
  }
  return !tasks_.stop;
}

PlacementService::BeatCounts PlacementService::Beat(long long beat,
                                                    const ConstraintManager& manager) {
  const obs::ScopedSpan beat_span("service.heartbeat", "service");
  const obs::ScopedLatencyTimer beat_timer("service.heartbeat_ms");
  const bool migrate = config_.migration_every_heartbeats > 0 &&
                       beat % config_.migration_every_heartbeats == 0;
  BeatCounts counts;
  sync::MutexLock lock(&task_mu_);
  TaskTier& tier = tasks_;
  const SimTimeMs now = NowMs();
  epoch_.CommitIfChanged([&](ClusterState& live) {
    bool changed = false;
    if (tier.scheduler.has_value()) {
      TaskScheduler& scheduler = *tier.scheduler;
      while (!tier.completions.empty() && tier.completions.top().end_ms <= now) {
        const ContainerId container = tier.completions.top().container;
        tier.completions.pop();
        // An evicted task's completion is stale: a no-op.
        if (scheduler.IsRunning(container)) {
          scheduler.CompleteTask(live, container);
          ++counts.tasks_completed;
          changed = true;
        }
      }
      for (const auto& allocation : scheduler.Tick(live, now, &manager)) {
        tier.completions.push(Completion{allocation.end_time, allocation.container});
        changed = true;
      }
    }
    if (migrate && live.num_long_running_containers() > 0) {
      const MigrationPlan plan = MigrationPlanner(MigrationConfig{}).Plan(live, manager);
      counts.migrations = MigrationPlanner::Apply(plan, live);
      changed = changed || counts.migrations > 0;
    }
    if (changed) {
      AuditStateMutation(live, "service-heartbeat");
    }
    return changed;
  });
  if (counts.migrations > 0) {
    obs::Count("service.migrations", counts.migrations);
  }
  return counts;
}

void PlacementService::CommitEnvelope(PlanEnvelope envelope, BatchOutcome* outcome) {
  const obs::ScopedSpan commit_span("service.commit", "service");
  const obs::ScopedLatencyTimer commit_timer("service.commit_ms");
  const bool stale = envelope.snapshot_version != epoch_.epoch();
  PlacementProblem problem = ProblemFor(envelope.taken);
  std::vector<bool> committed;
  const uint64_t new_epoch = epoch_.Commit([&](ClusterState& live) {
    // CommitPlan checks every planned LRA against the live state, so a
    // plan that raced a concurrent NodeDown or heartbeat cannot land.
    CommitPlan(problem, envelope.plan, live, &committed);
    AuditStateMutation(live, "service-commit");
  });
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.epoch", static_cast<double>(new_epoch));
    obs::Count("service.plans_committed");
    if (stale) {
      obs::Count("service.stale_plans");
    }
  }

  // The hooks run under mu_ but touch only locals: the thread-safety
  // analysis cannot see the lock inside a lambda.
  const double now_ms = MsSince(start_time_);
  size_t resolved = 0;
  std::vector<ApplicationId> given_up;
  {
    sync::MutexLock lock(&mu_);
    metrics_.stale_plans += stale ? 1 : 0;
    backlog_.Resolve(
        std::move(envelope.taken), envelope.plan, committed,
        [](size_t) {
          obs::Count("service.commit_conflicts");
          return false;
        },
        [&](const BacklogEntry& entry, Verdict verdict) {
          if (verdict == Verdict::kRequeued) {
            // Requeues bypass the admission bound: blocking the committer on
            // Submit's backpressure would deadlock the pipeline.
            obs::Count("service.resubmissions");
            return;
          }
          ++resolved;
          if (verdict == Verdict::kPlaced) {
            obs::Count("service.lras_placed");
            // End-to-end placement latency: Submit() -> committed.
            obs::Observe("service.place_latency_ms", now_ms - entry.submitted_ms);
            return;
          }
          // A failover that gives up leaves its app degraded; it is not a
          // rejected submission.
          if (!entry.is_failover) {
            obs::Count("service.lras_rejected");
          }
          given_up.push_back(entry.request.app);
        });
    MEDEA_CHECK(outstanding_ >= resolved);
    outstanding_ -= resolved;
    if (!given_up.empty()) {
      MutateManagerLocked([&given_up](ConstraintManager& manager) {
        for (const ApplicationId app : given_up) {
          manager.RemoveApplicationConstraints(app);
        }
      });
    }
    if (!backlog_.empty()) {
      work_cv_.Signal();
    }
    if (outstanding_ == 0) {
      idle_cv_.SignalAll();
    }
  }

  if (outcome != nullptr) {
    outcome->lras = std::move(problem.lras);
    outcome->plan = std::move(envelope.plan);
    outcome->committed = std::move(committed);
    outcome->epoch = envelope.snapshot_version;
  }
}

void PlacementService::NodeDown(NodeId node) {
  obs::Count("service.node_down_events");
  NodeFailure failure;
  {
    sync::MutexLock task_lock(&task_mu_);
    TaskScheduler* tasks = tasks_.scheduler.has_value() ? &*tasks_.scheduler : nullptr;
    const SimTimeMs now_ms = NowMs();
    epoch_.Commit([&](ClusterState& live) {
      failure = FailNode(live, node, tasks, now_ms);
      AuditStateMutation(live, "service-node-down");
    });
  }
  const double now_ms = MsSince(start_time_);
  sync::MutexLock lock(&mu_);
  metrics_.lra_containers_lost += failure.lra_containers_lost;
  metrics_.tasks_requeued_on_failure += failure.tasks_evicted;
  // Failover: the lost containers' constraints are still registered.
  for (auto& [app, request] : failure.lost) {
    ++outstanding_;
    backlog_.Submit(std::move(request), now_ms, /*is_failover=*/true);
  }
  if (!failure.lost.empty()) {
    work_cv_.Signal();
  }
}

void PlacementService::NodeUp(NodeId node) {
  epoch_.Commit([&](ClusterState& live) {
    live.SetNodeAvailable(node, true);
    AuditStateMutation(live, "service-node-up");
  });
}

bool PlacementService::WaitIdle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  sync::MutexLock lock(&mu_);
  while (outstanding_ > 0 && !stopping_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    idle_cv_.WaitFor(&mu_, deadline - now);
  }
  return outstanding_ == 0;
}

std::vector<BatchOutcome> PlacementService::RunSynchronous(LraScheduler& scheduler) {
  MEDEA_CHECK(!started_);
  std::vector<BatchOutcome> outcomes;
  std::vector<BacklogEntry> batch;
  while (NextBatch(/*wait=*/false, &batch)) {
    PlanEnvelope envelope = PlanBatch(std::move(batch), scheduler);
    batch.clear();
    BatchOutcome outcome;
    CommitEnvelope(std::move(envelope), &outcome);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

ServiceMetrics PlacementService::metrics() const {
  sync::MutexLock lock(&mu_);
  ServiceMetrics metrics = metrics_;
  const BacklogCounts& counts = backlog_.counts();
  metrics.submitted = counts.submitted;
  metrics.lras_placed = counts.placed;
  metrics.lras_rejected = counts.rejected;
  metrics.resubmissions = counts.resubmissions;
  metrics.commit_conflicts = counts.commit_conflicts;
  metrics.failover_replacements = counts.failover_replacements;
  return metrics;
}

}  // namespace medea::runtime
