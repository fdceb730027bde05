#include "src/runtime/placement_service.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/schedulers/migration.h"

namespace medea::runtime {
namespace {

// Names the calling thread's trace track, only while tracing: the name is a
// lasting allocation in the thread's malloc arena, and registering one from
// every short-lived service thread raised a bulk benchmark's peak RSS by
// about 10 MB.
void NameTraceTrack(const char* name) {
  if (obs::TraceRecorder::Default().enabled()) {
    obs::SetCurrentThreadName(name);
  }
}

}  // namespace

PlacementService::PlacementService(ServiceConfig config, ClusterState initial,
                                   ConstraintManager manager)
    : config_(std::move(config)),
      epoch_(std::move(initial)),
      plan_queue_(config_.plan_queue_capacity),
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
  while (pending_.size() >= config_.admission_capacity && !stopping_) {
    admission_cv_.Wait(&mu_);
  }
  if (stopping_) {
    return;
  }
  ++metrics_.submitted;
  ++outstanding_;
  pending_.push_back(PendingRequest{std::move(request), std::chrono::steady_clock::now(), 0,
                                    /*is_failover=*/false});
  if (obs::MetricsEnabled()) {
    obs::Count("service.requests");
    obs::SetGauge("service.admission_depth", static_cast<double>(pending_.size()));
  }
  work_cv_.Signal();
}

void PlacementService::SubmitSpec(const std::function<LraSpec(TagPool&)>& build) {
  LraSpec spec;
  WithManager([&](ConstraintManager& manager) {
    spec = build(manager.tags());
    for (const std::string& text : spec.shared_constraints) {
      const Status status = manager.AddOperatorConstraint(text);
      if (!status.ok()) {
        MEDEA_LOG(kWarning) << "bad shared constraint: " << status.ToString();
      }
    }
    for (const std::string& text : spec.app_constraints) {
      auto result = manager.AddFromText(text, ConstraintOrigin::kApplication, spec.request.app);
      if (!result.ok()) {
        MEDEA_LOG(kWarning) << "bad app constraint: " << result.status().ToString();
      }
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

SimTimeMs PlacementService::NowMs() const {
  return static_cast<SimTimeMs>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                    std::chrono::steady_clock::now() - start_time_)
                                    .count());
}

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

bool PlacementService::NextBatch(bool wait, std::vector<PendingRequest>* batch) {
  sync::MutexLock lock(&mu_);
  while (wait && pending_.empty() && !stopping_) {
    work_cv_.Wait(&mu_);
  }
  if (stopping_ || pending_.empty()) {
    return false;
  }
  const size_t n = std::min(config_.max_batch, pending_.size());
  batch->clear();
  batch->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch->push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  ++metrics_.batches;
  admission_cv_.SignalAll();
  if (!pending_.empty()) {
    work_cv_.Signal();  // more work for another planner
  }
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.admission_depth", static_cast<double>(pending_.size()));
  }
  return true;
}

PlanEnvelope PlacementService::PlanBatch(std::vector<PendingRequest> batch,
                                         LraScheduler& scheduler) {
  const obs::ScopedSpan plan_span("service.plan", "service");
  auto snapshot = epoch_.Acquire();
  // Torn-epoch sentinel (see epoch_state.h) — cheap enough to keep on.
  MEDEA_CHECK(snapshot->epoch == snapshot->epoch_check);
  const auto manager = manager_snapshot();

  PlanEnvelope envelope;
  envelope.lras.reserve(batch.size());
  envelope.attempts.reserve(batch.size());
  envelope.submitted.reserve(batch.size());
  envelope.is_failover.reserve(batch.size());
  for (PendingRequest& request : batch) {
    envelope.lras.push_back(std::move(request.request));
    envelope.attempts.push_back(request.attempts);
    envelope.submitted.push_back(request.submitted);
    envelope.is_failover.push_back(request.is_failover);
  }
  PlacementProblem problem;
  problem.lras = envelope.lras;
  problem.state = &snapshot->state;
  problem.manager = manager.get();
  {
    const obs::ScopedLatencyTimer plan_timer("service.plan_ms");
    envelope.plan = scheduler.Place(problem);
  }
  envelope.snapshot_version = snapshot->epoch;
  if (obs::MetricsEnabled()) {
    obs::Observe("service.batch_size", static_cast<double>(envelope.lras.size()));
  }
  return envelope;
}

void PlacementService::WorkerLoop(LraScheduler* scheduler) {
  NameTraceTrack("medea-svc-plan");
  std::vector<PendingRequest> batch;
  while (NextBatch(/*wait=*/true, &batch)) {
    PlanEnvelope envelope = PlanBatch(std::move(batch), *scheduler);
    batch.clear();
    if (!plan_queue_.Push(std::move(envelope))) {
      return;  // closed: shutting down
    }
  }
}

void PlacementService::CommitterLoop() {
  NameTraceTrack("medea-svc-commit");
  PlanEnvelope envelope;
  while (plan_queue_.Pop(&envelope)) {
    CommitEnvelope(std::move(envelope), nullptr);
  }
}

void PlacementService::HeartbeatLoop() {
  NameTraceTrack("medea-svc-beat");
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

bool PlacementService::RevalidateLra(const ClusterState& live, const PlanEnvelope& envelope,
                                     size_t lra_index) {
  // Aggregate the plan's demand per node for this LRA and check it still
  // fits the live free capacity on live (up) nodes.
  std::unordered_map<uint32_t, Resource> per_node;
  const LraRequest& lra = envelope.lras[lra_index];
  for (const Assignment& a : envelope.plan.assignments) {
    if (a.lra_index != static_cast<int>(lra_index)) {
      continue;
    }
    if (!a.node.IsValid() || static_cast<size_t>(a.node.value) >= live.num_nodes() ||
        a.container_index < 0 ||
        static_cast<size_t>(a.container_index) >= lra.containers.size()) {
      return false;
    }
    per_node[a.node.value] += lra.containers[static_cast<size_t>(a.container_index)].demand;
  }
  for (const auto& [node_raw, needed] : per_node) {
    const Node& node = live.node(NodeId(node_raw));
    if (!node.available() || !node.Free().Fits(needed)) {
      return false;
    }
  }
  return true;
}

void PlacementService::CommitEnvelope(PlanEnvelope envelope, BatchOutcome* outcome) {
  const obs::ScopedSpan commit_span("service.commit", "service");
  const obs::ScopedLatencyTimer commit_timer("service.commit_ms");
  const bool stale = envelope.snapshot_version != epoch_.epoch();
  PlacementPlan plan = envelope.plan;
  std::vector<bool> committed;
  int revalidation_demotions = 0;
  const uint64_t new_epoch = epoch_.Commit([&](ClusterState& live) {
    // Always revalidate: even a fresh-looking plan can race a concurrent
    // NodeDown between the staleness check above and this commit. The check
    // is per-LRA fit only — trivially true when nothing moved.
    for (size_t i = 0; i < envelope.lras.size(); ++i) {
      const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
      if (planned && !RevalidateLra(live, envelope, i)) {
        plan.lra_placed[i] = false;
        ++revalidation_demotions;
      }
    }
    PlacementProblem problem;
    problem.lras = envelope.lras;
    problem.state = &live;
    CommitPlan(problem, plan, live, &committed);
    AuditStateMutation(live, "service-commit");
  });
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.epoch", static_cast<double>(new_epoch));
    obs::Count("service.plans_committed");
    if (stale) {
      obs::Count("service.stale_plans");
    }
    if (revalidation_demotions > 0) {
      obs::Count("service.stale_lras_revalidated", revalidation_demotions);
    }
  }

  if (outcome != nullptr) {
    outcome->lras = envelope.lras;
    outcome->plan = envelope.plan;
    outcome->committed = committed;
    outcome->epoch = envelope.snapshot_version;
  }

  sync::MutexLock lock(&mu_);
  if (stale) {
    ++metrics_.stale_plans;
  }
  for (size_t i = 0; i < envelope.lras.size(); ++i) {
    const bool originally_planned =
        i < envelope.plan.lra_placed.size() && envelope.plan.lra_placed[i];
    const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
    const bool landed = planned && i < committed.size() && committed[i];
    if (landed) {
      if (envelope.is_failover[i]) {
        ++metrics_.failover_replacements;
      } else {
        ++metrics_.lras_placed;
      }
      MEDEA_CHECK(outstanding_ > 0);
      --outstanding_;
      if (obs::MetricsEnabled()) {
        obs::Count("service.lras_placed");
        // End-to-end placement latency: Submit() -> committed on the cluster.
        obs::Observe("service.place_latency_ms", MsSince(envelope.submitted[i]));
      }
      continue;
    }
    if (originally_planned) {
      ++metrics_.commit_conflicts;
      if (obs::MetricsEnabled()) {
        obs::Count("service.commit_conflicts");
      }
    }
    RequeueOrRejectLocked(PendingRequest{std::move(envelope.lras[i]), envelope.submitted[i],
                                         envelope.attempts[i] + 1, envelope.is_failover[i]});
  }
  if (outstanding_ == 0) {
    idle_cv_.SignalAll();
  }
}

void PlacementService::RequeueOrRejectLocked(PendingRequest request) {
  if (request.attempts >= config_.max_attempts) {
    MEDEA_CHECK(outstanding_ > 0);
    --outstanding_;
    // A failover re-placement that gives up leaves its app degraded; it is
    // not a rejected submission.
    if (!request.is_failover) {
      ++metrics_.lras_rejected;
      if (obs::MetricsEnabled()) {
        obs::Count("service.lras_rejected");
      }
    }
    const ApplicationId app = request.request.app;
    MutateManagerLocked(
        [app](ConstraintManager& manager) { manager.RemoveApplicationConstraints(app); });
    return;
  }
  ++metrics_.resubmissions;
  if (obs::MetricsEnabled()) {
    obs::Count("service.resubmissions");
  }
  // Requeues bypass the admission bound: blocking the committer on Submit's
  // backpressure would deadlock the pipeline.
  pending_.push_back(std::move(request));
  work_cv_.Signal();
}

void PlacementService::NodeDown(NodeId node) {
  obs::Count("service.node_down_events");
  const SteadyTime now = std::chrono::steady_clock::now();
  std::unordered_map<ApplicationId, LraRequest, std::hash<ApplicationId>> lost;
  long long containers_lost = 0;
  long long tasks_evicted = 0;
  {
    sync::MutexLock task_lock(&task_mu_);
    TaskTier& tier = tasks_;
    const SimTimeMs now_ms = NowMs();
    epoch_.Commit([&](ClusterState& live) {
      // Snapshot first: releases mutate the node's container list.
      const std::vector<ContainerId> containers(live.node(node).containers().begin(),
                                                live.node(node).containers().end());
      for (ContainerId c : containers) {
        const ContainerInfo* info = live.FindContainer(c);
        MEDEA_CHECK(info != nullptr);
        if (info->long_running) {
          LraRequest& request = lost[info->app];
          request.app = info->app;
          request.containers.push_back(ContainerRequest{info->resource, info->tags});
          ++containers_lost;
          MEDEA_CHECK(live.Release(c).ok());
        } else if (tier.scheduler.has_value() && tier.scheduler->IsRunning(c)) {
          MEDEA_CHECK(tier.scheduler->EvictTask(live, c, now_ms).ok());
          ++tasks_evicted;
        }
      }
      live.SetNodeAvailable(node, false);
      AuditStateMutation(live, "service-node-down");
    });
  }
  sync::MutexLock lock(&mu_);
  metrics_.lra_containers_lost += containers_lost;
  metrics_.tasks_requeued_on_failure += tasks_evicted;
  // Failover: resubmit the lost containers through the admission queue;
  // their constraints are still registered with the manager.
  for (auto& [app, request] : lost) {
    ++outstanding_;
    pending_.push_back(PendingRequest{std::move(request), now, 0, /*is_failover=*/true});
  }
  if (!lost.empty()) {
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
  std::vector<PendingRequest> batch;
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
  return metrics_;
}

}  // namespace medea::runtime
