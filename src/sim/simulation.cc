#include "src/sim/simulation.h"

#include <algorithm>

#include <cstdio>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea {

Simulation::Simulation(SimConfig config, std::unique_ptr<LraScheduler> lra_scheduler)
    : config_(config),
      state_(ClusterBuilder()
                 .NumNodes(config.num_nodes)
                 .NumRacks(config.num_racks)
                 .NumUpgradeDomains(config.num_upgrade_domains)
                 .NumServiceUnits(config.num_service_units)
                 .NodeCapacity(config.node_capacity)
                 .Build()),
      manager_(state_.groups_ptr()),
      lra_scheduler_(std::move(lra_scheduler)),
      backlog_(config_.max_lra_attempts) {
  MEDEA_CHECK(lra_scheduler_ != nullptr);
  if (config_.metrics_sample_interval_ms > 0) {
    Push(config_.metrics_sample_interval_ms, EventType::kMetricsSample);
  }
}

void Simulation::Push(SimTimeMs time, EventType type, int payload_index, ContainerId container,
                      ApplicationId app) {
  MEDEA_CHECK(time >= now_);
  Event event;
  event.time = time;
  event.seq = next_seq_++;
  event.type = type;
  event.payload_index = payload_index;
  event.container = container;
  event.app = app;
  events_.push(event);
}

void Simulation::SubmitLraAt(SimTimeMs t, LraSpec spec) {
  for (const std::string& text : spec.shared_constraints) {
    const Status status = manager_.AddOperatorConstraint(text);
    if (!status.ok()) {
      MEDEA_LOG(kWarning) << "bad shared constraint: " << status.ToString();
    }
  }
  lra_payloads_.push_back(std::move(spec));
  Push(t, EventType::kSubmitLra, static_cast<int>(lra_payloads_.size()) - 1);
}

void Simulation::SubmitTaskJobAt(SimTimeMs t, std::vector<TaskRequest> tasks,
                                 const std::string& queue) {
  task_payloads_.push_back(PendingTaskJob{std::move(tasks), queue});
  Push(t, EventType::kSubmitTaskJob, static_cast<int>(task_payloads_.size()) - 1);
}

void Simulation::RemoveLraAt(SimTimeMs t, ApplicationId app) {
  Push(t, EventType::kRemoveLra, -1, ContainerId::Invalid(), app);
}

void Simulation::NodeDownAt(SimTimeMs t, NodeId node) {
  Event event;
  event.time = t;
  event.seq = next_seq_++;
  event.type = EventType::kNodeDown;
  event.node = node;
  MEDEA_CHECK(t >= now_);
  events_.push(event);
}

void Simulation::NodeUpAt(SimTimeMs t, NodeId node) {
  Event event;
  event.time = t;
  event.seq = next_seq_++;
  event.type = EventType::kNodeUp;
  event.node = node;
  MEDEA_CHECK(t >= now_);
  events_.push(event);
}

void Simulation::HandleNodeDown(NodeId node) {
  runtime::NodeFailure failure = runtime::FailNode(state_, node, &task_scheduler_, now_);
  metrics_.lra_containers_lost += failure.lra_containers_lost;
  metrics_.tasks_requeued_on_failure += failure.tasks_evicted;
  AuditStateMutation(state_, "node-down");
  // Resubmit the lost LRA containers through the LRA scheduler; their
  // constraints are still registered with the manager.
  for (auto& [app, request] : failure.lost) {
    backlog_.Submit(std::move(request), static_cast<double>(now_), /*is_failover=*/true);
  }
  EnsureLraCycleScheduled();
  EnsureTaskTickScheduled();
}

void Simulation::EnsureLraCycleScheduled() {
  if (lra_cycle_scheduled_ || backlog_.empty()) {
    return;
  }
  // Next multiple of the scheduling interval strictly after now.
  const SimTimeMs interval = std::max<SimTimeMs>(config_.lra_interval_ms, 1);
  const SimTimeMs next = (now_ / interval + 1) * interval;
  Push(next, EventType::kLraCycle);
  lra_cycle_scheduled_ = true;
}

void Simulation::EnsureTaskTickScheduled() {
  if (task_tick_scheduled_ || task_scheduler_.pending_tasks() == 0) {
    return;
  }
  const SimTimeMs heartbeat = std::max<SimTimeMs>(config_.task_heartbeat_ms, 1);
  const SimTimeMs next = (now_ / heartbeat + 1) * heartbeat;
  Push(next, EventType::kTaskTick);
  task_tick_scheduled_ = true;
}

void Simulation::RunLraCycle() {
  lra_cycle_scheduled_ = false;
  if (backlog_.empty()) {
    return;
  }
  ++metrics_.cycles;

  std::vector<runtime::BacklogEntry> batch =
      backlog_.Take(static_cast<size_t>(std::max(config_.max_lras_per_cycle, 0)));
  PlacementProblem problem = runtime::ProblemFor(batch);
  problem.state = &state_;
  problem.manager = &manager_;

  const PlacementPlan plan = lra_scheduler_->Place(problem);
  metrics_.lra_cycle_latency_ms.Add(plan.latency_ms);

  std::vector<bool> committed;
  CommitPlan(problem, plan, state_, &committed);
  AuditStateMutation(state_, "lra-commit");

  std::vector<LraAssignments> by_lra;  // grouped on the first conflict
  backlog_.Resolve(
      std::move(batch), plan, committed,
      [&](size_t i) {
        if (by_lra.empty()) {
          by_lra = AssignmentsByLra(plan, problem.lras.size());
        }
        return HandleConflict(problem.lras[i], by_lra[i]);
      },
      [&](const runtime::BacklogEntry& entry, runtime::Verdict verdict) {
        if (verdict == runtime::Verdict::kRequeued) {
          return;
        }
        if (verdict == runtime::Verdict::kRejected) {
          manager_.RemoveApplicationConstraints(entry.request.app);
        } else if (!entry.is_failover) {
          metrics_.lra_placement_latency_ms.Add(static_cast<double>(now_) - entry.submitted_ms);
        }
        task_scheduler_.ReleaseReservation(entry.request.app);
      });
  const runtime::BacklogCounts& counts = backlog_.counts();
  metrics_.lras_placed = static_cast<int>(counts.placed);
  metrics_.lras_rejected = static_cast<int>(counts.rejected);
  metrics_.lra_resubmissions = static_cast<int>(counts.resubmissions);
  metrics_.commit_conflicts = static_cast<int>(counts.commit_conflicts);
  metrics_.failover_replacements = static_cast<int>(counts.failover_replacements);
  EnsureLraCycleScheduled();
}

bool Simulation::HandleConflict(const LraRequest& lra, const LraAssignments& assignments) {
  switch (config_.conflict_policy) {
    case ConflictPolicy::kResubmit:
      return false;
    case ConflictPolicy::kKillTasks:
      return TryCommitWithEviction(lra, assignments);
    case ConflictPolicy::kReserve: {
      // Hold the planned capacity so freed task resources accumulate for
      // the resubmitted LRA.
      std::vector<NodeDemand> holds;
      PlannedNodeDemand(lra, assignments, state_, &holds);
      task_scheduler_.AddReservation(lra.app, holds);
      ++metrics_.reservations_made;
      return false;
    }
  }
  return false;
}

bool Simulation::TryCommitWithEviction(const LraRequest& lra, const LraAssignments& assignments) {
  std::vector<NodeDemand> per_node;
  if (!PlannedNodeDemand(lra, assignments, state_, &per_node)) {
    return false;
  }
  int killed = 0;
  for (const NodeDemand& need : per_node) {
    while (!state_.node(need.node).Free().Fits(need.demand)) {
      // Find a short-running container on this node to evict.
      ContainerId victim = ContainerId::Invalid();
      for (ContainerId c : state_.node(need.node).containers()) {
        const ContainerInfo* info = state_.FindContainer(c);
        if (!info->long_running && task_scheduler_.IsRunning(c)) {
          victim = c;
          break;
        }
      }
      if (!victim.IsValid()) {
        return false;  // nothing left to kill; fall back to resubmission
      }
      MEDEA_CHECK(task_scheduler_.EvictTask(state_, victim, now_).ok());
      ++killed;
    }
  }
  if (!CommitLra(lra, assignments, state_)) {
    return false;
  }
  metrics_.tasks_killed += killed;
  EnsureTaskTickScheduled();  // requeued victims need a heartbeat
  return true;
}

void Simulation::EnsureMigrationScheduled() {
  if (migration_scheduled_ || config_.migration_interval_ms <= 0 ||
      state_.num_long_running_containers() == 0) {
    return;
  }
  const SimTimeMs interval = config_.migration_interval_ms;
  Push((now_ / interval + 1) * interval, EventType::kMigrationCycle);
  migration_scheduled_ = true;
}

void Simulation::RunMigrationCycle() {
  migration_scheduled_ = false;
  const MigrationPlanner planner(config_.migration);
  const MigrationPlan plan = planner.Plan(state_, manager_);
  metrics_.migrations += MigrationPlanner::Apply(plan, state_);
  AuditStateMutation(state_, "migration");
  EnsureMigrationScheduled();
}

void Simulation::RunTaskTick() {
  task_tick_scheduled_ = false;
  const auto allocations = task_scheduler_.Tick(state_, now_);
  for (const auto& allocation : allocations) {
    Push(allocation.end_time, EventType::kTaskComplete, -1, allocation.container);
  }
  EnsureTaskTickScheduled();
}

void Simulation::RunUntil(SimTimeMs t) {
  // Stable counter name per event type (sim.events.<type>).
  const auto event_counter_name = [](EventType type) -> const char* {
    switch (type) {
      case EventType::kSubmitLra:
        return "sim.events.submit_lra";
      case EventType::kSubmitTaskJob:
        return "sim.events.submit_task_job";
      case EventType::kRemoveLra:
        return "sim.events.remove_lra";
      case EventType::kLraCycle:
        return "sim.events.lra_cycle";
      case EventType::kMigrationCycle:
        return "sim.events.migration_cycle";
      case EventType::kMetricsSample:
        return "sim.events.metrics_sample";
      case EventType::kNodeDown:
        return "sim.events.node_down";
      case EventType::kNodeUp:
        return "sim.events.node_up";
      case EventType::kTaskTick:
        return "sim.events.task_tick";
      case EventType::kTaskComplete:
        return "sim.events.task_complete";
    }
    return "sim.events.unknown";
  };
  while (!events_.empty() && events_.top().time <= t) {
    const Event event = events_.top();
    events_.pop();
    MEDEA_CHECK(event.time >= now_);
    now_ = event.time;
    obs::Count(event_counter_name(event.type));
    const obs::ScopedSpan dispatch_span("sim.event_dispatch", "sim");
    const obs::ScopedLatencyTimer dispatch_timer("sim.event_dispatch_ms");
    switch (event.type) {
      case EventType::kSubmitLra: {
        LraSpec& spec = lra_payloads_[static_cast<size_t>(event.payload_index)];
        for (const std::string& text : spec.app_constraints) {
          auto result = manager_.AddFromText(text, ConstraintOrigin::kApplication,
                                             spec.request.app);
          if (!result.ok()) {
            MEDEA_LOG(kWarning) << "bad app constraint: " << result.status().ToString();
          }
        }
        backlog_.Submit(std::move(spec.request), static_cast<double>(now_));
        EnsureLraCycleScheduled();
        break;
      }
      case EventType::kSubmitTaskJob: {
        PendingTaskJob& job = task_payloads_[static_cast<size_t>(event.payload_index)];
        task_scheduler_.SubmitJob(next_task_app_, job.queue, std::move(job.tasks), now_);
        next_task_app_ = ApplicationId(next_task_app_.value + 1);
        EnsureTaskTickScheduled();
        break;
      }
      case EventType::kRemoveLra:
        state_.ReleaseApplication(event.app);
        manager_.RemoveApplicationConstraints(event.app);
        AuditStateMutation(state_, "remove-lra");
        break;
      case EventType::kLraCycle:
        RunLraCycle();
        EnsureMigrationScheduled();
        break;
      case EventType::kMigrationCycle:
        RunMigrationCycle();
        break;
      case EventType::kMetricsSample:
        TakeMetricsSample();
        break;
      case EventType::kNodeDown:
        HandleNodeDown(event.node);
        break;
      case EventType::kNodeUp:
        state_.SetNodeAvailable(event.node, true);
        EnsureTaskTickScheduled();
        break;
      case EventType::kTaskTick:
        RunTaskTick();
        break;
      case EventType::kTaskComplete:
        // The container may have been evicted by the kKillTasks conflict
        // policy; its stale completion event is then a no-op.
        if (task_scheduler_.IsRunning(event.container)) {
          task_scheduler_.CompleteTask(state_, event.container);
          // Freed resources may unblock queued tasks.
          EnsureTaskTickScheduled();
        }
        break;
    }
  }
  now_ = std::max(now_, t);
}

void Simulation::RunUntilQuiescent(SimTimeMs max_t) {
  while (!events_.empty() && events_.top().time <= max_t) {
    RunUntil(events_.top().time);
  }
}

void Simulation::TakeMetricsSample() {
  MetricsSample sample;
  sample.time_ms = now_;
  sample.violation_fraction = EvaluateViolations().ViolationFraction();
  sample.memory_utilization = MemoryUtilization();
  sample.fragmented_fraction = state_.FragmentedNodeFraction(Resource(2048, 1));
  sample.lra_containers = state_.num_long_running_containers();
  sample.task_containers = state_.num_containers() - sample.lra_containers;
  samples_.push_back(sample);
  // Keep sampling only while other work is pending or scheduled — a
  // self-rescheduling sampler would make RunUntilQuiescent spin forever.
  if (!events_.empty() || !backlog_.empty() || task_scheduler_.pending_tasks() > 0) {
    Push(now_ + config_.metrics_sample_interval_ms, EventType::kMetricsSample);
  }
}

Status Simulation::WriteSamplesCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Unavailable("cannot open " + path);
  }
  std::fprintf(file,
               "time_ms,violation_fraction,memory_utilization,fragmented_fraction,"
               "lra_containers,task_containers\n");
  for (const MetricsSample& s : samples_) {
    std::fprintf(file, "%lld,%.6f,%.6f,%.6f,%zu,%zu\n",
                 static_cast<long long>(s.time_ms), s.violation_fraction,
                 s.memory_utilization, s.fragmented_fraction, s.lra_containers,
                 s.task_containers);
  }
  std::fclose(file);
  return Status::Ok();
}

double Simulation::MemoryUtilization() const {
  const Resource total = state_.TotalCapacity();
  if (total.memory_mb == 0) {
    return 0.0;
  }
  return static_cast<double>(state_.TotalUsed().memory_mb) /
         static_cast<double>(total.memory_mb);
}

}  // namespace medea
