// Reproduces Figure 11b: the benefit of the two-scheduler design (§7.5).
// A fully utilized cluster receives an interleaved stream of LRAs (HBase
// instances with constraints) and short-running task containers; the
// fraction of resources for LRAs ("percentage of services") varies.
// Two designs are compared on *total LRA scheduling latency* — the time
// LRAs spend waiting for and inside the solver:
//   MEDEA   — tasks flow through the task-based scheduler (off the solver
//             path); the ILP only ever solves LRA batches;
//   ILP-ALL — a single scheduler pushes everything through the solver, so
//             every LRA also queues behind the task batches ahead of it.
// Paper shape: ILP-ALL is many times slower (~9.5x at 20% services),
// converging as the share of services grows.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/tasksched/task_scheduler.h"

namespace medea::bench {
namespace {

constexpr size_t kNodes = 64;
constexpr double kInstanceMemoryMb = 10 * 2048 + 3 * 1024;
constexpr int kTasksPerBatch = 50;

ClusterState MakeCluster() {
  return ClusterBuilder()
      .NumNodes(kNodes)
      .NumRacks(8)
      .NumUpgradeDomains(8)
      .NumServiceUnits(8)
      .NodeCapacity(Resource(16 * 1024, 8))
      .Build();
}

SchedulerConfig Config() {
  SchedulerConfig config;
  config.node_pool_size = 64;
  config.candidates_per_container = 16;
  config.x_var_budget = 1600;
  config.ilp_time_limit_seconds = 0.1;
  return config;
}

// The naive single-scheduler design solves full-cluster models (every
// container may go to every node, as the paper's CPLEX formulation does) —
// candidate pruning is part of Medea's LRA-scheduler engineering, not of
// the strawman.
SchedulerConfig FullModelConfig() {
  SchedulerConfig config = Config();
  config.node_pool_size = static_cast<int>(kNodes);
  config.candidates_per_container = static_cast<int>(kNodes);
  config.x_var_budget = 1000000;
  return config;
}

// One unit of arriving work: an LRA or a batch of short tasks.
struct Unit {
  bool is_lra = false;
  int index = 0;  // LRA index or task-batch index
};

// Interleaved arrival order covering `instances` LRAs and `task_batches`
// task batches, spread evenly.
std::vector<Unit> Arrivals(int instances, int task_batches) {
  std::vector<Unit> units;
  const int total = instances + task_batches;
  int li = 0, ti = 0;
  for (int i = 0; i < total; ++i) {
    // Even interleaving by rate.
    const bool pick_lra =
        ti >= task_batches ||
        (li < instances &&
         static_cast<double>(li) / instances <= static_cast<double>(ti) / task_batches);
    if (pick_lra) {
      units.push_back(Unit{true, li++});
    } else {
      units.push_back(Unit{false, ti++});
    }
  }
  return units;
}

// One design's outcome, read entirely from the shared obs registry: the
// queueing-inclusive total, the per-solve latency distribution and the
// per-LRA queue-wait distribution.
struct DesignResult {
  double total_lra_latency_s = 0.0;
  obs::LatencyHistogram::Snapshot solve;
  obs::LatencyHistogram::Snapshot queue_wait;
};

// Runs one design; returns the total LRA scheduling latency (s): the sum
// over LRAs of (queueing behind earlier solver work + own solve).
DesignResult RunDesign(bool single_scheduler, double services_fraction) {
  ResetBenchRegistry();
  ClusterState state = MakeCluster();
  ConstraintManager manager(state.groups_ptr());
  MedeaIlpScheduler ilp(single_scheduler ? FullModelConfig() : Config());
  TaskScheduler tasks;

  const double total_mb = static_cast<double>(state.TotalCapacity().memory_mb);
  const int instances =
      std::max(1, static_cast<int>(services_fraction * total_mb / kInstanceMemoryMb));
  const int task_count =
      static_cast<int>((1.0 - services_fraction) * total_mb / 2048.0);
  const int task_batches = (task_count + kTasksPerBatch - 1) / kTasksPerBatch;

  for (const Unit& unit : Arrivals(instances, task_batches)) {
    if (unit.is_lra) {
      const ApplicationId app(static_cast<uint32_t>(unit.index + 1));
      LraSpec spec = MakeHBaseInstance(app, manager.tags(), 10);
      MEDEA_CHECK(RegisterLraConstraints(spec, manager).ok());
      PlacementProblem problem;
      problem.state = &state;
      problem.manager = &manager;
      problem.lras.push_back(spec.request);
      // Queue wait: cumulative solver occupancy before this LRA's own solve.
      // The ILP scheduler records every Place() into sched.place_ms.Medea-ILP
      // (ILP-ALL's task-batch solves included), so the registry sum IS the
      // occupancy — no bench-local stopwatch.
      const double wait_ms = HistogramSnapshot("sched.place_ms.Medea-ILP").sum_ms;
      const PlacementPlan plan = ilp.Place(problem);
      obs::Observe("bench.lra_queue_wait_ms", wait_ms);
      obs::Observe("bench.lra_total_latency_ms",
                   HistogramSnapshot("sched.place_ms.Medea-ILP").sum_ms);
      std::vector<bool> committed;
      CommitPlan(problem, plan, state, &committed);
      if (!committed.empty() && !committed[0]) {
        manager.RemoveApplicationConstraints(app);
      }
    } else {
      const int batch = std::min(kTasksPerBatch,
                                 task_count - unit.index * kTasksPerBatch);
      if (batch <= 0) {
        continue;
      }
      if (single_scheduler) {
        // The solver also places the task batch; LRAs behind it wait.
        PlacementProblem problem;
        problem.state = &state;
        problem.manager = &manager;
        std::vector<LraSpec> task_specs;
        for (int t = 0; t < batch; ++t) {
          task_specs.push_back(MakeGenericLra(
              ApplicationId(800000 + static_cast<uint32_t>(unit.index * kTasksPerBatch + t)),
              manager.tags(), 1, "task", Resource(2048, 1)));
          problem.lras.push_back(task_specs.back().request);
        }
        const PlacementPlan plan = ilp.Place(problem);
        CommitPlan(problem, plan, state);
      } else {
        // Two-scheduler design: tasks bypass the solver entirely.
        tasks.SubmitJob(ApplicationId(800000), "default",
                        std::vector<TaskRequest>(static_cast<size_t>(batch),
                                                 TaskRequest{Resource(2048, 1), 60000}),
                        0);
        // Heartbeat allocation: off the solver path, so it does not
        // enter solver_busy_ms (that is the whole point of the design).
        tasks.Tick(state, 0);
      }
    }
  }
  // Everything below comes from the registry: per-solve distribution
  // (recorded by the scheduler), per-LRA queue wait and queueing-inclusive
  // total latency (recorded above).
  return DesignResult{HistogramSnapshot("bench.lra_total_latency_ms").sum_ms / 1000.0,
                      HistogramSnapshot("sched.place_ms.Medea-ILP"),
                      HistogramSnapshot("bench.lra_queue_wait_ms")};
}

void Run() {
  PrintHeader("Figure 11b — Two-scheduler benefit: total LRA scheduling latency (s)",
              "single-scheduler ILP-ALL is many times slower (paper: ~9.5x at 20% services)");

  std::printf("%-18s %12s %12s %12s %22s %22s\n", "services (%)", "MEDEA (s)", "ILP-ALL (s)",
              "ratio", "MEDEA solve p50/p99", "MEDEA wait p50/p99");
  for (double fraction : {0.20, 0.40, 0.60, 0.80, 1.00}) {
    const DesignResult medea = RunDesign(false, fraction);
    const DesignResult ilp_all = RunDesign(true, fraction);
    std::printf("%-18.0f %12.2f %12.2f %11.1fx %14.0f/%.0f ms %14.0f/%.0f ms\n", 100 * fraction,
                medea.total_lra_latency_s, ilp_all.total_lra_latency_s,
                ilp_all.total_lra_latency_s / std::max(1e-9, medea.total_lra_latency_s),
                medea.solve.p50, medea.solve.p99, medea.queue_wait.p50, medea.queue_wait.p99);
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace medea::bench

int main() {
  medea::bench::Run();
  return 0;
}
