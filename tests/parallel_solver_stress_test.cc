// Copyright (c) Medea reproduction authors.
// ThreadSanitizer stress test for the solver's threads (the suite name
// matches the tsan preset's "ThreadTest" ctest filter, so this runs under
// TSan in CI). The solver's only threads are the decomposed path's component
// workers (MipOptions::num_threads with MipOptions::decompose). Two pressure
// axes:
//   1. Internal: a single SolveMip call fanning out to component workers,
//      with the obs layer enabled so the per-component spans and counters
//      race against real tracing.
//   2. External: multiple threads each running their own decomposed solve
//      concurrently (the production shape once several scheduler instances
//      share a process), and a decomposing ILP scheduler planning inside the
//      PlacementService next to its committer and task heartbeat threads.
// medea-lint: allow-file(raw-sync): deliberate raw std::thread use — external pressure
// threads here must not inherit the sync wrappers' annotations or extra ordering.

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/solver/mip.h"
#include "src/solver/testing/placement_model.h"
#include "src/workload/lra_templates.h"

namespace medea {
namespace {

solver::MipOptions ParallelExact(int threads) {
  solver::MipOptions options;
  options.time_limit_seconds = 0.0;
  options.relative_gap = 0.0;
  options.absolute_gap = 1e-9;
  options.certify = true;
  options.num_threads = threads;
  options.decompose = threads > 1;
  return options;
}

TEST(ParallelSolverThreadTest, ManyWorkersOneSearchUnderInstrumentation) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  obs::TraceRecorder::Default().Enable(1 << 12);

  const solver::Model m = solver::testing::DecomposablePlacementModel(32, 16, 8, 7);
  const solver::Solution serial = solver::SolveMip(m, ParallelExact(1));
  ASSERT_EQ(serial.status, solver::SolveStatus::kOptimal);

  // 8 component workers on however few cores the machine has: maximum
  // preemption, so TSan sees every interleaving class the pool can produce.
  solver::MipStats stats;
  const solver::Solution parallel = solver::SolveMip(m, ParallelExact(8), &stats);
  ASSERT_EQ(parallel.status, solver::SolveStatus::kOptimal);
  EXPECT_NEAR(parallel.objective, serial.objective, 1e-6);
  EXPECT_EQ(stats.threads_used, 8);

  obs::EnableMetrics(false);
  obs::TraceRecorder::Default().Disable();
}

TEST(ParallelSolverThreadTest, DecomposedComponentsSolveInParallelUnderInstrumentation) {
  // The decomposed path replaces tree-level parallelism with component-level
  // parallelism: a pool of workers pulls components off one atomic counter,
  // each running its own serial sub-search with a private LP engine, while
  // the obs layer records per-component spans. TSan sees the pool spawn,
  // the counter traffic, the per-slot result writes and the join.
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  obs::TraceRecorder::Default().Enable(1 << 12);

  const solver::Model m = solver::testing::DecomposablePlacementModel(20, 10, 5, 3);
  solver::MipStats serial_stats;
  const solver::Solution serial = solver::SolveMip(m, ParallelExact(1), &serial_stats);
  ASSERT_EQ(serial.status, solver::SolveStatus::kOptimal);

  solver::MipOptions options = ParallelExact(8);
  options.relax_round_min_integers = 1;  // exercise the fast lane concurrently
  solver::MipStats stats;
  const solver::Solution dec = solver::SolveMip(m, options, &stats);
  ASSERT_EQ(dec.status, solver::SolveStatus::kOptimal);
  EXPECT_NEAR(dec.objective, serial.objective, 1e-6);
  EXPECT_EQ(stats.components, 5);
  // One worker per component, capped by the component count.
  EXPECT_EQ(stats.threads_used, 5);
  EXPECT_EQ(stats.relax_round_accepted + stats.relax_round_rejected, 5);

  obs::EnableMetrics(false);
  obs::TraceRecorder::Default().Disable();
}

TEST(ParallelSolverThreadTest, DualSimplexRebaseSeedBatchUnderInstrumentation) {
  // Seed batch for the dual-simplex warm-restart path on concurrent
  // component workers: every worker owns a private incremental engine,
  // builds its component's root cuts and strong-branch pseudo-cost tables,
  // and repairs node bounds (node-level reduced-cost fixes included) with
  // dual pivots. TSan watches the per-slot results and the obs traffic
  // against the serial monolithic reference.
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  for (const uint64_t seed : {3ULL, 7ULL, 11ULL, 13ULL}) {
    const solver::Model m = solver::testing::DecomposablePlacementModel(24, 12, 4, seed);
    solver::MipOptions serial_opts = ParallelExact(1);
    serial_opts.cuts.enable = true;  // defaults, pinned for the comparison
    serial_opts.branching = solver::BranchingRule::kPseudoCost;
    const solver::Solution serial = solver::SolveMip(m, serial_opts);
    ASSERT_EQ(serial.status, solver::SolveStatus::kOptimal) << "seed " << seed;

    solver::MipOptions par_opts = ParallelExact(4);
    par_opts.cuts.enable = true;
    par_opts.branching = solver::BranchingRule::kPseudoCost;
    par_opts.node_reduced_cost_fixing = true;
    solver::MipStats stats;
    const solver::Solution parallel = solver::SolveMip(m, par_opts, &stats);
    ASSERT_EQ(parallel.status, solver::SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(parallel.objective, serial.objective, 1e-6) << "seed " << seed;
    EXPECT_EQ(stats.threads_used, 4) << "seed " << seed;
  }
  obs::EnableMetrics(false);
}

TEST(ParallelSolverThreadTest, ConcurrentParallelSolvesDoNotInterfere) {
  // Each caller thread runs its own multi-worker decomposed search; the
  // engines share nothing but the process-wide obs registry. Every search
  // must still certify the serial objective for its own model.
  obs::EnableMetrics(true);
  constexpr int kCallers = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &mismatches] {
      const uint64_t seed = 3 + 2 * static_cast<uint64_t>(c);
      const solver::Model m = solver::testing::DecomposablePlacementModel(10, 6, 2, seed);
      const solver::Solution serial = solver::SolveMip(m, ParallelExact(1));
      const solver::Solution parallel = solver::SolveMip(m, ParallelExact(2));
      if (serial.status != solver::SolveStatus::kOptimal ||
          parallel.status != solver::SolveStatus::kOptimal ||
          std::fabs(serial.objective - parallel.objective) > 1e-6) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  obs::EnableMetrics(false);
}

TEST(ParallelSolverThreadTest, SolverWorkersCoexistWithRuntimeThreads) {
  // The ILP scheduler spins up component workers INSIDE the service's
  // planner thread while the committer commits and the heartbeat allocates
  // task jobs — the exact thread topology of a production deployment
  // (--runtime --solver-decompose --solver-threads N).
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  runtime::ServiceConfig config;
  // One planner, so the first cycle batches all four LRAs.
  config.num_workers = 1;

  SchedulerConfig sched_config;
  sched_config.node_pool_size = 24;
  sched_config.ilp_time_limit_seconds = 0.5;
  sched_config.solver_threads = 2;
  sched_config.solver_decompose = true;
  // One candidate node per container, each a different node: the LRAs of a
  // batch share no rows, so the cycle ILP splits into one component per LRA.
  sched_config.candidates_per_container = 1;
  sched_config.x_var_budget = 1;
  sched_config.seed = 11;

  ClusterState initial =
      ClusterBuilder().NumNodes(24).NumRacks(4).NumUpgradeDomains(4).NumServiceUnits(4).Build();
  ConstraintManager manager(initial.groups_ptr());
  runtime::PlacementService service(config, std::move(initial), std::move(manager));
  // Submitted before Start, so the first cycle batches all four LRAs.
  for (int i = 0; i < 4; ++i) {
    const ApplicationId app(static_cast<uint32_t>(1 + i));
    service.SubmitSpec([&](TagPool& tags) { return MakeGenericLra(app, tags, 3, "par"); });
  }
  // Task churn keeps the heartbeat allocating while the solve runs.
  service.SubmitTaskJob(std::vector<TaskRequest>(16, TaskRequest(Resource(512, 1), 5)));
  service.Start([&] { return std::make_unique<MedeaIlpScheduler>(sched_config); });
  ASSERT_TRUE(service.WaitIdle(std::chrono::minutes(3)));
  service.Stop();
  const runtime::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.lras_placed + metrics.lras_rejected, 4);
  // The batched cycle split into several components, so the worker pool ran.
  EXPECT_GE(obs::MetricsRegistry::Default()
                .HistogramNamed("sched.ilp_batch_components")
                .TakeSnapshot()
                .max_ms,
            2.0);
  obs::EnableMetrics(false);
}

}  // namespace
}  // namespace medea
