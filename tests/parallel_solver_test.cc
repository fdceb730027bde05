// Copyright (c) Medea reproduction authors.
// The solver's parallel path: component workers of a decomposed solve
// (MipOptions::num_threads with MipOptions::decompose). At every worker
// count, an exact (zero-gap, unlimited-budget) decomposed search must
// certify the same objective as the serial monolithic search. Also covers
// the pool's edge cases: infeasible components, root-integral components,
// budget cutoffs and the worker cap.

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "src/solver/mip.h"
#include "src/solver/model.h"
#include "src/solver/testing/placement_model.h"
#include "src/verify/self_certify.h"

namespace medea::solver {
namespace {

MipOptions ExactOptions(int threads) {
  MipOptions options;
  options.time_limit_seconds = 0.0;  // run to completion
  options.relative_gap = 0.0;
  options.absolute_gap = 1e-9;
  options.certify = true;  // abort on an infeasible incumbent
  options.num_threads = threads;
  options.decompose = threads > 1;
  return options;
}

TEST(ParallelSolverTest, AllThreadCountsCertifyTheSerialObjective) {
  for (const auto& [containers, nodes] : testing::MicroBenchSizes()) {
    for (const uint64_t seed : testing::MicroBenchSeeds()) {
      const Model m = testing::DecomposablePlacementModel(containers, nodes, 2, seed);
      const std::string label = std::to_string(containers) + "x" +
                                std::to_string(nodes) + " seed " +
                                std::to_string(seed);

      const Solution serial = SolveMip(m, ExactOptions(1));
      ASSERT_EQ(serial.status, SolveStatus::kOptimal) << label;

      for (const int threads : {2, 4}) {
        MipStats stats;
        const Solution parallel = SolveMip(m, ExactOptions(threads), &stats);
        ASSERT_EQ(parallel.status, SolveStatus::kOptimal)
            << label << " threads " << threads;
        EXPECT_NEAR(parallel.objective, serial.objective, 1e-6)
            << label << " threads " << threads;
        // Independent re-verification: feasibility, integrality, recomputed
        // objective and incumbent-vs-dual-bound consistency.
        verify::CertifyOptions certify_options;
        certify_options.absolute_gap = 1e-9;
        certify_options.relative_gap = 0.0;
        const verify::CertifyReport report =
            verify::CertifySolution(m, parallel, &stats, certify_options);
        EXPECT_TRUE(report.ok())
            << label << " threads " << threads << ": " << report.ToString();
        // One worker per component, capped by the worker count.
        EXPECT_EQ(stats.threads_used, std::min(threads, stats.components)) << label;
        EXPECT_FALSE(stats.hit_time_limit) << label;
        EXPECT_FALSE(stats.hit_node_limit) << label;
      }
    }
  }
}

TEST(ParallelSolverTest, InfeasibleModelIsProvenInfeasibleInParallel) {
  // Two components; the second is infeasible, which proves the whole model
  // infeasible.
  Model m;
  const VarIndex a = m.AddBinary(1.0, "a");
  const VarIndex b = m.AddBinary(1.0, "b");
  m.AddRow({{a, 1.0}, {b, 1.0}}, RowSense::kLessEqual, 1.0);
  const VarIndex x = m.AddBinary(1.0, "x");
  const VarIndex y = m.AddBinary(1.0, "y");
  m.AddRow({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 3.0);  // max 2
  m.SetMaximize(true);
  MipOptions options = ExactOptions(4);
  options.presolve = false;  // make the component search prove it, not presolve
  const Solution solution = SolveMip(m, options);
  EXPECT_EQ(solution.status, SolveStatus::kInfeasible);
  EXPECT_FALSE(solution.HasSolution());
}

TEST(ParallelSolverTest, RootIntegralModelSolvesWithoutBranching) {
  // Every component's LP relaxation is integral at the root: the workers
  // must settle each without branching.
  Model m;
  const VarIndex x = m.AddBinary(2.0, "x");
  m.AddBinary(1.0, "y");  // unconstrained binary: integral at the root
  m.AddRow({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  m.SetMaximize(true);
  MipOptions options = ExactOptions(4);
  options.presolve = false;  // keep both components for the workers
  MipStats stats;
  const Solution solution = SolveMip(m, options, &stats);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 3.0, 1e-9);
  EXPECT_EQ(stats.components, 2);
  EXPECT_LE(stats.nodes_explored, 1);
}

TEST(ParallelSolverTest, NodeLimitLatchesExactlyOnceAcrossWorkers) {
  // The cap applies to each component's search; any worker exhausting it
  // must surface in the merged statistics.
  const Model m = testing::DecomposablePlacementModel(40, 20, 4, 11);
  MipOptions options = ExactOptions(4);
  options.certify = false;  // a cutoff incumbent need not be optimal
  options.relax_and_round = false;  // every component runs the exact search
  // Root cuts shrink these searches to a couple of nodes; disable them so
  // the trees are deep enough to hit the 2-node budget.
  options.cuts.enable = false;
  options.max_nodes = 2;
  MipStats stats;
  const Solution solution = SolveMip(m, options, &stats);
  EXPECT_TRUE(stats.hit_node_limit);
  EXPECT_FALSE(stats.hit_time_limit);
  // An interrupted search never claims optimality.
  EXPECT_NE(solution.status, SolveStatus::kOptimal);
}

TEST(ParallelSolverTest, TimeLimitProducesAnytimeBehaviour) {
  const Model m = testing::DecomposablePlacementModel(40, 20, 4, 11);
  MipOptions options = ExactOptions(4);
  options.certify = false;
  options.time_limit_seconds = 0.05;
  MipStats stats;
  const Solution solution = SolveMip(m, options, &stats);
  // Either the tiny budget was enough (optimal) or the search was cut off —
  // evidenced by the latched deadline flag or by node LPs clipped to their
  // fair share of the dwindling budget (docs/solver.md "Time limits") — and
  // any returned (stitched) incumbent must still be feasible.
  if (solution.status != SolveStatus::kOptimal) {
    EXPECT_TRUE(stats.hit_time_limit || stats.lp_failures > 0);
  }
  if (solution.HasSolution()) {
    EXPECT_TRUE(m.IsFeasible(solution.values, 1e-5));
  }
}

TEST(ParallelSolverTest, OversizedThreadCountIsClamped) {
  const Model m = testing::DecomposablePlacementModel(20, 10, 5, 3);
  MipOptions options = ExactOptions(1000);
  MipStats stats;
  const Solution solution = SolveMip(m, options, &stats);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_LE(stats.threads_used, 64);
  EXPECT_GT(stats.threads_used, 1);
}

}  // namespace
}  // namespace medea::solver
