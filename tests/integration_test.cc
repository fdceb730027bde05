// Integration tests: the full two-scheduler pipeline end to end, scheduler
// quality comparisons on randomized workloads (property-style), commit
// conflicts and resubmission, and solver warm-start/gap behaviour through
// the scheduler layer.

#include <gtest/gtest.h>

#include <memory>

#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/schedulers/jkube.h"
#include "src/schedulers/yarn.h"
#include "src/sim/simulation.h"
#include "src/workload/gridmix.h"
#include "src/workload/lra_templates.h"

namespace medea {
namespace {

SchedulerConfig TestConfig() {
  SchedulerConfig config;
  config.node_pool_size = 32;
  config.candidates_per_container = 16;
  config.ilp_time_limit_seconds = 2.0;
  return config;
}

// Deploys HBase instances through a scheduler; returns violation fraction.
double DeployAndMeasure(LraScheduler& scheduler, int instances, uint64_t seed) {
  ClusterState state = ClusterBuilder()
                           .NumNodes(40)
                           .NumRacks(5)
                           .NumUpgradeDomains(5)
                           .NumServiceUnits(5)
                           .NodeCapacity(Resource(16 * 1024, 8))
                           .Build();
  ConstraintManager manager(state.groups_ptr());
  Rng rng(seed);
  for (int i = 0; i < instances; ++i) {
    LraSpec spec =
        MakeHBaseInstance(ApplicationId(static_cast<uint32_t>(i + 1)), manager.tags(), 6);
    EXPECT_TRUE(RegisterLraConstraints(spec, manager).ok());
    PlacementProblem problem;
    problem.lras = {spec.request};
    problem.state = &state;
    problem.manager = &manager;
    const auto plan = scheduler.Place(problem);
    CommitPlan(problem, plan, state);
  }
  return ConstraintEvaluator::EvaluateAll(state, manager).ViolationFraction();
}

TEST(IntegrationTest, IlpNoWorseThanYarnOnViolations) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SchedulerConfig config = TestConfig();
    config.seed = seed;
    MedeaIlpScheduler ilp(config);
    YarnScheduler yarn(config);
    const double ilp_violations = DeployAndMeasure(ilp, 6, seed);
    const double yarn_violations = DeployAndMeasure(yarn, 6, seed);
    EXPECT_LE(ilp_violations, yarn_violations + 1e-9) << "seed " << seed;
  }
}

TEST(IntegrationTest, IlpNearZeroViolationsModerateLoad) {
  MedeaIlpScheduler ilp(TestConfig());
  EXPECT_LE(DeployAndMeasure(ilp, 6, 42), 0.05);
}

TEST(IntegrationTest, GreedyPlansAreCapacityValid) {
  // Property: greedy plans never over-subscribe a node, across random
  // demand mixes.
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    ClusterState state = ClusterBuilder()
                             .NumNodes(8)
                             .NumRacks(2)
                             .NumUpgradeDomains(2)
                             .NumServiceUnits(2)
                             .NodeCapacity(Resource(8 * 1024, 4))
                             .Build();
    ConstraintManager manager(state.groups_ptr());
    PlacementProblem problem;
    std::vector<LraRequest> lras;
    for (uint32_t a = 0; a < 3; ++a) {
      LraRequest lra;
      lra.app = ApplicationId(a + 1);
      const int n = static_cast<int>(rng.NextInt(1, 6));
      for (int c = 0; c < n; ++c) {
        lra.containers.push_back(ContainerRequest{
            Resource(rng.NextInt(512, 4096), static_cast<int32_t>(rng.NextInt(1, 2))),
            manager.tags().InternAll({"w"})});
      }
      lras.push_back(std::move(lra));
    }
    problem.lras = lras;
    problem.state = &state;
    problem.manager = &manager;
    GreedyScheduler greedy(GreedyOrdering::kSerial, TestConfig());
    const auto plan = greedy.Place(problem);
    // Committing must succeed: the plan respected capacities.
    EXPECT_TRUE(CommitPlan(problem, plan, state)) << "trial " << trial;
  }
}

TEST(IntegrationTest, CommitConflictTriggersResubmission) {
  // Force a §5.4 placement conflict: the LRA plan is computed, then task
  // containers grab the resources before commit. The simulator must
  // resubmit and eventually place the LRA.
  SimConfig config;
  config.num_nodes = 4;
  config.num_racks = 2;
  config.num_upgrade_domains = 2;
  config.num_service_units = 2;
  config.node_capacity = Resource(4 * 1024, 4);
  config.max_lra_attempts = 5;

  // A scheduler wrapper that plans against a stale snapshot: it plans, then
  // the test fills the cluster between plan and commit by submitting tasks
  // with an earlier timestamp... simpler: plan onto node 0 always.
  class PinnedScheduler : public LraScheduler {
   public:
    PlacementPlan Place(const PlacementProblem& problem) override {
      PlacementPlan plan;
      plan.lra_placed.assign(problem.lras.size(), true);
      for (size_t i = 0; i < problem.lras.size(); ++i) {
        for (size_t j = 0; j < problem.lras[i].containers.size(); ++j) {
          // Attempt 1 goes to the (soon to be full) node 0; later attempts
          // spread by attempt count.
          plan.assignments.push_back(
              {static_cast<int>(i), static_cast<int>(j),
               NodeId(static_cast<uint32_t>((attempt_ + j) % 4))});
        }
      }
      ++attempt_;
      return plan;
    }
    std::string name() const override { return "pinned"; }

   private:
    uint32_t attempt_ = 0;
  };

  Simulation sim(config, std::make_unique<PinnedScheduler>());
  // Fill node 0 completely with a long task before the LRA cycle fires.
  sim.SubmitTaskJobAt(0, {TaskRequest{Resource(4 * 1024, 4), 600000}});
  sim.SubmitLraAt(100, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 2, "svc",
                                      Resource(2048, 2)));
  sim.RunUntilQuiescent();
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
  EXPECT_GE(sim.metrics().commit_conflicts, 1);
  EXPECT_GE(sim.metrics().lra_resubmissions, 1);
}

TEST(IntegrationTest, FullPipelineWithAllSchedulers) {
  // Smoke: every scheduler drives the simulator end to end with a mixed
  // workload and leaves consistent state.
  const char* names[] = {"ilp", "nc", "tp", "serial", "jkube", "jkubepp", "yarn"};
  for (const char* name : names) {
    SimConfig config;
    config.num_nodes = 24;
    config.num_racks = 4;
    config.num_upgrade_domains = 4;
    config.num_service_units = 4;
    std::unique_ptr<LraScheduler> scheduler;
    const std::string which = name;
    SchedulerConfig sc = TestConfig();
    if (which == "ilp") {
      scheduler = std::make_unique<MedeaIlpScheduler>(sc);
    } else if (which == "nc") {
      scheduler = std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, sc);
    } else if (which == "tp") {
      scheduler = std::make_unique<GreedyScheduler>(GreedyOrdering::kTagPopularity, sc);
    } else if (which == "serial") {
      scheduler = std::make_unique<GreedyScheduler>(GreedyOrdering::kSerial, sc);
    } else if (which == "jkube") {
      scheduler = std::make_unique<JKubeScheduler>(false, sc);
    } else if (which == "jkubepp") {
      scheduler = std::make_unique<JKubeScheduler>(true, sc);
    } else {
      scheduler = std::make_unique<YarnScheduler>(sc);
    }
    Simulation sim(config, std::move(scheduler));
    GridMixGenerator gridmix(GridMixConfig{}, 3);
    sim.SubmitTaskJobAt(0, gridmix.NextJob());
    sim.SubmitLraAt(0, MakeHBaseInstance(ApplicationId(1), sim.manager().tags(), 4));
    sim.SubmitLraAt(5000, MakeTensorFlowInstance(ApplicationId(2), sim.manager().tags(), 4, 1));
    sim.RunUntil(60000);
    EXPECT_TRUE(sim.IsPlaced(ApplicationId(1))) << name;
    EXPECT_TRUE(sim.IsPlaced(ApplicationId(2))) << name;
    // Consistency: used resources equal the sum of container demands.
    Resource sum;
    sim.state().ForEachContainer([&](const ContainerInfo& info) { sum += info.resource; });
    EXPECT_EQ(sum, sim.state().TotalUsed()) << name;
  }
}

TEST(IntegrationTest, IlpWarmStartNeverWorseThanGreedyAlone) {
  // Property: the ILP (which seeds from the Serial greedy) must never end
  // with more weighted violations than the greedy it started from.
  for (uint64_t seed : {11u, 12u, 13u}) {
    SchedulerConfig config = TestConfig();
    config.seed = seed;
    MedeaIlpScheduler ilp(config);
    GreedyScheduler greedy(GreedyOrdering::kSerial, config, /*impact_aware=*/true);
    const double ilp_v = DeployAndMeasure(ilp, 5, seed);
    const double greedy_v = DeployAndMeasure(greedy, 5, seed);
    EXPECT_LE(ilp_v, greedy_v + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace medea
