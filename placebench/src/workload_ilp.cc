// ilp: the §7.1 LRA mix placed by Medea-ILP, two LRAs per cycle, through
// PlacementService::RunSynchronous on a 1,000-node cluster pre-loaded to
// ~20% with constraint-free containers (the Fig. 11a setting: pool 64,
// 16 candidates per container, 1,600 X-variables, a serial solver with
// default settings).
//
// Every cycle pairs a large LRA (HBase or TensorFlow) with a small one
// (Storm or Memcached). A round is three cycles in a fixed order,
// HBase+Storm, TensorFlow+Storm, TensorFlow+Memcached, on its own seeded
// pre-load. Solve times differ several-fold between pairings and with what
// the round placed before, and some pairings are bimodal; with a seeded
// order the median cycle sat on a gap between modes and moved 17-25 ms from
// seed to seed, with the fixed order it stays within 2%. Pairs of two HBase
// instances are left out because on some seeds one of them does not close
// its gap within 30 s (see CHANGES.md).
//
// Each cycle registers the pair's application constraints (WithManager),
// submits the two LRAs and runs one synchronous batch. The solve budget is
// one no solve of this shape reaches; a solve that does reach it, or ends
// without a solution, has a plan that depends on machine speed, and its
// LRAs count as failed operations.

#include <memory>
#include <set>
#include <utility>

#include "src/core/constraint_parser.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/ilp_scheduler.h"
#include "workloads.h"

namespace placebench {
namespace {

using medea::ApplicationId;
using medea::Resource;

constexpr size_t kNodes = 1'000;
constexpr double kTimeLimitSeconds = 30.0;
constexpr double kTailPercentile = 95.0;
constexpr uint32_t kPreloadApp = 500'000;
constexpr Resource kPreloadDemand = Resource(2048, 1);

medea::SchedulerConfig IlpConfig() {
  medea::SchedulerConfig config;
  config.node_pool_size = 64;
  config.candidates_per_container = 16;
  config.x_var_budget = 1600;
  config.ilp_time_limit_seconds = kTimeLimitSeconds;
  config.solver_threads = 1;
  return config;
}

medea::ClusterState Topology(size_t nodes) {
  return medea::ClusterBuilder()
      .NumNodes(nodes)
      .NumRacks(10)
      .NumUpgradeDomains(10)
      .NumServiceUnits(25)
      .NodeCapacity(Resource(16 * 1024, 8))
      .Build();
}

// A copy of `topology` with ~20% of its cores taken by constraint-free
// <2 GB, 1 core> LRA containers on seeded random nodes.
medea::ClusterState Preloaded(const medea::ClusterState& topology, uint64_t seed) {
  medea::ClusterState state = topology;
  medea::Rng rng(seed);
  const size_t nodes = state.num_nodes();
  for (size_t i = 0; i < nodes * 8 / 5; ++i) {
    const medea::NodeId n(static_cast<uint32_t>(rng.NextBounded(nodes)));
    if (state.node(n).CanFit(kPreloadDemand)) {
      MEDEA_CHECK(state
                      .Allocate(ApplicationId(kPreloadApp + static_cast<uint32_t>(i % 100)), n,
                                kPreloadDemand, {}, true)
                      .ok());
    }
  }
  return state;
}

// One round: its pre-loaded cluster, the LRAs in cycle order (pairs at
// positions 2i, 2i+1) and their parsed application constraints.
struct Round {
  std::unique_ptr<medea::ClusterState> preloaded;
  std::vector<MixLra> lras;
  std::vector<std::vector<medea::PlacementConstraint>> app_constraints;
};

Round MakeRound(const medea::ClusterState& topology, uint64_t seed, uint32_t first_app,
                medea::TagPool& tags) {
  Round round;
  round.preloaded = std::make_unique<medea::ClusterState>(Preloaded(topology, seed));
  constexpr std::pair<LraKind, LraKind> kPairs[] = {{LraKind::kHBase, LraKind::kStorm},
                                                    {LraKind::kTensorFlow, LraKind::kStorm},
                                                    {LraKind::kTensorFlow, LraKind::kMemcached}};
  for (const auto& [large, small] : kPairs) {
    for (LraKind kind : {large, small}) {
      const uint32_t app = first_app + static_cast<uint32_t>(round.lras.size());
      round.lras.push_back(MakeMixLra(kind, app, tags));
      std::vector<medea::PlacementConstraint> parsed;
      for (const std::string& text : round.lras.back().spec.app_constraints) {
        auto constraint = medea::ParseConstraint(text, tags);
        MEDEA_CHECK(constraint.ok());
        constraint->origin = medea::ConstraintOrigin::kApplication;
        constraint->owner = ApplicationId(app);
        parsed.push_back(std::move(*constraint));
      }
      round.app_constraints.push_back(std::move(parsed));
    }
  }
  return round;
}

}  // namespace

RunReport RunIlp(const RunOptions& options) {
  const size_t nodes = options.tiny ? 100 : kNodes;
  RunReport report;

  std::unique_ptr<medea::ClusterState> topology;
  std::unique_ptr<medea::ConstraintManager> base_manager;
  std::unique_ptr<medea::runtime::PlacementService> service;
  Round round_inputs;
  const auto first_app = [](int round) { return static_cast<uint32_t>(1 + 1000 * round); };
  medea::runtime::ServiceConfig service_config;
  service_config.max_batch = 2;
  const auto teardown = [&] {
    service.reset();
    round_inputs = Round{};
    base_manager.reset();
    topology.reset();
  };
  const double setup_s = MedianSetupSeconds(teardown, [&] {
    topology = std::make_unique<medea::ClusterState>(Topology(nodes));
    base_manager = std::make_unique<medea::ConstraintManager>(topology->groups_ptr());
    for (const std::string& text :
         {medea::MakeHBaseInstance(ApplicationId(1), base_manager->tags(), kHBaseWorkers, true,
                                   kHBaseWorkersPerNode)
              .shared_constraints[0],
          medea::MakeTensorFlowInstance(ApplicationId(1), base_manager->tags(), kTfWorkers,
                                        kTfParameterServers, true, kTfWorkersPerNode)
              .shared_constraints[0]}) {
      MEDEA_CHECK(base_manager->AddFromText(text, medea::ConstraintOrigin::kOperator).ok());
    }
    round_inputs =
        MakeRound(*topology, RoundSeed(options.seed, 0), first_app(0), base_manager->tags());
    service = std::make_unique<medea::runtime::PlacementService>(
        service_config, *round_inputs.preloaded, *base_manager);
  });

  TimedScheduler scheduler(std::make_unique<medea::MedeaIlpScheduler>(IlpConfig()));
  RoundLog rounds(options.seconds);
  std::vector<double> satisfied_per_round;
  double manager_ms = 0.0;
  double synchronous_ms = 0.0;
  double evaluate_ms = 0.0;
  long long containers = 0;
  long long submitted = 0;
  long long placed = 0;
  long long rejected = 0;
  long long failed = 0;
  long long constraints_registered = 0;
  medea::runtime::ServiceMetrics totals;

  while (rounds.NeedMore()) {
    const int round = rounds.rounds();
    if (round > 0) {
      round_inputs = MakeRound(*topology, RoundSeed(options.seed, round), first_app(round),
                               base_manager->tags());
      service = std::make_unique<medea::runtime::PlacementService>(
          service_config, *round_inputs.preloaded, *base_manager);
    }
    const std::vector<MixLra>& lras = round_inputs.lras;
    std::set<uint32_t> committed_apps;
    std::set<uint32_t> failed_apps;

    const ScopedSpan round_span("bench.round");
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i + 1 < lras.size(); i += 2) {
      {
        const ScopedSpan span("runtime.manager_update");
        const Clock::time_point update_start = Clock::now();
        service->WithManager([&](medea::ConstraintManager& manager) {
          for (size_t k = i; k < i + 2; ++k) {
            for (const medea::PlacementConstraint& c : round_inputs.app_constraints[k]) {
              MEDEA_CHECK(manager.Add(c).ok());
            }
          }
        });
        manager_ms += MsSince(update_start);
      }
      const ScopedSpan span("runtime.run_synchronous");
      service->Submit(lras[i].spec.request);
      service->Submit(lras[i + 1].spec.request);
      const long long failed_before = scheduler.solver().failed;
      const Clock::time_point sync_start = Clock::now();
      const std::vector<medea::runtime::BatchOutcome> outcomes =
          service->RunSynchronous(scheduler);
      synchronous_ms += MsSince(sync_start);
      for (const medea::runtime::BatchOutcome& outcome : outcomes) {
        for (size_t k = 0; k < outcome.lras.size(); ++k) {
          if (k < outcome.committed.size() && outcome.committed[k]) {
            committed_apps.insert(outcome.lras[k].app.value);
          }
        }
      }
      if (scheduler.solver().failed > failed_before) {
        // The pair's plan depends on machine speed.
        failed_apps.insert(lras[i].spec.request.app.value);
        failed_apps.insert(lras[i + 1].spec.request.app.value);
      }
    }
    const double timed_s = SecondsSince(start);
    const double cpu_s = ProcessCpuSeconds() - cpu_start;
    const double resident_mb = ResidentMb();

    const medea::runtime::ServiceMetrics m = service->metrics();
    submitted += m.submitted;
    placed += m.lras_placed;
    rejected += m.lras_rejected;
    totals.batches += m.batches;
    totals.commit_conflicts += m.commit_conflicts;
    totals.resubmissions += m.resubmissions;
    totals.stale_plans += m.stale_plans;
    for (const auto& constraints : round_inputs.app_constraints) {
      constraints_registered += static_cast<long long>(constraints.size());
    }

    std::vector<LraExpectation> expectations;
    std::vector<ConstraintDef> defs = SharedConstraints(kHBaseWorkersPerNode, kTfWorkersPerNode);
    for (const MixLra& lra : lras) {
      const uint32_t app = lra.spec.request.app.value;
      const bool committed = committed_apps.count(app) > 0;
      expectations.push_back(
          LraExpectation{app, lra.spec.request.containers.size(), committed});
      if (!committed) {
        failed_apps.insert(app);
      }
      defs.insert(defs.end(), lra.defs.begin(), lra.defs.end());
    }
    failed += static_cast<long long>(failed_apps.size());
    service->WithLiveState([&](const medea::ClusterState& live) {
      const auto committed =
          static_cast<long long>(live.num_long_running_containers() -
                                 round_inputs.preloaded->num_long_running_containers());
      containers += committed;
      rounds.Add(timed_s, cpu_s, committed, resident_mb);
      satisfied_per_round.push_back(static_cast<double>(CheckRound(
          report, live, *service->manager_snapshot(), expectations, defs, &evaluate_ms)));
    });
  }

  const SolverTotals& solver = scheduler.solver();
  const double place_ms = scheduler.total_place_ms();
  report.attempted = submitted;
  report.failed = failed;
  SetCommonMetrics(report, setup_s, rounds, scheduler.place_cpu_ms(), kTailPercentile);
  AddCycleLedger(report, scheduler.place_ms(), scheduler.place_cpu_ms());
  report.Set("satisfied_constraints", Median(satisfied_per_round), "count");
  report.accounting.emplace_back("lras_submitted", static_cast<double>(submitted));
  report.accounting.emplace_back("lras_placed", static_cast<double>(placed));
  report.accounting.emplace_back("lras_rejected", static_cast<double>(rejected));
  report.accounting.emplace_back("ilp_solves", static_cast<double>(solver.solves));
  report.accounting.emplace_back("ilp_time_limit", static_cast<double>(solver.time_limit_hits));
  report.accounting.emplace_back("ilp_no_solution", static_cast<double>(solver.no_solution));
  report.accounting.emplace_back("ilp_max_solve_ms", Percentile(scheduler.place_ms(), 100.0));

  report.Set("runtime.commit_ms", synchronous_ms - place_ms, "ms");
  report.Set("runtime.manager_update_ms", manager_ms, "ms");
  report.Set("runtime.batches", static_cast<double>(totals.batches), "count");
  report.Set("runtime.stale_plans", static_cast<double>(totals.stale_plans), "count");
  report.Set("runtime.commit_conflicts", static_cast<double>(totals.commit_conflicts), "count");
  report.Set("runtime.resubmissions", static_cast<double>(totals.resubmissions), "count");
  report.Set("schedulers.place_ms", place_ms, "ms");
  report.Set("schedulers.place_us_per_container",
             containers > 0 ? 1e3 * place_ms / static_cast<double>(containers) : 0.0, "us");
  SetSolverMetrics(report, solver, place_ms);
  report.Set("core.constraints_registered", static_cast<double>(constraints_registered),
             "count");
  report.Set("core.evaluate_all_ms", evaluate_ms, "ms");
  return report;
}

}  // namespace placebench
