// bulk: one closed-loop client pushes unconstrained 128-container LRAs
// through the threaded PlacementService (two planner workers running the
// Serial greedy, plus the committer) onto a 10,000-node topology.
//
// Each round starts a fresh service on a copy of the pre-loaded topology
// (copying a ClusterState only copies shard pointers) and submits the
// round's LRAs, blocking on the admission bound, then waits for the
// pipeline to drain. The round's total demand stays well inside capacity,
// so every LRA must be placed.

#include <algorithm>
#include <memory>
#include <set>

#include "src/cluster/epoch_state.h"
#include "src/common/rng.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/greedy.h"
#include "workloads.h"

namespace placebench {
namespace {

using medea::ApplicationId;
using medea::Resource;

struct BulkShape {
  size_t nodes = 10'000;
  int lras_per_round = 1'200;
  // Constrained §7.1 LRAs deployed before the timed phase, one per kind per
  // copy: the shared cluster already runs services with constraints, which
  // the bulk traffic must leave satisfied.
  int preload_per_kind = 2;
};

constexpr int kContainersPerLra = 128;
constexpr Resource kNodeCapacity = Resource(256 * 1024, 128);
// Container shapes a bulk LRA draws from (one shape per LRA).
constexpr Resource kShapes[] = {Resource(1024, 1), Resource(2048, 1), Resource(4096, 2)};
constexpr uint32_t kFirstBulkApp = 1'000;
constexpr double kTailPercentile = 95.0;

medea::runtime::ServiceConfig ServiceConfig() {
  medea::runtime::ServiceConfig config;
  config.max_batch = 16;
  config.admission_capacity = 64;
  config.num_workers = 2;
  config.plan_queue_capacity = 8;
  return config;
}

medea::SchedulerConfig GreedyConfig() {
  medea::SchedulerConfig config;
  config.node_pool_size = 256;
  config.candidates_per_container = 64;
  return config;
}

// The topology with its constrained pre-load, and the shared manager.
struct BulkCluster {
  std::unique_ptr<medea::ClusterState> state;
  std::unique_ptr<medea::ConstraintManager> manager;
  std::vector<LraExpectation> preload;
  std::vector<ConstraintDef> defs;
  medea::TagId bulk_tag;
};

BulkCluster BuildCluster(const BulkShape& shape, uint64_t seed) {
  BulkCluster cluster;
  cluster.state = std::make_unique<medea::ClusterState>(
      medea::ClusterBuilder()
          .NumNodes(shape.nodes)
          .NumRacks(std::max<size_t>(1, shape.nodes / 250))
          .NumUpgradeDomains(20)
          .NumServiceUnits(100)
          .NodeCapacity(kNodeCapacity)
          .Build());
  cluster.manager = std::make_unique<medea::ConstraintManager>(cluster.state->groups_ptr());
  medea::ConstraintManager& manager = *cluster.manager;
  cluster.bulk_tag = manager.tags().Intern("bulk");

  // Pre-load: place the constrained LRAs with Medea-TP, one cycle each.
  cluster.defs = SharedConstraints(kHBaseWorkersPerNode, kTfWorkersPerNode);
  medea::Rng rng(seed);
  const std::vector<LraKind> order = ShuffledMix(shape.preload_per_kind, rng);
  medea::GreedyScheduler tp(medea::GreedyOrdering::kTagPopularity, medea::SchedulerConfig{});
  std::set<std::string> shared;
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t app = static_cast<uint32_t>(i + 1);
    MixLra lra = MakeMixLra(order[i], app, manager.tags());
    for (const std::string& text : lra.spec.shared_constraints) {
      // Each shared rule is registered once, as the recount counts it once.
      if (shared.insert(text).second) {
        MEDEA_CHECK(manager.AddFromText(text, medea::ConstraintOrigin::kOperator).ok());
      }
    }
    for (const std::string& text : lra.spec.app_constraints) {
      MEDEA_CHECK(manager
                      .AddFromText(text, medea::ConstraintOrigin::kApplication,
                                   ApplicationId(app))
                      .ok());
    }
    medea::PlacementProblem problem;
    problem.lras = {lra.spec.request};
    problem.state = cluster.state.get();
    problem.manager = &manager;
    const medea::PlacementPlan plan = tp.Place(problem);
    std::vector<bool> committed;
    medea::CommitPlan(problem, plan, *cluster.state, &committed);
    cluster.preload.push_back(
        LraExpectation{app, lra.spec.request.containers.size(), committed[0]});
    cluster.defs.insert(cluster.defs.end(), lra.defs.begin(), lra.defs.end());
  }
  return cluster;
}

std::vector<medea::LraRequest> RoundRequests(const BulkShape& shape, uint64_t seed,
                                             medea::TagId tag) {
  medea::Rng rng(seed);
  std::vector<medea::LraRequest> requests(static_cast<size_t>(shape.lras_per_round));
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].app = ApplicationId(kFirstBulkApp + static_cast<uint32_t>(i));
    const Resource demand = kShapes[rng.NextBounded(std::size(kShapes))];
    requests[i].containers.assign(kContainersPerLra, medea::ContainerRequest{demand, {tag}});
  }
  return requests;
}

// A started service plus the timing wrappers of its planner workers (owned
// by the service).
struct RunningService {
  std::unique_ptr<medea::runtime::PlacementService> service;
  std::vector<TimedScheduler*> planners;
};

RunningService StartService(const BulkCluster& cluster) {
  RunningService running;
  running.service = std::make_unique<medea::runtime::PlacementService>(
      ServiceConfig(), *cluster.state, *cluster.manager);
  running.service->Start([&running] {
    auto timed = std::make_unique<TimedScheduler>(std::make_unique<medea::GreedyScheduler>(
        medea::GreedyOrdering::kSerial, GreedyConfig()));
    running.planners.push_back(timed.get());
    return timed;
  });
  return running;
}

// Median time of EpochClusterState::Commit of one allocation (alternating
// with its release) against `state`: the copy-on-write clone plus publish.
double PublishMicros(const medea::ClusterState& state) {
  medea::EpochClusterState epoch(state);
  medea::NodeId node = medea::NodeId::Invalid();
  state.ForEachNode([&](const medea::Node& n) {
    if (!node.IsValid() && n.CanFit(Resource(1024, 1))) {
      node = n.id();
    }
  });
  std::vector<double> samples;
  medea::ContainerId container = medea::ContainerId::Invalid();
  for (int i = 0; i < 64 && node.IsValid(); ++i) {
    const Clock::time_point start = Clock::now();
    epoch.Commit([&](medea::ClusterState& live) {
      if (container.IsValid()) {
        MEDEA_CHECK(live.Release(container).ok());
        container = medea::ContainerId::Invalid();
      } else {
        container = *live.Allocate(ApplicationId(1), node, Resource(1024, 1), {}, false);
      }
    });
    samples.push_back(1e6 * SecondsSince(start));
  }
  return Median(samples);
}

}  // namespace

RunReport RunBulk(const RunOptions& options) {
  BulkShape shape;
  if (options.tiny) {
    shape.nodes = 200;
    shape.lras_per_round = 20;
    shape.preload_per_kind = 1;
  }
  RunReport report;

  BulkCluster cluster;
  std::vector<medea::LraRequest> requests;
  RunningService running;
  const auto teardown = [&] {
    running = RunningService{};  // stops the service
    cluster = BulkCluster{};
  };
  const double setup_s = MedianSetupSeconds(teardown, [&] {
    cluster = BuildCluster(shape, options.seed);
    requests = RoundRequests(shape, RoundSeed(options.seed, 0), cluster.bulk_tag);
    running = StartService(cluster);
  });
  for (const LraExpectation& lra : cluster.preload) {
    if (!lra.reported_placed) {
      report.Fail("pre-load LRA " + std::to_string(lra.app) + " was not placed");
    }
  }

  RoundLog rounds(options.seconds);
  std::vector<double> cycle_ms;
  std::vector<double> cycle_cpu_ms;
  std::vector<double> satisfied_per_round;
  double place_ms = 0.0;
  double admission_ms = 0.0;
  double drain_ms = 0.0;
  double evaluate_ms = 0.0;
  long long containers = 0;
  long long submitted = 0;
  long long placed = 0;
  long long rejected = 0;
  long long unresolved = 0;
  medea::runtime::ServiceMetrics totals;
  std::vector<double> publish_us;

  while (rounds.NeedMore()) {
    const int round = rounds.rounds();
    if (round > 0) {
      requests = RoundRequests(shape, RoundSeed(options.seed, round), cluster.bulk_tag);
      running = StartService(cluster);
    }
    const size_t preload_containers = cluster.state->num_long_running_containers();

    const ScopedSpan round_span("bench.round");
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    for (medea::LraRequest& request : requests) {
      const ScopedSpan span("runtime.submit");
      const Clock::time_point submit_start = Clock::now();
      running.service->Submit(std::move(request));
      admission_ms += MsSince(submit_start);
    }
    bool idle = false;
    {
      const ScopedSpan span("runtime.drain");
      const Clock::time_point drain_start = Clock::now();
      idle = running.service->WaitIdle(std::chrono::minutes(2));
      drain_ms += MsSince(drain_start);
    }
    const double timed_s = SecondsSince(start);
    const double cpu_s = ProcessCpuSeconds() - cpu_start;
    const double resident_mb = ResidentMb();

    const medea::runtime::ServiceMetrics m = running.service->metrics();
    running.service->Stop();
    submitted += m.submitted;
    placed += m.lras_placed;
    rejected += m.lras_rejected;
    if (!idle) {
      unresolved += m.submitted - m.lras_placed - m.lras_rejected;
      report.Fail("round " + std::to_string(round) + ": service did not drain");
    }
    totals.batches += m.batches;
    totals.stale_plans += m.stale_plans;
    totals.commit_conflicts += m.commit_conflicts;
    totals.resubmissions += m.resubmissions;
    for (const TimedScheduler* planner : running.planners) {
      cycle_ms.insert(cycle_ms.end(), planner->place_ms().begin(), planner->place_ms().end());
      cycle_cpu_ms.insert(cycle_cpu_ms.end(), planner->place_cpu_ms().begin(),
                          planner->place_cpu_ms().end());
      place_ms += planner->total_place_ms();
    }

    // Demand is inside capacity, so every bulk LRA should be placed. The
    // service reports only counts; when it reports every LRA placed, each
    // must hold all of its containers. Otherwise the shortfall is already
    // counted as failed operations.
    std::vector<LraExpectation> lras = cluster.preload;
    if (idle && m.lras_placed == shape.lras_per_round) {
      for (int i = 0; i < shape.lras_per_round; ++i) {
        lras.push_back(LraExpectation{kFirstBulkApp + static_cast<uint32_t>(i),
                                      static_cast<size_t>(kContainersPerLra), true});
      }
    }
    running.service->WithLiveState([&](const medea::ClusterState& live) {
      const auto committed =
          static_cast<long long>(live.num_long_running_containers() - preload_containers);
      containers += committed;
      rounds.Add(timed_s, cpu_s, committed, resident_mb);
      satisfied_per_round.push_back(static_cast<double>(
          CheckRound(report, live, *running.service->manager_snapshot(), lras, cluster.defs,
                     &evaluate_ms)));
      if (options.trace) {
        publish_us.push_back(PublishMicros(live));
      }
    });
  }

  report.attempted = submitted;
  report.failed = rejected + unresolved;
  SetCommonMetrics(report, setup_s, rounds, cycle_cpu_ms, kTailPercentile);
  AddCycleLedger(report, cycle_ms, cycle_cpu_ms);
  report.Set("satisfied_constraints", Median(satisfied_per_round), "count");
  report.accounting.emplace_back("lras_submitted", static_cast<double>(submitted));
  report.accounting.emplace_back("lras_placed", static_cast<double>(placed));
  report.accounting.emplace_back("lras_rejected", static_cast<double>(rejected));
  report.accounting.emplace_back("lras_unresolved", static_cast<double>(unresolved));

  report.Set("runtime.admission_wait_ms", admission_ms, "ms");
  report.Set("runtime.drain_ms", drain_ms, "ms");
  report.Set("runtime.batches", static_cast<double>(totals.batches), "count");
  report.Set("runtime.stale_plans", static_cast<double>(totals.stale_plans), "count");
  report.Set("runtime.commit_conflicts", static_cast<double>(totals.commit_conflicts), "count");
  report.Set("runtime.resubmissions", static_cast<double>(totals.resubmissions), "count");
  report.Set("schedulers.place_ms", place_ms, "ms");
  report.Set("schedulers.place_us_per_container",
             containers > 0 ? 1e3 * place_ms / static_cast<double>(containers) : 0.0, "us");
  report.Set("core.constraints_registered", static_cast<double>(cluster.manager->size()),
             "count");
  report.Set("core.evaluate_all_ms", evaluate_ms, "ms");
  if (options.trace) {
    report.Set("cluster.publish_us", Median(publish_us), "us");
  }
  return report;
}

}  // namespace placebench
