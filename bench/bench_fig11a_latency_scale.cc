// Reproduces Figure 11a: LRA scheduling latency vs cluster size (50-5000
// machines), for Medea-ILP, Medea-NC, Medea-TP and J-Kube (§7.5). Each
// measured operation is one scheduling cycle placing a 2-HBase-instance
// batch onto a cluster pre-loaded with LRAs at ~20% of resources.
//
// Built on google-benchmark; each (scheduler, size) pair is a registered
// benchmark with the latency as the reported time.
//
// Paper shape: heuristics cheapest, J-Kube higher ("frequent scoring of
// nodes" — though the paper suggests caching node scores, which this
// implementation does), Medea-ILP the highest but still sub-second at 5000
// nodes.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/schedulers/ilp_scheduler.h"

namespace medea::bench {
namespace {

void RunCase(::benchmark::State& bench_state, const std::string& scheduler_name,
             size_t nodes) {
  // Cluster pre-loaded with constraint-free LRAs at ~20% of resources.
  ClusterState state = ClusterBuilder()
                           .NumNodes(nodes)
                           .NumRacks(10)
                           .NumUpgradeDomains(10)
                           .NumServiceUnits(25)
                           .NodeCapacity(Resource(16 * 1024, 8))
                           .Build();
  ConstraintManager manager(state.groups_ptr());
  Rng rng(7);
  const int lra_containers = static_cast<int>(nodes * 8 / 5);
  for (int i = 0; i < lra_containers; ++i) {
    const NodeId n(static_cast<uint32_t>(rng.NextBounded(nodes)));
    if (state.node(n).CanFit(Resource(2048, 1))) {
      MEDEA_CHECK(state
                      .Allocate(ApplicationId(500000 + static_cast<uint32_t>(i % 100)), n,
                                Resource(2048, 1), {}, true)
                      .ok());
    }
  }

  // The batch: two HBase instances with the §7.1 constraints.
  std::vector<LraSpec> specs;
  specs.push_back(MakeHBaseInstance(ApplicationId(1), manager.tags(), 10));
  specs.push_back(MakeHBaseInstance(ApplicationId(2), manager.tags(), 10));
  PlacementProblem problem;
  problem.state = &state;
  problem.manager = &manager;
  for (LraSpec& spec : specs) {
    MEDEA_CHECK(RegisterLraConstraints(spec, manager).ok());
    problem.lras.push_back(spec.request);
  }

  SchedulerConfig config;
  config.node_pool_size = 64;
  config.candidates_per_container = 16;
  config.x_var_budget = 1600;
  config.ilp_time_limit_seconds = 2.0;
  auto scheduler = MakeScheduler(scheduler_name, config);

  // Each case reads its own samples from the shared obs registry: the
  // schedulers record every Place() into `sched.place_ms.<name>`.
  ResetBenchRegistry();
  for (auto _ : bench_state) {
    const PlacementPlan plan = scheduler->Place(problem);
    ::benchmark::DoNotOptimize(plan.assignments.data());
    bench_state.counters["placed"] = plan.NumPlaced();
    // For the ILP scheduler, surface the warm-started solver's counters so
    // the latency numbers can be read against the LP work behind them.
    if (const auto* ilp = dynamic_cast<const MedeaIlpScheduler*>(scheduler.get())) {
      const auto& mip = ilp->last_stats().mip;
      bench_state.counters["warm_hits"] = mip.warm_start_hits;
      bench_state.counters["cold_restarts"] = mip.cold_restarts;
      bench_state.counters["pivots"] = static_cast<double>(mip.total_pivots);
      bench_state.counters["lp_ms"] = mip.lp_time_seconds * 1e3;
    }
  }
  // Latency distribution as measured by the shared MetricsRegistry, not a
  // bench-private stopwatch (Fig. 11a's headline numbers).
  const auto place = HistogramSnapshot("sched.place_ms." + scheduler->name());
  bench_state.counters["obs_n"] = static_cast<double>(place.count);
  bench_state.counters["obs_p50_ms"] = place.p50;
  bench_state.counters["obs_p99_ms"] = place.p99;
}

void RegisterAll() {
  const char* schedulers[] = {"medea-ilp", "medea-nc", "medea-tp", "j-kube"};
  const size_t sizes[] = {50, 500, 1000, 2500, 5000};
  for (const char* name : schedulers) {
    for (size_t nodes : sizes) {
      const std::string bench_name =
          std::string("Fig11a/") + name + "/nodes:" + std::to_string(nodes);
      ::benchmark::RegisterBenchmark(bench_name.c_str(),
                                     [name, nodes](::benchmark::State& s) {
                                       RunCase(s, name, nodes);
                                     })
          ->Unit(::benchmark::kMillisecond)
          ->Iterations(3);
    }
  }
}

}  // namespace
}  // namespace medea::bench

int main(int argc, char** argv) {
  medea::bench::RegisterAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
