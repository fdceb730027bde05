// mixed: the two-scheduler design (§3.2) in the deterministic Medea
// simulation. The §7.1 LRA mix arrives over simulated time and is placed by
// Medea-TP every 10 s scheduling interval, while GridMix task jobs flow
// through the task scheduler's 1 s heartbeat on the same 1,000 nodes.
//
// A round is one simulation run to quiescence, driven in steps of one
// scheduling interval; every LRA must be placed and every task allocated
// and finished by the end.

#include <memory>

#include "src/common/rng.h"
#include "src/schedulers/greedy.h"
#include "src/sim/simulation.h"
#include "src/workload/gridmix.h"
#include "workloads.h"

namespace placebench {
namespace {

using medea::Resource;
using medea::SimTimeMs;

constexpr SimTimeMs kIntervalMs = 10'000;

struct MixedShape {
  size_t nodes = 1'000;
  int groups = 6;                      // groups of one LRA per kind, per round
  SimTimeMs horizon_ms = 600'000;      // arrivals spread over 10 simulated minutes
  double task_memory_fraction = 0.25;  // GridMix task memory, of cluster memory
};
constexpr double kTailPercentile = 90.0;

medea::SimConfig SimConfig(const MixedShape& shape) {
  medea::SimConfig config;
  config.num_nodes = shape.nodes;
  config.num_racks = 10;
  config.num_upgrade_domains = 10;
  config.num_service_units = 25;
  config.node_capacity = Resource(16 * 1024, 8);
  config.lra_interval_ms = kIntervalMs;
  config.task_heartbeat_ms = 1'000;
  return config;
}

// One round: a simulation with every arrival scheduled.
struct Round {
  std::unique_ptr<medea::Simulation> sim;
  TimedScheduler* scheduler = nullptr;  // owned by `sim`
  std::vector<MixLra> lras;
  long long tasks = 0;
};

Round MakeRound(const MixedShape& shape, uint64_t seed) {
  Round round;
  auto timed = std::make_unique<TimedScheduler>(std::make_unique<medea::GreedyScheduler>(
      medea::GreedyOrdering::kTagPopularity, medea::SchedulerConfig{}));
  round.scheduler = timed.get();
  round.sim = std::make_unique<medea::Simulation>(SimConfig(shape), std::move(timed));
  medea::Simulation& sim = *round.sim;

  // Each group (one LRA of every kind) arrives in a scheduling interval of
  // its own, so every cycle places one whole group.
  medea::Rng rng(seed);
  std::vector<SimTimeMs> slots(static_cast<size_t>(shape.horizon_ms / kIntervalMs));
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<SimTimeMs>(i) * kIntervalMs;
  }
  rng.Shuffle(slots);
  for (int group = 0; group < shape.groups; ++group) {
    const SimTimeMs arrival =
        slots[static_cast<size_t>(group)] +
        static_cast<SimTimeMs>(rng.NextBounded(static_cast<uint64_t>(kIntervalMs)));
    for (LraKind kind : ShuffledMix(1, rng)) {
      const uint32_t app = static_cast<uint32_t>(round.lras.size() + 1);
      MixLra lra = MakeMixLra(kind, app, sim.manager().tags());
      sim.SubmitLraAt(arrival, lra.spec);
      round.lras.push_back(std::move(lra));
    }
  }
  medea::GridMixGenerator gridmix(medea::GridMixConfig{}, rng.NextU64());
  for (auto& job :
       gridmix.JobsForMemoryFraction(sim.state().TotalCapacity(), shape.task_memory_fraction)) {
    round.tasks += static_cast<long long>(job.size());
    sim.SubmitTaskJobAt(
        static_cast<SimTimeMs>(rng.NextBounded(static_cast<uint64_t>(shape.horizon_ms))),
        std::move(job));
  }
  return round;
}

}  // namespace

RunReport RunMixed(const RunOptions& options) {
  MixedShape shape;
  if (options.tiny) {
    shape.nodes = 100;
    shape.groups = 1;
    shape.horizon_ms = 60'000;
    shape.task_memory_fraction = 0.05;
  }
  RunReport report;

  Round round_inputs;
  const double setup_s =
      MedianSetupSeconds([&] { round_inputs = Round{}; },
                         [&] { round_inputs = MakeRound(shape, RoundSeed(options.seed, 0)); });

  RoundLog rounds(options.seconds);
  std::vector<double> cycle_ms;
  std::vector<double> cycle_cpu_ms;
  std::vector<double> satisfied_per_round;
  double place_ms = 0.0;
  double step_ms = 0.0;
  double evaluate_ms = 0.0;
  long long lra_containers = 0;
  long long lras_submitted = 0;
  long long lras_placed = 0;
  long long lras_rejected = 0;
  long long tasks_submitted = 0;
  long long tasks_allocated = 0;
  long long tasks_unfinished = 0;
  long long resubmissions = 0;
  long long commit_conflicts = 0;
  long long constraints_registered = 0;

  while (rounds.NeedMore()) {
    const int round_index = rounds.rounds();
    if (round_index > 0) {
      round_inputs = MakeRound(shape, RoundSeed(options.seed, round_index));
    }
    medea::Simulation& sim = *round_inputs.sim;
    const long long lras = static_cast<long long>(round_inputs.lras.size());

    const ScopedSpan round_span("bench.round");
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    const auto settled = [&] {
      const medea::SimMetrics& m = sim.metrics();
      return sim.now() >= shape.horizon_ms && sim.task_scheduler().pending_tasks() == 0 &&
             sim.task_scheduler().running_tasks() == 0 &&
             m.lras_placed + m.lras_rejected == lras;
    };
    // Bounded: the last task ends at most 10 simulated minutes after the
    // horizon (the GridMix duration cap).
    const SimTimeMs end_ms = shape.horizon_ms + 3'600'000;
    while (!settled() && sim.now() < end_ms) {
      const ScopedSpan span("sim.step");
      const double place_before = round_inputs.scheduler->total_place_ms();
      const Clock::time_point step_start = Clock::now();
      sim.RunUntil(sim.now() + kIntervalMs);
      step_ms += MsSince(step_start) - (round_inputs.scheduler->total_place_ms() - place_before);
    }
    {
      const ScopedSpan span("sim.step");
      const double place_before = round_inputs.scheduler->total_place_ms();
      const Clock::time_point step_start = Clock::now();
      sim.RunUntilQuiescent();
      step_ms += MsSince(step_start) - (round_inputs.scheduler->total_place_ms() - place_before);
    }
    const double timed_s = SecondsSince(start);
    const double cpu_s = ProcessCpuSeconds() - cpu_start;
    const double resident_mb = ResidentMb();

    const medea::SimMetrics& m = sim.metrics();
    const long long allocated =
        static_cast<long long>(sim.task_scheduler().allocation_latency_ms().Count());
    const long long pending = static_cast<long long>(sim.task_scheduler().pending_tasks());
    const long long unfinished =
        pending + static_cast<long long>(sim.task_scheduler().running_tasks());
    if (allocated + pending != round_inputs.tasks) {
      report.Fail("round " + std::to_string(round_index) + ": " + std::to_string(allocated) +
                  " tasks allocated and " + std::to_string(pending) + " pending of " +
                  std::to_string(round_inputs.tasks) + " submitted");
    }
    lras_submitted += lras;
    lras_placed += m.lras_placed;
    lras_rejected += lras - m.lras_placed;
    tasks_submitted += round_inputs.tasks;
    tasks_allocated += allocated;
    tasks_unfinished += unfinished;
    resubmissions += m.lra_resubmissions;
    commit_conflicts += m.commit_conflicts;
    constraints_registered += static_cast<long long>(sim.manager().size());
    const long long placed_containers =
        static_cast<long long>(sim.state().num_long_running_containers());
    lra_containers += placed_containers;
    rounds.Add(timed_s, cpu_s, placed_containers + allocated, resident_mb);
    cycle_cpu_ms.insert(cycle_cpu_ms.end(), round_inputs.scheduler->place_cpu_ms().begin(),
                        round_inputs.scheduler->place_cpu_ms().end());
    cycle_ms.insert(cycle_ms.end(), round_inputs.scheduler->place_ms().begin(),
                    round_inputs.scheduler->place_ms().end());
    place_ms += round_inputs.scheduler->total_place_ms();

    std::vector<LraExpectation> expectations;
    std::vector<ConstraintDef> defs = SharedConstraints(kHBaseWorkersPerNode, kTfWorkersPerNode);
    for (const MixLra& lra : round_inputs.lras) {
      const medea::ApplicationId app = lra.spec.request.app;
      expectations.push_back(
          LraExpectation{app.value, lra.spec.request.containers.size(), sim.IsPlaced(app)});
      defs.insert(defs.end(), lra.defs.begin(), lra.defs.end());
    }
    satisfied_per_round.push_back(static_cast<double>(
        CheckRound(report, sim.state(), sim.manager(), expectations, defs, &evaluate_ms)));
  }

  report.attempted = lras_submitted + tasks_submitted;
  report.failed = lras_rejected + tasks_unfinished;
  SetCommonMetrics(report, setup_s, rounds, cycle_cpu_ms, kTailPercentile);
  AddCycleLedger(report, cycle_ms, cycle_cpu_ms);
  report.Set("satisfied_constraints", Median(satisfied_per_round), "count");
  report.accounting.emplace_back("lras_submitted", static_cast<double>(lras_submitted));
  report.accounting.emplace_back("lras_placed", static_cast<double>(lras_placed));
  report.accounting.emplace_back("lras_rejected", static_cast<double>(lras_rejected));
  report.accounting.emplace_back("tasks_submitted", static_cast<double>(tasks_submitted));
  report.accounting.emplace_back("tasks_unfinished", static_cast<double>(tasks_unfinished));

  report.Set("schedulers.place_ms", place_ms, "ms");
  report.Set("schedulers.place_us_per_container",
             lra_containers > 0 ? 1e3 * place_ms / static_cast<double>(lra_containers) : 0.0,
             "us");
  report.Set("core.constraints_registered", static_cast<double>(constraints_registered),
             "count");
  report.Set("core.evaluate_all_ms", evaluate_ms, "ms");
  report.Set("sim.step_self_ms", step_ms, "ms");
  report.Set("sim.lra_resubmissions", static_cast<double>(resubmissions), "count");
  report.Set("sim.commit_conflicts", static_cast<double>(commit_conflicts), "count");
  report.Set("tasksched.tasks_allocated", static_cast<double>(tasks_allocated), "count");
  return report;
}

}  // namespace placebench
