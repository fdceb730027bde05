// The benchmark's workloads and the §7.1 LRA mix they share.
//
//   bulk  — unconstrained 128-container LRAs through the threaded
//           PlacementService on 10,000 nodes (runtime, cluster, capacity-only
//           scoring);
//   ilp   — the §7.1 mix, two LRAs per Medea-ILP cycle, through
//           PlacementService::RunSynchronous on 1,000 nodes (solver);
//   mixed — the §7.1 mix placed by Medea-TP inside the two-scheduler
//           Simulation while GridMix task jobs run (constraint-aware scoring,
//           ConstraintEvaluator, task scheduler).
//
// See placebench/README.md for the inputs, the operation accounting and
// which per-layer number should move which end-to-end number.

#ifndef PLACEBENCH_SRC_WORKLOADS_H_
#define PLACEBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "src/common/rng.h"
#include "src/workload/lra_templates.h"

namespace placebench {

RunReport RunBulk(const RunOptions& options);
RunReport RunIlp(const RunOptions& options);
RunReport RunMixed(const RunOptions& options);

// --- The §7.1 mix ---------------------------------------------------------------

enum class LraKind { kHBase, kTensorFlow, kStorm, kMemcached };

// Template sizes and shared cardinality limits (the template defaults).
inline constexpr int kHBaseWorkers = 10;
inline constexpr int kTfWorkers = 8;
inline constexpr int kTfParameterServers = 2;
inline constexpr int kStormSupervisors = 5;
inline constexpr int kHBaseWorkersPerNode = 2;
inline constexpr int kTfWorkersPerNode = 4;

// One LRA of the mix: the program's request and constraint texts, plus the
// benchmark's own definition of the same constraints for the recount.
struct MixLra {
  LraKind kind = LraKind::kMemcached;
  medea::LraSpec spec;
  std::vector<ConstraintDef> defs;
};

// Builds an LRA of `kind` for application `app`, interning its tags.
MixLra MakeMixLra(LraKind kind, uint32_t app, medea::TagPool& tags);

// `per_kind` LRAs of each kind in a seeded order.
std::vector<LraKind> ShuffledMix(int per_kind, medea::Rng& rng);

// Deterministic per-round seed derived from the run seed.
uint64_t RoundSeed(uint64_t seed, int round);

// Checks observed facts: capacity, Eq. 4 / up nodes for every LRA, and the
// satisfied-pair recount against the program's own count. Failures go into
// `report`; returns the recounted satisfied pairs.
long long CheckObserved(RunReport& report, const ObservedState& observed,
                        const std::vector<LraExpectation>& lras,
                        const std::vector<ConstraintDef>& defs, long long program_subjects,
                        long long program_satisfied);

// CheckObserved on the final state of a round, against
// ConstraintEvaluator::EvaluateAll (whose time is added to `evaluate_ms`).
long long CheckRound(RunReport& report, const medea::ClusterState& state,
                     const medea::ConstraintManager& manager,
                     const std::vector<LraExpectation>& lras,
                     const std::vector<ConstraintDef>& defs, double* evaluate_ms);

}  // namespace placebench

#endif  // PLACEBENCH_SRC_WORKLOADS_H_
