#include "src/common/strings.h"
#include "src/core/violation.h"
#include "workloads.h"

namespace placebench {

MixLra MakeMixLra(LraKind kind, uint32_t app, medea::TagPool& tags) {
  const medea::ApplicationId id(app);
  MixLra lra;
  lra.kind = kind;
  switch (kind) {
    case LraKind::kHBase:
      lra.spec = medea::MakeHBaseInstance(id, tags, kHBaseWorkers, /*with_constraints=*/true,
                                          kHBaseWorkersPerNode);
      lra.defs = HBaseConstraints(app);
      break;
    case LraKind::kTensorFlow:
      lra.spec = medea::MakeTensorFlowInstance(id, tags, kTfWorkers, kTfParameterServers,
                                               /*with_constraints=*/true, kTfWorkersPerNode);
      lra.defs = TensorFlowConstraints(app);
      break;
    case LraKind::kStorm:
      lra.spec = medea::MakeStormInstance(id, tags, kStormSupervisors, /*with_constraints=*/true);
      lra.defs = StormConstraints(app, kStormSupervisors);
      break;
    case LraKind::kMemcached:
      lra.spec = medea::MakeMemcachedInstance(id, tags);
      break;
  }
  return lra;
}

std::vector<LraKind> ShuffledMix(int per_kind, medea::Rng& rng) {
  std::vector<LraKind> order;
  for (LraKind kind :
       {LraKind::kHBase, LraKind::kTensorFlow, LraKind::kStorm, LraKind::kMemcached}) {
    order.insert(order.end(), static_cast<size_t>(per_kind), kind);
  }
  rng.Shuffle(order);
  return order;
}

uint64_t RoundSeed(uint64_t seed, int round) {
  medea::SplitMix64 mix(seed * 1000003ULL + static_cast<uint64_t>(round));
  return mix.Next();
}

long long CheckObserved(RunReport& report, const ObservedState& observed,
                        const std::vector<LraExpectation>& lras,
                        const std::vector<ConstraintDef>& defs, long long program_subjects,
                        long long program_satisfied) {
  for (const std::string& error : CheckCapacity(observed)) {
    report.Fail(error);
  }
  for (const std::string& error : CheckLras(observed, lras)) {
    report.Fail(error);
  }
  long long subjects = 0;
  const long long satisfied = CountSatisfied(observed, defs, &subjects);
  if (subjects != program_subjects || satisfied != program_satisfied) {
    report.Fail(medea::StrFormat(
        "satisfied pairs: recount %lld of %lld, ConstraintEvaluator %lld of %lld", satisfied,
        subjects, program_satisfied, program_subjects));
  }
  return satisfied;
}

long long CheckRound(RunReport& report, const medea::ClusterState& state,
                     const medea::ConstraintManager& manager,
                     const std::vector<LraExpectation>& lras,
                     const std::vector<ConstraintDef>& defs, double* evaluate_ms) {
  const Clock::time_point start = Clock::now();
  const medea::ViolationReport evaluated = medea::ConstraintEvaluator::EvaluateAll(state, manager);
  *evaluate_ms += MsSince(start);
  return CheckObserved(report, Observe(state, manager.tags()), lras, defs,
                       evaluated.total_subjects,
                       evaluated.total_subjects - evaluated.violated_subjects);
}

}  // namespace placebench
