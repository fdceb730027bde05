// Copyright (c) Medea reproduction authors.
// Scheduler-independent placement verification.
//
// Medea's central claim is that its schedulers return *feasible,
// constraint-respecting* placements — but nothing in the scheduling pipeline
// certifies that independently: every scheduler grades its own homework.
// InvariantChecker is the external examiner. It takes a cluster state plus a
// placement plan (or a committed state) and re-derives every hard invariant
// from first principles, sharing no code with the schedulers' own
// feasibility logic:
//
//   * structural plan validity — indices in range, every assignment belongs
//     to an LRA the plan marks placed, no container assigned twice, and
//     all-or-none placement per LRA (Eq. 4);
//   * node validity — assigned nodes exist and are available;
//   * capacity (Eq. 3) — per node, per resource dimension, the plan's added
//     demand fits into the free capacity;
//   * cluster-state accounting — per-node used resources and tag multisets
//     re-derived from the container records, node<->container cross
//     references, LRA counters;
//   * node-group registry consistency — set membership indexes invert the
//     set lists, all node ids in range;
//   * tag constraints (affinity / anti-affinity / cardinality, Eqs. 6-8) —
//     re-evaluated by a second, independent implementation and cross-checked
//     against the shared ConstraintEvaluator, so a bug in either
//     implementation surfaces as a mismatch.
//
// The checker also recomputes an Eq. 1-style objective from scratch, which
// gives differential tests a common currency for comparing plans produced by
// different schedulers.

#ifndef SRC_VERIFY_INVARIANT_CHECKER_H_
#define SRC_VERIFY_INVARIANT_CHECKER_H_

#include <string>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/common/sync/mutex.h"
#include "src/core/constraint_manager.h"
#include "src/schedulers/placement.h"

namespace medea::verify {

enum class InvariantKind {
  kBadIndex,             // assignment indices out of range
  kInvalidNode,          // assigned node does not exist
  kUnavailableNode,      // placement on a down node
  kDuplicateAssignment,  // same container assigned twice (Eq. 2)
  kUnplannedAssignment,  // assignment for an LRA not marked placed
  kPartialPlacement,     // placed LRA missing container assignments (Eq. 4)
  kCapacityExceeded,     // node over capacity in some dimension (Eq. 3)
  kAccountingMismatch,   // state bookkeeping disagrees with container records
  kGroupInconsistency,   // node-group registry membership broken
  kConstraintMismatch,   // independent constraint evaluation disagrees with
                         // the shared ConstraintEvaluator
};

const char* InvariantKindName(InvariantKind kind);

// One violated invariant, with enough context to reproduce it.
struct InvariantViolation {
  InvariantKind kind = InvariantKind::kBadIndex;
  std::string message;
  int lra_index = -1;
  int container_index = -1;
  NodeId node = NodeId::Invalid();

  std::string ToString() const;
};

// Independent re-evaluation of the soft tag constraints.
struct SoftEvaluation {
  int subjects = 0;
  int violated = 0;
  double weighted_extent = 0.0;
};

struct InvariantReport {
  std::vector<InvariantViolation> violations;
  // Filled when a ConstraintManager is available (CheckPlan, or CheckState
  // with a manager).
  SoftEvaluation soft;
  // Eq. 1-style objective recomputed from scratch (CheckPlan only).
  double objective = 0.0;

  bool ok() const { return violations.empty(); }
  // Multi-line report of every violation ("" when ok).
  std::string ToString() const;
};

// Knobs for the recomputed objective; defaults mirror SchedulerConfig.
struct CheckOptions {
  double w1_placement = 1.0;
  double w2_violations = 0.5;
  double w3_fragmentation = 0.25;
  Resource rmin = Resource(2048, 1);
  // Tolerance for cross-checking floating-point extents.
  double tol = 1e-9;
};

class InvariantChecker {
 public:
  // Audits a placement plan against the pre-commit problem: structure,
  // availability, capacity, then applies the plan to a scratch copy of the
  // state and re-checks accounting plus constraint evaluation there. Also
  // recomputes the Eq. 1-style objective of the plan.
  static InvariantReport CheckPlan(const PlacementProblem& problem, const PlacementPlan& plan,
                                   const CheckOptions& options = {});

  // Audits the internal consistency of a (committed) cluster state. With a
  // manager, additionally cross-checks the independent constraint evaluation
  // against ConstraintEvaluator::EvaluateAll.
  static InvariantReport CheckState(const ClusterState& state,
                                    const ConstraintManager* manager = nullptr,
                                    const CheckOptions& options = {});

  // The recomputed Eq. 1-style objective of a plan:
  //   w1/k * placed  -  w2/m * weighted violation extent (post-placement)
  //   + w3/P * sum_n min(1, free_mem/rmin_mem, free_cores/rmin_cores).
  // Identical code evaluates every scheduler's plan, so values are directly
  // comparable across schedulers for the same problem.
  static double PlanObjective(const PlacementProblem& problem, const PlacementPlan& plan,
                              const CheckOptions& options = {});
};

// RAII installer of a PlacementAuditor that runs the InvariantChecker on
// every plan a scheduler produces and on every simulator state mutation.
// With abort_on_violation (the default, debug-assert semantics) the process
// aborts with a full report on the first violation; otherwise failures are
// collected for tests to inspect. Internally synchronized: the placement
// service audits state mutations from its committer, its heartbeat and
// NodeDown/NodeUp callers concurrently.
class ScopedInvariantAudit : public PlacementAuditor {
 public:
  explicit ScopedInvariantAudit(bool abort_on_violation = true,
                                const CheckOptions& options = {});
  ~ScopedInvariantAudit() override;

  ScopedInvariantAudit(const ScopedInvariantAudit&) = delete;
  ScopedInvariantAudit& operator=(const ScopedInvariantAudit&) = delete;

  void OnPlan(const PlacementProblem& problem, const PlacementPlan& plan,
              const std::string& scheduler) override;
  void OnStateMutation(const ClusterState& state, const char* where) override;

  int plans_audited() const {
    sync::MutexLock lock(&mu_);
    return plans_audited_;
  }
  int states_audited() const {
    sync::MutexLock lock(&mu_);
    return states_audited_;
  }
  std::vector<std::string> failures() const {
    sync::MutexLock lock(&mu_);
    return failures_;
  }

 private:
  PlacementAuditor* previous_;
  bool abort_on_violation_;
  CheckOptions options_;
  mutable sync::Mutex mu_;
  int plans_audited_ MEDEA_GUARDED_BY(mu_) = 0;
  int states_audited_ MEDEA_GUARDED_BY(mu_) = 0;
  std::vector<std::string> failures_ MEDEA_GUARDED_BY(mu_);
};

}  // namespace medea::verify

#endif  // SRC_VERIFY_INVARIANT_CHECKER_H_
