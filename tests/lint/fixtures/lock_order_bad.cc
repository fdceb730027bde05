// medea-lint fixture: MUST produce lock-order findings (three distinct
// shapes: a cycle, a documented-order contradiction, and a self-deadlock).
#include "common/sync/mutex.h"

namespace medea::lintfix {

struct Alpha {
  sync::Mutex mu_;
};
struct Beta {
  sync::Mutex mu_;
};

// Together these two functions close the cycle
// Alpha::mu_ -> Beta::mu_ -> Alpha::mu_ (potential deadlock).
void TakesAlphaThenBeta(Alpha* a, Beta* b) {
  sync::MutexLock outer(&a->mu_);
  sync::MutexLock inner(&b->mu_);
}

void TakesBetaThenAlpha(Alpha* a, Beta* b) {
  sync::MutexLock outer(&b->mu_);
  sync::MutexLock inner(&a->mu_);
}

// Contradicts the documented order
// PlacementService::task_mu_ -> EpochClusterState::writer_mu_ even without
// closing a cycle in this file.
struct EpochClusterState {
  sync::Mutex writer_mu_;
};
struct PlacementService {
  sync::Mutex task_mu_;
};

void WrongDocumentedOrder(EpochClusterState* epoch, PlacementService* service) {
  sync::MutexLock w(&epoch->writer_mu_);
  sync::MutexLock t(&service->task_mu_);
}

// sync::Mutex is non-reentrant: re-acquiring a held mutex self-deadlocks.
void SelfDeadlock(Alpha* a) {
  sync::MutexLock first(&a->mu_);
  sync::MutexLock second(&a->mu_);
}

}  // namespace medea::lintfix
