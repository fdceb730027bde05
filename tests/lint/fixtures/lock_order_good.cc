// medea-lint fixture: clean sibling of lock_order_bad.cc — no findings.
// Every function acquires in the same global order (Alpha before Beta,
// PlacementService::task_mu_ before EpochClusterState::writer_mu_ per the
// documented order), and manual Lock/Unlock pairs release before
// re-acquiring.
#include "common/sync/mutex.h"

namespace medea::lintfix {

struct Alpha {
  sync::Mutex mu_;
};
struct Beta {
  sync::Mutex mu_;
};

void TakesAlphaThenBetaA(Alpha* a, Beta* b) {
  sync::MutexLock outer(&a->mu_);
  sync::MutexLock inner(&b->mu_);
}

void TakesAlphaThenBetaB(Alpha* a, Beta* b) {
  sync::MutexLock outer(&a->mu_);
  {
    sync::MutexLock inner(&b->mu_);
  }
}

// Hand-over-hand with manual Lock/Unlock: Beta is never acquired while
// Alpha is held in the reverse direction.
void HandOverHand(Alpha* a, Beta* b) {
  a->mu_.Lock();
  a->mu_.Unlock();
  b->mu_.Lock();
  b->mu_.Unlock();
}

struct EpochClusterState {
  sync::Mutex writer_mu_;
};
struct PlacementService {
  sync::Mutex task_mu_;
};

void RightDocumentedOrder(EpochClusterState* epoch, PlacementService* service) {
  sync::MutexLock t(&service->task_mu_);
  sync::MutexLock w(&epoch->writer_mu_);
}

}  // namespace medea::lintfix
