// medea-lint fixture: MUST produce a lock-order cycle. Worker::Run holds
// Worker::mu_ while store_.Put() takes Store::mu_ (store_ is declared in
// worker.h); Store::Drain nests them the other way round.
#include "worker.h"

namespace medea::lintfix {

void Worker::Run() {
  sync::MutexLock lock(&mu_);
  store_.Put();
}

void Store::Drain(Worker* worker) {
  sync::MutexLock lock(&mu_);
  sync::MutexLock inner(&worker->mu_);
}

}  // namespace medea::lintfix
