// medea-lint fixture: clean sibling of lock_order_header_bad/worker.cc — no
// findings. Worker::Run holds Worker::mu_ while store_.Put() takes
// Store::mu_; Store::Drain releases Store::mu_ before taking Worker::mu_.
#include "worker.h"

namespace medea::lintfix {

void Worker::Run() {
  sync::MutexLock lock(&mu_);
  store_.Put();
}

void Store::Drain(Worker* worker) {
  {
    sync::MutexLock lock(&mu_);
  }
  sync::MutexLock inner(&worker->mu_);
}

}  // namespace medea::lintfix
