// medea-lint fixture (with worker.cc): clean sibling of
// lock_order_header_bad/ — the same header-declared classes, used in one
// order only.
#include "common/sync/mutex.h"

namespace medea::lintfix {

class Worker;

class Store {
 public:
  void Put() {
    sync::MutexLock lock(&mu_);
  }
  void Drain(Worker* worker);

 private:
  sync::Mutex mu_;
};

class Worker {
 public:
  void Run();

  sync::Mutex mu_;

 private:
  Store store_;
};

}  // namespace medea::lintfix
