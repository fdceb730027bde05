// medea-lint fixture (with worker.cc): a class declared in a header whose
// member functions are defined in a .cc. The lock-order check must resolve
// `store_` from this header to find the edge Worker::mu_ -> Store::mu_.
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
