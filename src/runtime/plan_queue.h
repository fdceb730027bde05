// Copyright (c) Medea reproduction authors.
// Bounded handoff queue between LRA planning and commit (Fig. 4).
//
// Planner workers produce PlanEnvelopes (a batch of LRA requests plus the
// placement plan computed for them against a state snapshot); the
// PlacementService committer consumes them and performs the actual
// allocations. The queue is deliberately small: placement plans go stale as
// the cluster keeps moving, so buffering many of them is useless work — a
// full queue blocks the planners (backpressure) until the committer catches
// up. All synchronization is annotated for Clang Thread Safety Analysis;
// misuse is a compile error on Clang builds.

#ifndef SRC_RUNTIME_PLAN_QUEUE_H_
#define SRC_RUNTIME_PLAN_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/sync/mutex.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/runtime/lra_backlog.h"
#include "src/schedulers/placement.h"

namespace medea::runtime {

using SteadyTime = std::chrono::steady_clock::time_point;

// Fractional milliseconds elapsed since `start`: sub-millisecond placements
// must not round to 0 in the latency histograms.
inline double MsSince(SteadyTime start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// One scheduling cycle's output, in flight from a planner to the committer.
struct PlanEnvelope {
  // The batch the plan was computed for, taken from the LRA backlog with
  // its retry state. The state snapshot the scheduler saw is gone by commit
  // time and the live cluster has moved on — the plan is a *suggestion*
  // (§3.2).
  std::vector<BacklogEntry> taken;
  PlacementPlan plan;
  // The epoch of the snapshot the plan was computed against; a mismatch at
  // commit time counts the envelope as a stale plan.
  uint64_t snapshot_version = 0;
  // Stamped by PlanQueue::Push (only while metrics are enabled) so Pop can
  // report the envelope's queue dwell time (runtime.plan_queue_wait_ms).
  SteadyTime enqueue_time{};
};

class PlanQueue {
 public:
  explicit PlanQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  PlanQueue(const PlanQueue&) = delete;
  PlanQueue& operator=(const PlanQueue&) = delete;

  // Blocks while the queue is full (backpressure on the planners).
  // Returns false — and drops the envelope — once the queue is closed.
  bool Push(PlanEnvelope envelope) MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    while (queue_.size() >= capacity_ && !closed_) {
      not_full_.Wait(&mu_);
    }
    if (closed_) {
      return false;
    }
    if (obs::MetricsEnabled()) {
      envelope.enqueue_time = std::chrono::steady_clock::now();
      obs::SetGauge("runtime.plan_queue_depth", static_cast<double>(queue_.size() + 1));
      obs::Count("runtime.plans_enqueued");
    }
    queue_.push_back(std::move(envelope));
    not_empty_.Signal();
    return true;
  }

  // Blocking pop, used by the committer thread. Waits until an envelope
  // arrives; after Close() it keeps returning the remaining envelopes (so
  // shutdown drains the queue) and returns false only once closed *and*
  // empty.
  bool Pop(PlanEnvelope* envelope) MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    while (queue_.empty() && !closed_) {
      not_empty_.Wait(&mu_);
    }
    if (queue_.empty()) {
      return false;
    }
    *envelope = std::move(queue_.front());
    queue_.pop_front();
    if (obs::MetricsEnabled() &&
        envelope->enqueue_time != SteadyTime{}) {
      obs::Observe("runtime.plan_queue_wait_ms", MsSince(envelope->enqueue_time));
      obs::SetGauge("runtime.plan_queue_depth", static_cast<double>(queue_.size()));
    }
    not_full_.Signal();
    return true;
  }

  // Wakes every blocked producer/consumer; subsequent pushes fail. Pending
  // envelopes remain poppable so shutdown can drain them.
  void Close() MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    closed_ = true;
    not_full_.SignalAll();
    not_empty_.SignalAll();
  }

  size_t size() const MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    return queue_.size();
  }

 private:
  const size_t capacity_;
  mutable sync::Mutex mu_;
  sync::CondVar not_full_;
  sync::CondVar not_empty_;
  std::deque<PlanEnvelope> queue_ MEDEA_GUARDED_BY(mu_);
  bool closed_ MEDEA_GUARDED_BY(mu_) = false;
};

}  // namespace medea::runtime

#endif  // SRC_RUNTIME_PLAN_QUEUE_H_
