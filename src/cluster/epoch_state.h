// Copyright (c) Medea reproduction authors.
// EpochClusterState: epoch-stamped snapshot publication over ClusterState.
//
// Medea's LRA scheduler plans against a *consistent snapshot* of the cluster
// while the heartbeat path keeps committing (§3.2, Fig. 4). This class is
// the concurrency contract that makes that true at scale:
//
//   * Writers (the heartbeat/committer thread) serialize on `writer_mu_`,
//     mutate the private working state in place, then publish an immutable
//     ClusterSnapshot. Publication is a shared_ptr swap under the tiny
//     `publish_mu_` — O(1), never held across a commit.
//   * Readers (LRA planner workers) call Acquire(): one pointer copy under
//     `publish_mu_`. A reader is never blocked by an in-progress commit,
//     no matter how large, and the snapshot it holds can never change
//     underneath it (ClusterState COW guarantees the published shards are
//     frozen — the working state clones before its next mutation).
//
// Epochs advance by exactly one per commit, so `epoch` doubles as the
// staleness currency for plan revalidation: a plan computed against epoch E
// is stale iff the current epoch != E.
//
// Torn-epoch sentinel: ClusterSnapshot stores the epoch twice, before and
// after the state copy in member order. A reader observing
// `epoch != epoch_check` has caught a half-published snapshot — impossible
// under this design, and asserted never to happen by
// tests/snapshot_state_stress_test.cc.

#ifndef SRC_CLUSTER_EPOCH_STATE_H_
#define SRC_CLUSTER_EPOCH_STATE_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/cluster/cluster_state.h"
#include "src/common/sync/mutex.h"

namespace medea {

// An immutable, epoch-stamped view of the cluster. Copying `state` is cheap
// (shard pointers) and safe from any number of threads concurrently: a
// published snapshot owns none of its shards, so copies never write to it.
struct ClusterSnapshot {
  ClusterSnapshot(uint64_t e, const ClusterState& s) : epoch(e), state(s), epoch_check(e) {}

  const uint64_t epoch;
  const ClusterState state;
  // Written after `state` in construction order; always == epoch for a
  // fully published snapshot (see header comment).
  const uint64_t epoch_check;
};

class EpochClusterState {
 public:
  explicit EpochClusterState(ClusterState initial)
      : working_(std::move(initial)),
        current_(std::make_shared<const ClusterSnapshot>(0, working_)) {}

  EpochClusterState(const EpochClusterState&) = delete;
  EpochClusterState& operator=(const EpochClusterState&) = delete;

  // Current snapshot: one shared_ptr copy, never blocked by a commit.
  std::shared_ptr<const ClusterSnapshot> Acquire() const MEDEA_EXCLUDES(publish_mu_) {
    sync::MutexLock lock(&publish_mu_);
    return current_;
  }

  uint64_t epoch() const MEDEA_EXCLUDES(publish_mu_) {
    sync::MutexLock lock(&publish_mu_);
    return current_->epoch;
  }

  // Runs `fn(ClusterState&)` on the working state under the writer lock,
  // then publishes the result as a new snapshot. Returns the new epoch.
  // Commits are serialized; readers are only excluded for the final
  // pointer swap.
  template <typename Fn>
  uint64_t Commit(Fn&& fn) MEDEA_EXCLUDES(writer_mu_, publish_mu_) {
    sync::MutexLock lock(&writer_mu_);
    fn(working_);
    return Publish();
  }

  // Like Commit, for writers that often find nothing to do (a heartbeat
  // with no due work): `fn(ClusterState&)` returns whether it changed the
  // state, and only a change publishes a new epoch. Returns that flag.
  template <typename Fn>
  bool CommitIfChanged(Fn&& fn) MEDEA_EXCLUDES(writer_mu_, publish_mu_) {
    sync::MutexLock lock(&writer_mu_);
    if (!fn(working_)) {
      return false;
    }
    Publish();
    return true;
  }

  // Read-only access to the live working state under the writer lock, for
  // callers that need the latest truth rather than a snapshot (stale-plan
  // revalidation, end-of-run audits).
  template <typename Fn>
  void WithLive(Fn&& fn) const MEDEA_EXCLUDES(writer_mu_) {
    sync::MutexLock lock(&writer_mu_);
    fn(static_cast<const ClusterState&>(working_));
  }

 private:
  uint64_t Publish() MEDEA_REQUIRES(writer_mu_) MEDEA_EXCLUDES(publish_mu_) {
    const uint64_t e = ++epoch_;
    // Copying `working_` transfers shard ownership to the snapshot's frozen
    // copy; the working state clones-on-write before its next mutation.
    auto snap = std::make_shared<const ClusterSnapshot>(e, working_);
    sync::MutexLock lock(&publish_mu_);
    current_ = std::move(snap);
    return e;
  }

  mutable sync::Mutex writer_mu_;
  ClusterState working_ MEDEA_GUARDED_BY(writer_mu_);
  uint64_t epoch_ MEDEA_GUARDED_BY(writer_mu_) = 0;

  mutable sync::Mutex publish_mu_;
  std::shared_ptr<const ClusterSnapshot> current_ MEDEA_GUARDED_BY(publish_mu_);
};

}  // namespace medea

#endif  // SRC_CLUSTER_EPOCH_STATE_H_
