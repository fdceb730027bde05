// Copyright (c) Medea reproduction authors.
// Concurrency stress tests for the epoch/snapshot cluster state and the
// batched placement service, designed to run under ThreadSanitizer (suite
// name SnapshotStateThreadTest matches the tsan preset's "ThreadTest"
// filter). Reader threads continuously acquire snapshots while a writer
// commits allocations/releases and a chaos thread forces failover
// resubmission through NodeDown/NodeUp. No reader may ever observe a torn
// epoch (epoch != epoch_check) or an internally inconsistent state, and an
// invariant auditor independently certifies every commit under the writer
// lock.
// medea-lint: allow-file(raw-sync): deliberate raw std::thread use — reader/chaos
// threads must hit the snapshot path with no extra synchronization the wrappers add.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/epoch_state.h"
#include "src/obs/metrics.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/greedy.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/lra_templates.h"

namespace medea {
namespace {

using runtime::PlacementService;
using runtime::ServiceConfig;
using runtime::ServiceMetrics;

ClusterState SmallCluster(size_t nodes = 16) {
  return ClusterBuilder().NumNodes(nodes).NumRacks(4).NumUpgradeDomains(4).NumServiceUnits(4).Build();
}

// Recomputes aggregate counters of a snapshot from its container records
// and cross-checks them against the node-side accounting. A half-published
// commit (allocation applied to the node but not the container table, or
// vice versa) fails this.
void ExpectInternallyConsistent(const ClusterState& state) {
  size_t containers = 0;
  size_t lra_containers = 0;
  Resource used;
  state.ForEachContainer([&](const ContainerInfo& info) {
    ++containers;
    if (info.long_running) {
      ++lra_containers;
    }
    used += info.resource;
  });
  ASSERT_EQ(containers, state.num_containers());
  ASSERT_EQ(lra_containers, state.num_long_running_containers());
  const Resource node_used = state.TotalUsed();
  ASSERT_EQ(used.memory_mb, node_used.memory_mb);
  ASSERT_EQ(used.vcores, node_used.vcores);
}

TEST(SnapshotStateThreadTest, CowCopyIsolatesSnapshotsFromLaterMutations) {
  ClusterState state = SmallCluster();
  const ApplicationId app(1);
  ASSERT_TRUE(state.Allocate(app, NodeId(0), Resource(1024, 1), {}, true).ok());

  const ClusterState frozen = state;  // snapshot
  const uint64_t frozen_version = frozen.version();

  // Mutations of every shard kind: nodes, containers, app index, tags.
  ASSERT_TRUE(state.Allocate(app, NodeId(1), Resource(2048, 1), {}, true).ok());
  ASSERT_TRUE(state.Allocate(ApplicationId(2), NodeId(0), Resource(512, 1), {}, false).ok());
  state.AddStaticNodeTag(NodeId(2), TagId(7));
  state.SetNodeAvailable(NodeId(3), false);
  ASSERT_TRUE(state.Release(ContainerId(0)).ok());

  // The copy still sees the original world.
  EXPECT_EQ(frozen.version(), frozen_version);
  EXPECT_EQ(frozen.num_containers(), 1u);
  EXPECT_EQ(frozen.num_long_running_containers(), 1u);
  EXPECT_NE(frozen.FindContainer(ContainerId(0)), nullptr);
  EXPECT_EQ(frozen.FindContainer(ContainerId(1)), nullptr);
  EXPECT_TRUE(frozen.node(NodeId(3)).available());
  EXPECT_FALSE(frozen.node(NodeId(2)).HasStaticTag(TagId(7)));
  EXPECT_EQ(frozen.node(NodeId(0)).used().memory_mb, 1024);
  ExpectInternallyConsistent(frozen);

  // And the original moved on.
  EXPECT_GT(state.version(), frozen_version);
  EXPECT_EQ(state.num_containers(), 2u);
  EXPECT_EQ(state.FindContainer(ContainerId(0)), nullptr);
  EXPECT_FALSE(state.node(NodeId(3)).available());
  ExpectInternallyConsistent(state);

  // Mutating the *copy* must not leak back either.
  ClusterState fork = frozen;
  ASSERT_TRUE(fork.Release(ContainerId(0)).ok());
  EXPECT_NE(frozen.FindContainer(ContainerId(0)), nullptr);
}

TEST(SnapshotStateThreadTest, ReadersNeverObserveTornEpochs) {
  EpochClusterState epoch(SmallCluster(24));

  constexpr int kReaders = 3;
  constexpr int kWriterOps = 300;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};

  std::vector<std::thread> threads;
  // Readers: acquire, check the torn-epoch sentinel, verify the snapshot is
  // frozen and internally consistent, and that epochs advance monotonically.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&epoch, &done, &torn] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = epoch.Acquire();
        if (snap->epoch != snap->epoch_check) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        ASSERT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        // Concurrent copies from a shared snapshot must be race-free.
        const ClusterState copy = snap->state;
        ExpectInternallyConsistent(copy);
      }
    });
  }
  // Writer: heartbeat-style commits — allocate a few, release one, toggle a
  // node. Every commit publishes a new epoch while readers are in flight.
  threads.emplace_back([&epoch, &done] {
    std::vector<ContainerId> live;
    for (int i = 0; i < kWriterOps; ++i) {
      epoch.Commit([&](ClusterState& state) {
        const NodeId node(static_cast<uint32_t>(i % state.num_nodes()));
        if (state.node(node).available()) {
          const auto id =
              state.Allocate(ApplicationId(static_cast<uint32_t>(i % 7)), node,
                             Resource(256, 1), {}, (i % 2) == 0);
          if (id.ok()) {
            live.push_back(*id);
          }
        }
        if (live.size() > 40) {
          ASSERT_TRUE(state.Release(live.front()).ok());
          live.erase(live.begin());
        }
      });
    }
    done.store(true, std::memory_order_release);
  });
  // Failover chaos: availability flips commit through the same writer lock.
  threads.emplace_back([&epoch, &done] {
    int i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const NodeId node(static_cast<uint32_t>((i++ * 5) % 24));
      epoch.Commit([&](ClusterState& state) { state.SetNodeAvailable(node, false); });
      epoch.Commit([&](ClusterState& state) { state.SetNodeAvailable(node, true); });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(epoch.epoch(), static_cast<uint64_t>(kWriterOps));
  epoch.WithLive([](const ClusterState& state) {
    const auto report = verify::InvariantChecker::CheckState(state);
    EXPECT_TRUE(report.ok()) << report.ToString();
  });
}

TEST(SnapshotStateThreadTest, AcquiredSnapshotIsFrozenAcrossCommits) {
  EpochClusterState epoch(SmallCluster());
  const auto before = epoch.Acquire();
  const size_t containers_before = before->state.num_containers();
  for (int i = 0; i < 10; ++i) {
    epoch.Commit([&](ClusterState& state) {
      ASSERT_TRUE(
          state.Allocate(ApplicationId(9), NodeId(static_cast<uint32_t>(i % 16)),
                         Resource(512, 1), {}, true)
              .ok());
    });
  }
  EXPECT_EQ(before->state.num_containers(), containers_before);
  EXPECT_EQ(epoch.Acquire()->state.num_containers(), containers_before + 10);
}

TEST(SnapshotStateThreadTest, ServiceStressKeepsInvariantsUnderFailover) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();

  verify::ScopedInvariantAudit audit(/*abort_on_violation=*/false);

  ServiceConfig config;
  config.max_batch = 4;
  config.admission_capacity = 8;  // small, so Submit backpressure engages
  config.num_workers = 3;
  config.plan_queue_capacity = 2;  // small, so PlanQueue backpressure engages
  config.max_attempts = 3;

  ClusterState initial = SmallCluster(32);
  ConstraintManager manager(initial.groups_ptr());
  PlacementService service(config, std::move(initial), std::move(manager));
  service.Start([] {
    SchedulerConfig scheduler_config;
    scheduler_config.node_pool_size = 32;
    scheduler_config.seed = 7;
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, scheduler_config);
  });

  constexpr int kSubmitters = 3;
  constexpr int kLrasPerSubmitter = 8;
  std::atomic<int> submitted{0};

  std::vector<std::thread> threads;
  for (int s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&service, &submitted, s] {
      for (int i = 0; i < kLrasPerSubmitter; ++i) {
        const ApplicationId app(static_cast<uint32_t>(1 + s * 100 + i));
        service.SubmitSpec([&](TagPool& tags) {
          switch (i % 3) {
            case 0:
              return MakeHBaseInstance(app, tags, /*num_workers=*/4);
            case 1:
              return MakeTensorFlowInstance(app, tags, /*num_workers=*/3, /*num_ps=*/1);
            default:
              return MakeGenericLra(app, tags, 3, "svc" + std::to_string(s));
          }
        });
        submitted.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  // Chaos: failover resubmission hammers epoch advancement while planners
  // hold snapshots (their plans go stale and hit the revalidation path).
  threads.emplace_back([&service] {
    for (int i = 0; i < 6; ++i) {
      const NodeId node(static_cast<uint32_t>((i * 5) % 32));
      service.NodeDown(node);
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
      service.NodeUp(node);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Snapshot readers: must never block on commits or observe torn epochs.
  threads.emplace_back([&service] {
    uint64_t last_epoch = 0;
    for (int i = 0; i < 60; ++i) {
      const auto snap = service.AcquireSnapshot();
      ASSERT_EQ(snap->epoch, snap->epoch_check);
      ASSERT_GE(snap->epoch, last_epoch);
      last_epoch = snap->epoch;
      ExpectInternallyConsistent(snap->state);
      (void)service.metrics();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : threads) {
    t.join();
  }

  // Every submission (and every failover resubmission) resolves.
  ASSERT_TRUE(service.WaitIdle(std::chrono::minutes(3)));

  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.submitted, submitted.load(std::memory_order_relaxed));
  EXPECT_GT(metrics.batches, 0);
  // Resolution accounting closes: every submission landed or was rejected.
  EXPECT_GT(metrics.lras_placed, 0);
  EXPECT_EQ(metrics.lras_placed + metrics.lras_rejected, metrics.submitted);

  service.Stop();

  const std::vector<std::string> failures = audit.failures();
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_GT(audit.states_audited(), 0);

  service.WithLiveState([](const ClusterState& state) {
    const auto report = verify::InvariantChecker::CheckState(state);
    EXPECT_TRUE(report.ok()) << report.ToString();
  });

  // The service reported through the shared registry.
  EXPECT_GT(
      obs::MetricsRegistry::Default().CounterNamed("service.plans_committed").value(), 0);
  EXPECT_EQ(obs::MetricsRegistry::Default().CounterNamed("service.requests").value(),
            metrics.submitted);
  obs::EnableMetrics(false);
}

TEST(SnapshotStateThreadTest, BlockingPopDrainsQueueAfterClose) {
  runtime::PlanQueue queue(/*capacity=*/2);
  ASSERT_TRUE(queue.Push(runtime::PlanEnvelope{}));
  ASSERT_TRUE(queue.Push(runtime::PlanEnvelope{}));

  std::atomic<int> popped{0};
  std::thread consumer([&] {
    runtime::PlanEnvelope envelope;
    while (queue.Pop(&envelope)) {
      popped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Close with envelopes still queued: Pop must return both, then false.
  queue.Close();
  consumer.join();
  EXPECT_EQ(popped.load(), 2);

  // After closed-and-empty, Pop returns false immediately.
  runtime::PlanEnvelope envelope;
  EXPECT_FALSE(queue.Pop(&envelope));
}

}  // namespace
}  // namespace medea
