// Copyright (c) Medea reproduction authors.
// Concurrency stress test for the threaded PlacementService, designed to run
// under ThreadSanitizer (the `tsan` CMake preset / CI job): several client
// threads submit LRAs while task jobs churn, nodes fail and recover, and
// migration cycles run — all racing against the planner workers, the
// committer and the heartbeat thread. A ScopedInvariantAudit independently
// certifies every committed plan and state mutation while the races are in
// flight, and the final state must pass InvariantChecker::CheckState from
// first principles.
// medea-lint: allow-file(raw-sync): deliberate raw std::thread use — client threads
// simulate untrusted external callers that do not go through src/common/sync.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/greedy.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/lra_templates.h"

namespace medea::runtime {
namespace {

std::unique_ptr<LraScheduler> MakeScheduler() {
  SchedulerConfig config;
  config.node_pool_size = 32;
  config.seed = 7;
  return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, config);
}

ServiceConfig StressConfig() {
  ServiceConfig config;
  config.plan_queue_capacity = 2;  // small, so backpressure actually engages
  config.max_attempts = 3;
  config.migration_every_heartbeats = 16;
  return config;
}

// A 32-node cluster and an empty constraint manager over it.
struct Cluster {
  ClusterState state =
      ClusterBuilder().NumNodes(32).NumRacks(4).NumUpgradeDomains(4).NumServiceUnits(4).Build();
  ConstraintManager manager{state.groups_ptr()};
};

void ExpectInvariantsHold(PlacementService& service) {
  const auto manager = service.manager_snapshot();
  service.WithLiveState([&](const ClusterState& state) {
    const auto report = verify::InvariantChecker::CheckState(state, manager.get());
    EXPECT_TRUE(report.ok()) << report.ToString();
  });
}

TEST(RuntimeStressTest, ConcurrentSubmissionsChurnAndFailuresKeepInvariants) {
  // The obs registry and trace ring are hammered by the instrumented runtime
  // threads throughout this test, so the TSan run covers the metrics layer
  // against the exact workload that reports into it.
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  obs::TraceRecorder::Default().Enable(1 << 12);

  verify::ScopedInvariantAudit audit(/*abort_on_violation=*/false);
  Cluster cluster;
  PlacementService service(StressConfig(), cluster.state, cluster.manager);
  service.Start(MakeScheduler);

  constexpr int kSubmitters = 3;
  // Sized so the run drains within the idle timeout even under TSan's
  // ~10-20x slowdown on a single core.
  constexpr int kLrasPerSubmitter = 8;
  std::atomic<int> submitted{0};

  std::vector<std::thread> workers;
  // LRA submitters: template-built apps with real tag constraints.
  for (int s = 0; s < kSubmitters; ++s) {
    workers.emplace_back([&service, &submitted, s] {
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
  // Task churn: short-lived jobs keep the heartbeat allocating (and
  // invalidating LRA snapshots, so the stale-plan path is exercised).
  workers.emplace_back([&service] {
    for (int i = 0; i < 20; ++i) {
      std::vector<TaskRequest> tasks;
      for (int t = 0; t < 6; ++t) {
        tasks.emplace_back(Resource(512, 1), /*duration_ms=*/4 + (i + t) % 7);
      }
      service.SubmitTaskJob(std::move(tasks));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Chaos: nodes fail and recover while placements are being committed.
  workers.emplace_back([&service] {
    for (int i = 0; i < 6; ++i) {
      const NodeId node(static_cast<uint32_t>((i * 5) % 32));
      service.NodeDown(node);
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
      service.NodeUp(node);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Readers: concurrent observation must be clean under TSan too.
  workers.emplace_back([&service] {
    for (int i = 0; i < 40; ++i) {
      (void)service.metrics();
      (void)service.manager_snapshot()->size();
      const ClusterState snapshot = service.AcquireSnapshot()->state;
      (void)snapshot.num_containers();
      service.WithLiveState([](const ClusterState& live) { (void)live.num_containers(); });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& worker : workers) {
    worker.join();
  }

  ASSERT_TRUE(service.WaitIdle(std::chrono::minutes(3)));
  service.Stop();

  const ServiceMetrics metrics = service.metrics();
  EXPECT_GT(metrics.batches, 0);
  EXPECT_GT(metrics.heartbeats, 0);
  EXPECT_GT(metrics.tasks_completed, 0);
  // Every submission is eventually resolved: placed or rejected.
  EXPECT_EQ(metrics.submitted, submitted.load(std::memory_order_relaxed));
  EXPECT_EQ(metrics.lras_placed + metrics.lras_rejected, metrics.submitted);

  // The concurrent audit saw every commit; none may have violated an
  // invariant.
  EXPECT_GT(audit.states_audited(), 0);
  const std::vector<std::string> failures = audit.failures();
  EXPECT_TRUE(failures.empty()) << failures.front();

  // And the final state must be internally consistent from first principles.
  ExpectInvariantsHold(service);

  // The instrumented hot paths actually reported: the service threads left
  // spans in the ring and the commit path counted every placement,
  // failover replacements included.
  EXPECT_GT(obs::MetricsRegistry::Default()
                .CounterNamed("service.plans_committed")
                .value(),
            0);
  EXPECT_EQ(obs::MetricsRegistry::Default().CounterNamed("service.lras_placed").value(),
            metrics.lras_placed + metrics.failover_replacements);
  EXPECT_FALSE(obs::TraceRecorder::Default().Snapshot().empty());
  obs::EnableMetrics(false);
  obs::TraceRecorder::Default().Disable();
}

TEST(RuntimeStressTest, BackpressureBlocksProducerUntilConsumerDrains) {
  PlanQueue queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(PlanEnvelope{}));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(queue.Push(PlanEnvelope{}));  // blocks: queue is full
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  PlanEnvelope envelope;
  ASSERT_TRUE(queue.Pop(&envelope));
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(RuntimeStressTest, CloseUnblocksProducerAndKeepsPendingPoppable) {
  PlanQueue queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(PlanEnvelope{}));
  std::thread producer([&] {
    EXPECT_FALSE(queue.Push(PlanEnvelope{}));  // closed while blocked
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
  PlanEnvelope envelope;
  EXPECT_TRUE(queue.Pop(&envelope));  // pre-close envelope drains
  EXPECT_FALSE(queue.Pop(&envelope));   // closed and empty: no wait
  EXPECT_FALSE(queue.Push(PlanEnvelope{}));
}

TEST(RuntimeStressTest, StopDrainsComputedPlans) {
  // Stop() right behind a burst of submissions: whatever the planners had
  // already pushed into the PlanQueue must still be committed, so every
  // enqueued envelope is counted as committed once Stop() returns.
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  Cluster cluster;
  ServiceConfig config = StressConfig();
  config.num_workers = 3;
  PlacementService service(config, cluster.state, cluster.manager);
  service.Start(MakeScheduler);
  for (int i = 0; i < 24; ++i) {
    const ApplicationId app(static_cast<uint32_t>(1000 + i));
    service.SubmitSpec([&](TagPool& tags) { return MakeGenericLra(app, tags, 2, "drain"); });
  }
  auto& registry = obs::MetricsRegistry::Default();
  for (int spins = 0; spins < 5000 && registry.CounterNamed("runtime.plans_enqueued").value() == 0;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  const auto enqueued = registry.CounterNamed("runtime.plans_enqueued").value();
  EXPECT_GT(enqueued, 0);
  EXPECT_EQ(registry.CounterNamed("service.plans_committed").value(), enqueued);
  const ServiceMetrics metrics = service.metrics();
  EXPECT_GT(metrics.lras_placed + metrics.lras_rejected + metrics.resubmissions, 0);
  ExpectInvariantsHold(service);
  obs::EnableMetrics(false);
}

}  // namespace
}  // namespace medea::runtime
