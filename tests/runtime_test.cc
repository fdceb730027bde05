// Copyright (c) Medea reproduction authors.
// Functional tests for the concurrent PlacementService (src/runtime) in its
// threaded mode: LRAs are placed with their constraints registered, task
// jobs run to completion on the heartbeat tier, node failures evict tasks
// and trigger failover resubmission, operator constraints are deduplicated,
// and the heartbeat stays idle without task work. Also the RuntimeDriver
// replay and the synchronous drain's latency metric. The heavy concurrency
// torture lives in runtime_stress_test.cc; these tests assert functional
// behavior with deterministic workloads.

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/greedy.h"
#include "src/sim/runtime_driver.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/lra_templates.h"

namespace medea::runtime {
namespace {

std::unique_ptr<LraScheduler> MakeScheduler() {
  SchedulerConfig config;
  config.node_pool_size = 24;
  config.seed = 11;
  return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, config);
}

ClusterState SmallCluster() {
  return ClusterBuilder().NumNodes(24).NumRacks(4).NumUpgradeDomains(4).NumServiceUnits(4).Build();
}

// A started service on SmallCluster() with an empty constraint manager.
class ServiceFixture {
 public:
  ServiceFixture() : ServiceFixture(SmallCluster()) {}
  PlacementService& operator*() { return service_; }
  PlacementService* operator->() { return &service_; }

 private:
  explicit ServiceFixture(const ClusterState& initial)
      : service_(ServiceConfig{}, initial, ConstraintManager(initial.groups_ptr())) {
    service_.Start(MakeScheduler);
  }
  PlacementService service_;
};

size_t TaskContainers(const ClusterState& state) {
  return state.num_containers() - state.num_long_running_containers();
}

void ExpectInvariantsHold(PlacementService& service) {
  const auto manager = service.manager_snapshot();
  service.WithLiveState([&](const ClusterState& state) {
    const auto report = verify::InvariantChecker::CheckState(state, manager.get());
    EXPECT_TRUE(report.ok()) << report.ToString();
  });
}

TEST(ServiceRuntimeTest, PlacesSubmittedLras) {
  ServiceFixture service;
  for (uint32_t i = 1; i <= 3; ++i) {
    const ApplicationId app(i);
    service->SubmitSpec(
        [&](TagPool& tags) { return MakeHBaseInstance(app, tags, /*num_workers=*/4); });
  }
  ASSERT_TRUE(service->WaitIdle(std::chrono::seconds(10)));
  service->Stop();

  const ServiceMetrics metrics = service->metrics();
  EXPECT_EQ(metrics.lras_placed, 3);
  EXPECT_EQ(metrics.lras_rejected, 0);
  EXPECT_GT(service->manager_snapshot()->size(), 0u);
  service->WithLiveState([](const ClusterState& state) {
    // 4 workers + master + thrift + secondary master per HBase instance.
    EXPECT_EQ(state.num_long_running_containers(), 3u * 7u);
  });
  ExpectInvariantsHold(*service);
}

TEST(ServiceRuntimeTest, TaskJobsRunToCompletion) {
  ServiceFixture service;
  std::vector<TaskRequest> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back(Resource(1024, 1), /*duration_ms=*/5);
  }
  service->SubmitTaskJob(std::move(tasks));
  // Tasks take ~5 ms each and the cluster fits all eight at once.
  for (int spins = 0; spins < 500 && service->metrics().tasks_completed < 8; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  service->Stop();
  EXPECT_EQ(service->metrics().tasks_completed, 8);
  EXPECT_GT(service->metrics().heartbeats, 0);
  service->WithLiveState([](const ClusterState& state) { EXPECT_EQ(TaskContainers(state), 0u); });
}

TEST(ServiceRuntimeTest, NodeDownTriggersFailoverReplacement) {
  ServiceFixture service;
  const ApplicationId app(42);
  service->SubmitSpec([&](TagPool& tags) { return MakeGenericLra(app, tags, 4, "failover-svc"); });
  ASSERT_TRUE(service->WaitIdle(std::chrono::seconds(10)));

  // Find a node hosting one of the app's containers and fail it.
  NodeId victim = NodeId::Invalid();
  service->WithLiveState([&](const ClusterState& state) {
    for (ContainerId c : state.ContainersOf(app)) {
      victim = state.FindContainer(c)->node;
      break;
    }
  });
  ASSERT_TRUE(victim.IsValid());
  service->NodeDown(victim);
  ASSERT_TRUE(service->WaitIdle(std::chrono::seconds(10)));
  service->Stop();

  const ServiceMetrics metrics = service->metrics();
  EXPECT_GT(metrics.lra_containers_lost, 0);
  EXPECT_GT(metrics.failover_replacements, 0);
  service->WithLiveState([&](const ClusterState& state) {
    // The app is back to full strength on the surviving nodes.
    EXPECT_EQ(state.ContainersOf(app).size(), 4u);
    for (ContainerId c : state.ContainersOf(app)) {
      EXPECT_NE(state.FindContainer(c)->node.value, victim.value);
    }
  });
  ExpectInvariantsHold(*service);
}

TEST(ServiceRuntimeTest, NodeDownEvictsRunningTasks) {
  ServiceFixture service;
  // One long task per node: least-loaded allocation spreads them out.
  constexpr size_t kTasks = 24;
  service->SubmitTaskJob(std::vector<TaskRequest>(kTasks, TaskRequest(Resource(1024, 1), 60000)));
  size_t running = 0;
  for (int spins = 0; spins < 2000 && running < kTasks; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service->WithLiveState([&](const ClusterState& state) { running = TaskContainers(state); });
  }
  ASSERT_EQ(running, kTasks);

  const NodeId victim(3);
  size_t on_victim = 0;
  service->WithLiveState(
      [&](const ClusterState& state) { on_victim = state.node(victim).containers().size(); });
  ASSERT_GT(on_victim, 0u);
  service->NodeDown(victim);
  EXPECT_EQ(service->metrics().tasks_requeued_on_failure, static_cast<long long>(on_victim));

  // The evicted tasks rerun from the head of their queue on surviving nodes.
  for (int spins = 0; spins < 2000; ++spins) {
    service->WithLiveState([&](const ClusterState& state) { running = TaskContainers(state); });
    if (running == kTasks) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service->Stop();
  EXPECT_EQ(running, kTasks);
  service->WithLiveState([&](const ClusterState& state) {
    EXPECT_TRUE(state.node(victim).containers().empty());
    EXPECT_FALSE(state.node(victim).available());
  });
  ExpectInvariantsHold(*service);
}

TEST(ServiceRuntimeTest, OperatorConstraintDeduplicatesAndValidates) {
  ServiceFixture service;
  const std::string text = "{hbase-worker, {hbase-worker, 0, 1}, node}";
  service->WithManager([&](ConstraintManager& manager) {
    EXPECT_TRUE(manager.AddOperatorConstraint(text).ok());
    EXPECT_TRUE(manager.AddOperatorConstraint(text).ok());  // deduplicated
    EXPECT_FALSE(manager.AddOperatorConstraint("not a constraint").ok());
  });
  EXPECT_EQ(service->manager_snapshot()->size(), 1u);

  // Spec submission shares the dedup: two HBase instances ship the same
  // shared constraint, and a bad shared text is skipped, not registered.
  for (uint32_t i = 1; i <= 2; ++i) {
    const ApplicationId app(i);
    service->SubmitSpec([&](TagPool& tags) {
      LraSpec spec = MakeHBaseInstance(app, tags, /*num_workers=*/2);
      spec.shared_constraints.push_back("not a constraint");
      return spec;
    });
  }
  ASSERT_TRUE(service->WaitIdle(std::chrono::seconds(10)));
  service->Stop();
  size_t operator_constraints = 0;
  for (const auto& [id, constraint] : service->manager_snapshot()->All()) {
    operator_constraints += constraint->origin == ConstraintOrigin::kOperator ? 1 : 0;
  }
  // The text above plus the HBase template's one per-node region-server cap.
  EXPECT_EQ(operator_constraints, 2u);
}

TEST(ServiceRuntimeTest, HeartbeatStaysIdleWithoutTaskWork) {
  ServiceFixture service;
  for (uint32_t i = 1; i <= 3; ++i) {
    const ApplicationId app(i);
    service->SubmitSpec([&](TagPool& tags) { return MakeGenericLra(app, tags, 2, "idle"); });
  }
  ASSERT_TRUE(service->WaitIdle(std::chrono::seconds(10)));
  const uint64_t epoch = service->epoch();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Ten heartbeat periods passed: no beat ran and no epoch was published.
  EXPECT_EQ(service->metrics().heartbeats, 0);
  EXPECT_EQ(service->epoch(), epoch);
  service->Stop();
  EXPECT_EQ(service->metrics().lras_placed, 3);
}

TEST(RuntimeDriverTest, ReplaysTimedWorkload) {
  RuntimeDriver driver(ServiceConfig{}, SmallCluster(), MakeScheduler);
  for (uint32_t i = 1; i <= 2; ++i) {
    const ApplicationId app(i);
    driver.At(static_cast<SimTimeMs>(i) * 10, [app](PlacementService& service) {
      service.SubmitSpec([&](TagPool& tags) { return MakeGenericLra(app, tags, 2, "driver"); });
    });
  }
  driver.At(5, [](PlacementService& service) {
    service.SubmitTaskJob({TaskRequest(Resource(512, 1), 5), TaskRequest(Resource(512, 1), 5)});
  });
  const ServiceMetrics metrics = driver.Run(/*horizon_ms=*/60);
  EXPECT_EQ(metrics.lras_placed, 2);
  EXPECT_EQ(metrics.tasks_completed, 2);
}

TEST(PlacementServiceTest, RunSynchronousRecordsSubMillisecondPlaceLatency) {
  // Greedy placements of small LRAs take well under a millisecond; the
  // submit-to-commit latency must still be recorded as a positive
  // fractional value, not truncated to 0.
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  ClusterState initial = SmallCluster();
  ConstraintManager manager(initial.groups_ptr());
  ServiceConfig config;
  config.max_batch = 1;
  PlacementService service(config, std::move(initial), std::move(manager));
  constexpr int kLras = 10;
  for (int i = 0; i < kLras; ++i) {
    LraSpec spec;
    service.WithManager([&](ConstraintManager& m) {
      spec = MakeGenericLra(ApplicationId(static_cast<uint32_t>(1 + i)), m.tags(), 2, "svc");
    });
    service.Submit(std::move(spec.request));
  }
  const auto scheduler = MakeScheduler();
  const std::vector<BatchOutcome> outcomes = service.RunSynchronous(*scheduler);
  EXPECT_EQ(static_cast<int>(outcomes.size()), kLras);
  EXPECT_EQ(service.metrics().lras_placed, kLras);

  const auto latency = obs::MetricsRegistry::Default()
                           .HistogramNamed("service.place_latency_ms")
                           .TakeSnapshot();
  EXPECT_EQ(latency.count, static_cast<size_t>(kLras));
  EXPECT_GT(latency.min_ms, 0.0);
  obs::EnableMetrics(false);
}

}  // namespace
}  // namespace medea::runtime
