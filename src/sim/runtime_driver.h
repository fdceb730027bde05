// Copyright (c) Medea reproduction authors.
// Runtime-backed simulation mode: replays a timed workload against the
// genuinely concurrent PlacementService (src/runtime) instead of the
// single-threaded event simulator.
//
// The discrete-event Simulation and this driver answer different questions:
// the simulator gives deterministic, clock-compressed metrics; the driver
// exercises the real threads — planner workers, committer and task
// heartbeat: snapshot/commit races, stale-plan revalidation, queue
// backpressure — under wall-clock time. The same workload shapes (LRA
// templates, gridmix task jobs, node churn) plug into both, so scenarios
// can be cross-checked between the two modes.

#ifndef SRC_SIM_RUNTIME_DRIVER_H_
#define SRC_SIM_RUNTIME_DRIVER_H_

#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "src/runtime/placement_service.h"

namespace medea {

// Replays `At()`-scheduled actions against a PlacementService in real time
// (milliseconds since Run() starts the service's threads).
class RuntimeDriver {
 public:
  using Action = std::function<void(runtime::PlacementService&)>;

  // The service starts on `initial` with an empty constraint manager;
  // `factory` makes one LRA scheduler per planner worker.
  RuntimeDriver(runtime::ServiceConfig config, ClusterState initial,
                runtime::PlacementService::SchedulerFactory factory);

  // Schedules `action(service)` to run at time `t` (ms after Run() starts
  // the service). Actions at equal times run in insertion order. Must be
  // called before Run().
  void At(SimTimeMs t, Action action) { events_.emplace_back(t, std::move(action)); }

  // Starts the service, replays all actions, sleeps out the horizon, waits
  // (up to `idle_grace`) for every LRA to resolve, stops the service and
  // returns its metrics.
  runtime::ServiceMetrics Run(SimTimeMs horizon_ms,
                              std::chrono::milliseconds idle_grace = std::chrono::seconds(5));

  runtime::PlacementService& service() { return service_; }

 private:
  runtime::PlacementService service_;
  runtime::PlacementService::SchedulerFactory factory_;
  std::vector<std::pair<SimTimeMs, Action>> events_;
};

}  // namespace medea

#endif  // SRC_SIM_RUNTIME_DRIVER_H_
