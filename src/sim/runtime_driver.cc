#include "src/sim/runtime_driver.h"

#include <algorithm>
#include <thread>

namespace medea {

RuntimeDriver::RuntimeDriver(runtime::ServiceConfig config, ClusterState initial,
                             runtime::PlacementService::SchedulerFactory factory)
    : service_(std::move(config), initial, ConstraintManager(initial.groups_ptr())),
      factory_(std::move(factory)) {}

runtime::ServiceMetrics RuntimeDriver::Run(SimTimeMs horizon_ms,
                                           std::chrono::milliseconds idle_grace) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  service_.Start(factory_);
  const auto start = std::chrono::steady_clock::now();
  for (auto& [time, action] : events_) {
    std::this_thread::sleep_until(start + std::chrono::milliseconds(time));
    action(service_);
  }
  std::this_thread::sleep_until(start + std::chrono::milliseconds(horizon_ms));
  service_.WaitIdle(idle_grace);
  service_.Stop();
  return service_.metrics();
}

}  // namespace medea
