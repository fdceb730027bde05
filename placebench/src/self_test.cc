// Self-tests of the benchmark: each checker must reject a deliberately
// broken state (an over-capacity node, a partly placed LRA, a constraint
// pair miscounted by one) and accept the intact one; then every workload
// runs once at a tiny size and must pass its own checks.

#include <cstdio>
#include <string>

#include "src/core/violation.h"
#include "workloads.h"

namespace placebench {

RunReport RunWorkload(const std::string& workload, const RunOptions& options);

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("  %-62s %s\n", what.c_str(), condition ? "ok" : "FAILED");
  failures += condition ? 0 : 1;
}

// A 4-node cluster (2 racks) with one HBase instance of two region servers
// placed so that all six of its (constraint, subject) pairs hold.
struct Fixture {
  medea::ClusterState state = medea::ClusterBuilder()
                                  .NumNodes(4)
                                  .NumRacks(2)
                                  .NumUpgradeDomains(2)
                                  .NumServiceUnits(2)
                                  .NodeCapacity(medea::Resource(8192, 4))
                                  .Build();
  medea::ConstraintManager manager{state.groups_ptr()};
  std::vector<LraExpectation> lras;
  std::vector<ConstraintDef> defs;

  Fixture() {
    const medea::ApplicationId app(1);
    const medea::LraSpec spec =
        medea::MakeHBaseInstance(app, manager.tags(), /*num_workers=*/2);
    for (const std::string& text : spec.app_constraints) {
      MEDEA_CHECK(manager.AddFromText(text, medea::ConstraintOrigin::kApplication, app).ok());
    }
    MEDEA_CHECK(
        manager.AddFromText(spec.shared_constraints[0], medea::ConstraintOrigin::kOperator).ok());
    // Region servers on nodes 0 and 1 (rack 0); master and thrift server on
    // node 2; secondary master on node 3.
    const uint32_t nodes[] = {0, 1, 2, 2, 3};
    for (size_t i = 0; i < spec.request.containers.size(); ++i) {
      const medea::ContainerRequest& c = spec.request.containers[i];
      MEDEA_CHECK(state.Allocate(app, medea::NodeId(nodes[i]), c.demand, c.tags, true).ok());
    }
    lras.push_back(LraExpectation{1, spec.request.containers.size(), true});
    defs = SharedConstraints(2, 4);
    defs.resize(1);  // the TF rule has no subject here either way
    const std::vector<ConstraintDef> hbase = HBaseConstraints(1);
    defs.insert(defs.end(), hbase.begin(), hbase.end());
  }

  // Runs CheckObserved on `observed` against the evaluator's count of the
  // intact state; true when every check passes.
  bool Passes(const ObservedState& observed) {
    const medea::ViolationReport evaluated =
        medea::ConstraintEvaluator::EvaluateAll(state, manager);
    RunReport report;
    CheckObserved(report, observed, lras, defs, evaluated.total_subjects,
                  evaluated.total_subjects - evaluated.violated_subjects);
    for (const std::string& error : report.errors) {
      std::printf("      rejected: %s\n", error.c_str());
    }
    return report.correct;
  }
};

void TestCheckers() {
  std::printf("checkers:\n");
  Fixture fixture;
  const ObservedState intact = Observe(fixture.state, fixture.manager.tags());
  long long subjects = 0;
  Expect(CountSatisfied(intact, fixture.defs, &subjects) == 6 && subjects == 6,
         "intact fixture: 6 of 6 pairs recounted satisfied");
  Expect(fixture.Passes(intact), "intact state passes every check");

  ObservedState over = intact;
  over.containers.push_back(
      ObservedState::ContainerFacts{99, 2, medea::Resource(8192, 1), {}, false});
  Expect(!fixture.Passes(over), "over-capacity node is rejected");

  ObservedState partial = intact;
  partial.containers.erase(partial.containers.begin());  // drop one region server
  Expect(!fixture.Passes(partial), "partly placed LRA is rejected");

  ObservedState down = intact;
  down.nodes[3].available = false;
  Expect(!fixture.Passes(down), "LRA container on a down node is rejected");

  // Move the thrift server off the master's node: exactly one pair (the
  // master's affinity) flips, so the recount is one below the program's.
  ObservedState moved = intact;
  for (auto& c : moved.containers) {
    for (const std::string& tag : c.tags) {
      if (tag == "hb_thrift") {
        c.node = 3;
      }
    }
  }
  Expect(CountSatisfied(moved, fixture.defs, nullptr) == 5, "moved thrift server: 5 of 6 pairs");
  Expect(!fixture.Passes(moved), "pair count off by one is rejected");
}

void TestWorkloads() {
  std::printf("tiny workloads:\n");
  for (const char* workload : {"bulk", "ilp", "mixed"}) {
    RunOptions options;
    options.seed = 7;
    options.seconds = 0.001;  // one round
    options.tiny = true;
    const RunReport report = RunWorkload(workload, options);
    for (const std::string& error : report.errors) {
      std::printf("      %s: %s\n", workload, error.c_str());
    }
    bool metrics_positive = true;
    for (const char* name : {"setup_s", "throughput_cps", "cycle_p50_ms", "cycle_tail_ms",
                             "cpu_us_per_container", "peak_rss_mb", "satisfied_constraints"}) {
      const auto it = report.metrics.find(name);
      if (it == report.metrics.end() || !(it->second.value > 0.0)) {
        std::printf("      %s: %s missing or not positive\n", workload, name);
        metrics_positive = false;
      }
    }
    Expect(report.correct && report.failed == 0 && report.attempted > 0 && metrics_positive,
           std::string(workload) + ": passes its checks with no failed operation");
  }
}

}  // namespace

int RunSelfTest() {
  TestCheckers();
  TestWorkloads();
  std::printf("%s (%d failed)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace placebench
