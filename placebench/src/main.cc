// placebench: one workload of the end-to-end placement benchmark per
// process, so set-up time and peak memory belong to that workload.
//
//   placebench --workload bulk|ilp|mixed --seed N --seconds S [--trace 0|1]
//              [--trace-dir DIR]
//   placebench --self-test
//
// Prints an operation ledger and any failed check, then, as its last line,
// one JSON object with the run's verdict, operation counts and every metric
// it measured. placebench/run.py turns that into the benchmark's result
// line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "src/obs/metrics.h"
#include "workloads.h"

namespace placebench {

int RunSelfTest();

namespace {

void PrintReport(const RunReport& report) {
  std::printf("placebench ledger:");
  for (const auto& [name, value] : report.accounting) {
    std::printf(" %s=%.6g", name.c_str(), value);
  }
  std::printf("\n");
  for (const std::string& error : report.errors) {
    std::printf("placebench check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.correct ? "true" : "false", report.attempted, report.failed);
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk|ilp|mixed --seed N --seconds S [--trace 0|1] "
               "[--trace-dir DIR]\n       %s --self-test\n",
               argv0, argv0);
  return 2;
}

}  // namespace

RunReport RunWorkload(const std::string& workload, const RunOptions& options) {
  if (workload == "bulk") {
    return RunBulk(options);
  }
  if (workload == "ilp") {
    return RunIlp(options);
  }
  return RunMixed(options);
}

// Numbers only a traced run has: the service histograms of the program's
// obs registry, and how much of the timed phase (the "bench.round" spans)
// the workload's second-level spans cover.
void AddTraceMetrics(RunReport& report, const std::string& workload) {
  auto& registry = medea::obs::MetricsRegistry::Default();
  report.Set("runtime.plan_ms_p50", registry.HistogramNamed("service.plan_ms").TakeSnapshot().p50,
             "ms");
  report.Set("runtime.commit_ms_p50",
             registry.HistogramNamed("service.commit_ms").TakeSnapshot().p50, "ms");
  const SpanLog& spans = SpanLog::Get();
  const double rounds_ms = spans.TotalMs("bench.round");
  double covered_ms = 0.0;
  if (workload == "bulk") {
    covered_ms = spans.TotalMs("runtime.submit") + spans.TotalMs("runtime.drain");
  } else if (workload == "ilp") {
    covered_ms = spans.TotalMs("runtime.manager_update") + spans.TotalMs("runtime.run_synchronous");
  } else {
    covered_ms = spans.TotalMs("sim.step");
  }
  report.Set("trace.timed_phase_ms", rounds_ms, "ms");
  report.Set("trace.coverage_pct", rounds_ms > 0.0 ? 100.0 * covered_ms / rounds_ms : 0.0, "%");
  report.Set("trace.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace placebench

int main(int argc, char** argv) {
  using placebench::RunOptions;
  RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      return placebench::RunSelfTest();
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-dir" && has_value) {
      options.trace_dir = argv[++i];
    } else {
      return placebench::Usage(argv[0]);
    }
  }
  if ((workload != "bulk" && workload != "ilp" && workload != "mixed") ||
      !(options.seconds > 0.0)) {
    return placebench::Usage(argv[0]);
  }
  if (options.trace) {
    placebench::EnableTracing();
  }
  placebench::RunReport report = placebench::RunWorkload(workload, options);
  if (options.trace) {
    placebench::AddTraceMetrics(report, workload);
    placebench::WriteTraces(options.trace_dir, workload);
  }
  placebench::PrintReport(report);
  return 0;
}
