// Shared pieces of the placement benchmark: clocks, process counters, the
// metric sheet a run reports, the benchmark's own span log, and the timing
// wrapper around an LraScheduler.
//
// Everything here observes the program from outside: spans are recorded
// around calls into public functions, and layer counters come from the
// program's public accessors. Nothing in src/ is modified or subclassed
// beyond the public LraScheduler interface.

#ifndef PLACEBENCH_SRC_BENCH_COMMON_H_
#define PLACEBENCH_SRC_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sync/mutex.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/schedulers/placement.h"

namespace placebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsSince(Clock::time_point start) { return 1e3 * SecondsSince(start); }

// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();
// Peak resident set size of the process so far (getrusage), in MB.
double PeakRssMb();
// Current resident set size of the process (/proc/self/statm), in MB.
double ResidentMb();

// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// Everything one workload run reports. `metrics` holds end-to-end and
// per-layer numbers alike; run.py picks the set BENCHMARK.json declares for
// the run mode. `accounting` is the operation ledger printed on every run.
struct RunReport {
  bool correct = true;
  std::vector<std::string> errors;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, double>> accounting;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

// Options every workload receives from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrinks every input to a smoke-test size (one short round).
  bool tiny = false;
  // Where a traced run writes its Chrome trace files ("" = do not write).
  std::string trace_dir;
};

// --- The benchmark's own spans ------------------------------------------------
//
// A span log kept in memory and written as Chrome trace JSON when the run
// ends. Recording is off unless the run is traced; a disabled ScopedSpan
// reads no clock.
struct SpanRecord {
  const char* name = "";
  uint32_t tid = 0;
  int64_t start_us = 0;
  int64_t duration_us = 0;
};

class SpanLog {
 public:
  static SpanLog& Get();

  void Enable();
  bool enabled() const { return enabled_; }
  int64_t NowUs() const;
  void Record(const char* name, int64_t start_us, int64_t duration_us);

  // Total duration of the spans named `name`, in ms.
  double TotalMs(const char* name) const;
  size_t size() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable medea::sync::Mutex mu_;
  std::vector<SpanRecord> spans_ MEDEA_GUARDED_BY(mu_);
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name), enabled_(SpanLog::Get().enabled()) {
    if (enabled_) {
      start_us_ = SpanLog::Get().NowUs();
    }
  }
  ~ScopedSpan() {
    if (enabled_) {
      SpanLog::Get().Record(name_, start_us_, SpanLog::Get().NowUs() - start_us_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool enabled_;
  int64_t start_us_ = 0;
};

// Turns on the benchmark's span log and the program's own obs registry and
// trace recorder (a traced run only).
void EnableTracing();
// Writes the span log and the program's trace ring into `dir`.
void WriteTraces(const std::string& dir, const std::string& workload);

// --- Solver counters ----------------------------------------------------------

// Sums of MedeaIlpScheduler::last_stats() over the cycles of a run.
struct SolverTotals {
  long long solves = 0;
  long long time_limit_hits = 0;
  long long no_solution = 0;
  // Solves that reached their time limit or ended without a solution: their
  // plans depend on machine speed.
  long long failed = 0;
  long long variables = 0;
  long long rows = 0;
  double lp_ms = 0.0;
  long long nodes = 0;
  long long lp_solves = 0;
  long long pivots = 0;
  long long dual_pivots = 0;
  long long warm_start_hits = 0;
  long long cold_restarts = 0;
  long long strong_branch_solves = 0;
  long long cut_rounds = 0;
  long long cut_pivots = 0;
  long long presolve_probed_fixings = 0;

  void Add(const medea::MedeaIlpScheduler::LastSolveStats& stats);
};

// --- Timing wrapper around a scheduler ------------------------------------------
//
// An LraScheduler that forwards to `inner` and times every Place() from the
// outside. One instance serves one thread at a time (the service gives each
// planner worker its own scheduler), so its sample vectors need no lock.
class TimedScheduler : public medea::LraScheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<medea::LraScheduler> inner);

  medea::PlacementPlan Place(const medea::PlacementProblem& problem) override;
  std::string name() const override { return inner_->name(); }

  // Wall time and calling-thread CPU time of each Place(), in ms.
  const std::vector<double>& place_ms() const { return place_ms_; }
  const std::vector<double>& place_cpu_ms() const { return place_cpu_ms_; }
  double total_place_ms() const { return total_place_ms_; }
  // Solver counters when `inner` is Medea-ILP (all zero otherwise).
  const SolverTotals& solver() const { return solver_; }

 private:
  std::unique_ptr<medea::LraScheduler> inner_;
  const medea::MedeaIlpScheduler* ilp_ = nullptr;
  std::vector<double> place_ms_;
  std::vector<double> place_cpu_ms_;
  double total_place_ms_ = 0.0;
  SolverTotals solver_;
};

// --- Run-length control -------------------------------------------------------
//
// A run repeats whole rounds of the same operations until the measured time
// reaches the requested seconds. Only the timed part of each round counts:
// per-round preparation and the output checks run off the clock. Each
// round's wall time, process CPU time and committed containers are kept, so
// throughput and CPU cost are reported as medians over rounds: a burst of
// load from outside the process moves a few rounds, not the median.
//
// Memory is the resident set size sampled at the end of each round's timed
// phase, when the round's state is complete; the reported peak is the 90th
// percentile of those samples. The process peak (getrusage) and the highest
// sample both catch a glibc heap spike that some ILP solves leave behind
// and others do not (37.8 or 55.8 MB on the same workload from run to run),
// so the process peak goes to the ledger only.
class RoundLog {
 public:
  explicit RoundLog(double seconds) : seconds_(seconds) {}
  bool NeedMore() const { return measured_s_ < seconds_ || rounds() == 0; }
  void Add(double wall_s, double cpu_s, long long containers, double resident_mb);

  int rounds() const { return static_cast<int>(wall_s_.size()); }
  double measured_s() const { return measured_s_; }
  double MedianThroughput() const;
  double MedianCpuUsPerContainer() const;
  double PeakResidentMb() const { return Percentile(resident_mb_, 90.0); }

 private:
  double seconds_;
  double measured_s_ = 0.0;
  std::vector<double> resident_mb_;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
  std::vector<double> containers_;
};

// Set-up repeats at least this often and for at least this long; setup_s is
// the median repetition. A sub-millisecond set-up right after process start
// runs on a cold, slowly clocking core; hundreds of repetitions put the
// median on the warm ones.
inline constexpr size_t kSetupMinRepetitions = 11;
inline constexpr double kSetupMinSeconds = 0.25;

// Repeats `setup` as above and returns the median wall time in seconds.
// `teardown` releases what the previous repetition built, off the clock; the
// caller keeps the state the last repetition built.
double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<void()>& setup);

// Sets the end-to-end metrics every workload shares: set-up time, the
// round medians of `rounds`, and the median and the workload's fixed tail
// percentile of `cycle_ms`. Callers pass the planner thread's CPU time per
// Place(): Place() takes no lock and does no I/O, so that is its latency
// minus the time the OS ran other processes on the core. On a shared 4-core
// machine the wall-clock p95 of `bulk`'s four busy threads swung with
// outside load (38-76 ms across ten runs) while the CPU-time tail did not.
void SetCommonMetrics(RunReport& report, double setup_s, const RoundLog& rounds,
                      const std::vector<double>& cycle_ms, double tail_percentile);

// Adds the cycle-time percentiles, wall clock and planner-thread CPU, to the
// operation ledger.
void AddCycleLedger(RunReport& report, const std::vector<double>& wall_ms,
                    const std::vector<double>& cpu_ms);

// Adds the solver and ILP-model counters of `totals` to the report.
void SetSolverMetrics(RunReport& report, const SolverTotals& totals, double place_ms);

}  // namespace placebench

#endif  // PLACEBENCH_SRC_BENCH_COMMON_H_
