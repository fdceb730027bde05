#include "bench_common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace placebench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

double ResidentMb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) {
    return 0.0;
  }
  long long size_pages = 0;
  long long resident_pages = 0;
  const int read = std::fscanf(file, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(file);
  if (read != 2) {
    return 0.0;
  }
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

// --- SpanLog -----------------------------------------------------------------

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::Enable() {
  epoch_ = Clock::now();
  enabled_ = true;
}

int64_t SpanLog::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_).count();
}

void SpanLog::Record(const char* name, int64_t start_us, int64_t duration_us) {
  const uint32_t tid = medea::obs::CurrentThreadId();
  medea::sync::MutexLock lock(&mu_);
  spans_.push_back(SpanRecord{name, tid, start_us, duration_us});
}

double SpanLog::TotalMs(const char* name) const {
  medea::sync::MutexLock lock(&mu_);
  int64_t total_us = 0;
  for (const SpanRecord& span : spans_) {
    if (std::string_view(span.name) == name) {
      total_us += span.duration_us;
    }
  }
  return 1e-3 * static_cast<double>(total_us);
}

size_t SpanLog::size() const {
  medea::sync::MutexLock lock(&mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  medea::sync::MutexLock lock(&mu_);
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"cat\":\"placebench\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%lld,\"dur\":%lld}%s\n",
                 s.name, s.tid, static_cast<long long>(s.start_us),
                 static_cast<long long>(s.duration_us), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

void EnableTracing() {
  SpanLog::Get().Enable();
  medea::obs::EnableMetrics(true);
  medea::obs::MetricsRegistry::Default().Reset();
  medea::obs::TraceRecorder::Default().Enable(1 << 16);
}

void WriteTraces(const std::string& dir, const std::string& workload) {
  if (dir.empty()) {
    return;
  }
  const std::string spans = dir + "/" + workload + ".spans.json";
  const std::string program = dir + "/" + workload + ".program_trace.json";
  if (!SpanLog::Get().WriteChromeTrace(spans)) {
    std::fprintf(stderr, "placebench: cannot write %s\n", spans.c_str());
  }
  const medea::Status status = medea::obs::TraceRecorder::Default().WriteChromeTrace(program);
  if (!status.ok()) {
    std::fprintf(stderr, "placebench: cannot write %s\n", program.c_str());
  }
}

// --- SolverTotals --------------------------------------------------------------

void SolverTotals::Add(const medea::MedeaIlpScheduler::LastSolveStats& stats) {
  ++solves;
  const auto& mip = stats.mip;
  const bool solved = stats.status == medea::solver::SolveStatus::kOptimal ||
                      stats.status == medea::solver::SolveStatus::kFeasible;
  time_limit_hits += mip.hit_time_limit ? 1 : 0;
  no_solution += solved ? 0 : 1;
  failed += (mip.hit_time_limit || !solved) ? 1 : 0;
  variables += stats.variables;
  rows += stats.rows;
  lp_ms += 1e3 * mip.lp_time_seconds;
  nodes += mip.nodes_explored;
  lp_solves += mip.lp_solves;
  pivots += mip.total_pivots;
  dual_pivots += mip.dual_pivots;
  warm_start_hits += mip.warm_start_hits;
  cold_restarts += mip.cold_restarts;
  strong_branch_solves += mip.strong_branch_solves;
  cut_rounds += mip.cut_rounds;
  cut_pivots += mip.cut_pivots;
  presolve_probed_fixings += mip.presolve.probed_fixings;
}

// --- TimedScheduler -------------------------------------------------------------

TimedScheduler::TimedScheduler(std::unique_ptr<medea::LraScheduler> inner)
    : inner_(std::move(inner)),
      ilp_(dynamic_cast<const medea::MedeaIlpScheduler*>(inner_.get())) {}

medea::PlacementPlan TimedScheduler::Place(const medea::PlacementProblem& problem) {
  const ScopedSpan span("schedulers.place");
  timespec cpu0{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu0);
  const Clock::time_point start = Clock::now();
  medea::PlacementPlan plan = inner_->Place(problem);
  const double ms = MsSince(start);
  timespec cpu1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu1);
  place_cpu_ms_.push_back(1e3 * static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) +
                          1e-6 * static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec));
  place_ms_.push_back(ms);
  total_place_ms_ += ms;
  if (ilp_ != nullptr) {
    solver_.Add(ilp_->last_stats());
  }
  return plan;
}

// --- Shared metric helpers --------------------------------------------------------

double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> samples;
  double total_s = 0.0;
  while (samples.size() < kSetupMinRepetitions || total_s < kSetupMinSeconds) {
    if (!samples.empty()) {
      teardown();
    }
    const Clock::time_point start = Clock::now();
    setup();
    samples.push_back(SecondsSince(start));
    total_s += samples.back();
  }
  return Median(samples);
}

void RoundLog::Add(double wall_s, double cpu_s, long long containers, double resident_mb) {
  measured_s_ += wall_s;
  resident_mb_.push_back(resident_mb);
  wall_s_.push_back(wall_s);
  cpu_s_.push_back(cpu_s);
  containers_.push_back(static_cast<double>(containers));
}

double RoundLog::MedianThroughput() const {
  std::vector<double> rates;
  for (size_t i = 0; i < wall_s_.size(); ++i) {
    rates.push_back(containers_[i] / wall_s_[i]);
  }
  return Median(rates);
}

double RoundLog::MedianCpuUsPerContainer() const {
  std::vector<double> costs;
  for (size_t i = 0; i < cpu_s_.size(); ++i) {
    costs.push_back(containers_[i] > 0 ? 1e6 * cpu_s_[i] / containers_[i] : 0.0);
  }
  return Median(costs);
}

void SetCommonMetrics(RunReport& report, double setup_s, const RoundLog& rounds,
                      const std::vector<double>& cycle_ms, double tail_percentile) {
  report.Set("setup_s", setup_s, "s");
  report.Set("throughput_cps", rounds.MedianThroughput(), "containers/s");
  report.Set("cycle_p50_ms", Median(cycle_ms), "ms");
  report.Set("cycle_tail_ms", Percentile(cycle_ms, tail_percentile), "ms");
  report.Set("cpu_us_per_container", rounds.MedianCpuUsPerContainer(), "us");
  report.Set("peak_rss_mb", rounds.PeakResidentMb(), "MB");
  report.accounting.emplace_back("process_peak_rss_mb", PeakRssMb());
  report.accounting.emplace_back("rounds", rounds.rounds());
  report.accounting.emplace_back("measured_s", rounds.measured_s());
  report.accounting.emplace_back("cycles", static_cast<double>(cycle_ms.size()));
  report.accounting.emplace_back("tail_percentile", tail_percentile);
}

void AddCycleLedger(RunReport& report, const std::vector<double>& wall_ms,
                    const std::vector<double>& cpu_ms) {
  for (double p : {50.0, 90.0, 95.0, 98.0, 99.0}) {
    const std::string suffix = "_p" + std::to_string(static_cast<int>(p)) + "_ms";
    report.accounting.emplace_back("cycle_wall" + suffix, Percentile(wall_ms, p));
    report.accounting.emplace_back("cycle_cpu" + suffix, Percentile(cpu_ms, p));
  }
}

void SetSolverMetrics(RunReport& report, const SolverTotals& t, double place_ms) {
  const double solves = static_cast<double>(std::max<long long>(t.solves, 1));
  report.Set("ilp.variables", static_cast<double>(t.variables) / solves, "count");
  report.Set("ilp.rows", static_cast<double>(t.rows) / solves, "count");
  report.Set("ilp.non_lp_ms", place_ms - t.lp_ms, "ms");
  report.Set("solver.lp_ms", t.lp_ms, "ms");
  report.Set("solver.nodes", static_cast<double>(t.nodes), "count");
  report.Set("solver.lp_solves", static_cast<double>(t.lp_solves), "count");
  report.Set("solver.pivots", static_cast<double>(t.pivots), "count");
  report.Set("solver.dual_pivots", static_cast<double>(t.dual_pivots), "count");
  report.Set("solver.warm_start_hits", static_cast<double>(t.warm_start_hits), "count");
  report.Set("solver.cold_restarts", static_cast<double>(t.cold_restarts), "count");
  report.Set("solver.strong_branch_solves", static_cast<double>(t.strong_branch_solves),
             "count");
  report.Set("solver.cut_rounds", static_cast<double>(t.cut_rounds), "count");
  report.Set("solver.cut_pivots", static_cast<double>(t.cut_pivots), "count");
  report.Set("solver.presolve_probed_fixings",
             static_cast<double>(t.presolve_probed_fixings), "count");
}

}  // namespace placebench
