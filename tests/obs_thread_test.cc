// Copyright (c) Medea reproduction authors.
// Concurrency test for the observability layer, designed to run under
// ThreadSanitizer (the `tsan` preset filter matches "ThreadTest"). Several
// writer threads hammer counters, gauges, histograms and the trace ring
// while reader threads concurrently snapshot, export JSON lines and write
// Chrome traces — plus a toggler flipping the enabled flags mid-flight, the
// exact races the relaxed-load fast path must survive.
// medea-lint: allow-file(raw-sync): deliberate raw std::thread use — this TSan hammer
// must race the obs layer without the sync wrappers' own synchronization in the way.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea::obs {
namespace {

TEST(ObsThreadTest, ConcurrentWritersReadersAndTogglesAreClean) {
  EnableMetrics(true);
  MetricsRegistry::Default().Reset();
  TraceRecorder::Default().Enable(256);  // small ring: wraparound races too

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 400;
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  // Writers: every helper on a mix of shared and per-thread metric names.
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([w] {
      SetCurrentThreadName("obs-writer-" + std::to_string(w));
      const std::string own = "obs_thread_test.writer_" + std::to_string(w);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Count("obs_thread_test.shared_counter");
        Count(own);
        SetGauge("obs_thread_test.shared_gauge", static_cast<double>(i));
        Observe("obs_thread_test.shared_hist_ms", 0.001 * (1 + (w * kOpsPerWriter + i) % 997));
        { ScopedLatencyTimer timer("obs_thread_test.timer_ms"); }
        { ScopedSpan span("obs_thread_test.span", "test"); }
      }
    });
  }
  // Readers: consistent snapshots and exports while writes are in flight.
  workers.emplace_back([&stop] {
    int iteration = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto snapshot = MetricsRegistry::Default()
                                .HistogramNamed("obs_thread_test.shared_hist_ms")
                                .TakeSnapshot();
      // Sanity under concurrency: the aggregates are internally consistent.
      if (snapshot.count > 0) {
        EXPECT_GE(snapshot.max_ms, snapshot.min_ms);
        EXPECT_GE(snapshot.p99, snapshot.p50);
      }
      (void)MetricsRegistry::Default().SnapshotJsonLines();
      (void)TraceRecorder::Default().Snapshot();
      (void)TraceRecorder::Default().dropped();
      if (++iteration % 8 == 0) {
        const std::string path =
            ::testing::TempDir() + "/obs_thread_test_trace.json";
        (void)TraceRecorder::Default().WriteChromeTrace(path);
        std::remove(path.c_str());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Toggler: instrumentation sites must tolerate the flags flipping at any
  // point (the disabled fast path racing against in-flight recordings).
  workers.emplace_back([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      EnableMetrics(false);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      EnableMetrics(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int w = 0; w < kWriters; ++w) {
    workers[static_cast<size_t>(w)].join();
  }
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < workers.size(); ++i) {
    workers[i].join();
  }

  EnableMetrics(true);
  // While the toggler ran, a writer may land any number of its ops inside a
  // disabled window (even all of them), and the flag may flip between its
  // shared and its own Count. So only upper bounds hold for those totals:
  // each per-writer counter is at most kOpsPerWriter, the shared counter at
  // most the sum.
  auto counter = [](const std::string& name) {
    return MetricsRegistry::Default().CounterNamed(name).value();
  };
  auto own_name = [](int w) { return "obs_thread_test.writer_" + std::to_string(w); };
  std::vector<long long> own_before(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    own_before[static_cast<size_t>(w)] = counter(own_name(w));
    EXPECT_LE(own_before[static_cast<size_t>(w)], kOpsPerWriter);
  }
  const long long shared_before = counter("obs_thread_test.shared_counter");
  EXPECT_LE(shared_before, static_cast<long long>(kWriters) * kOpsPerWriter);
  const auto hist_before =
      MetricsRegistry::Default().HistogramNamed("obs_thread_test.shared_hist_ms").TakeSnapshot();
  EXPECT_LE(hist_before.count, static_cast<size_t>(kWriters) * kOpsPerWriter);

  // With the toggler stopped and metrics on, one more write per writer
  // (from its own thread) must land exactly.
  std::vector<std::thread> late_writers;
  for (int w = 0; w < kWriters; ++w) {
    late_writers.emplace_back([w, &own_name] {
      Count("obs_thread_test.shared_counter");
      Count(own_name(w));
      Observe("obs_thread_test.shared_hist_ms", 0.5);
    });
  }
  for (std::thread& t : late_writers) {
    t.join();
  }
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(counter(own_name(w)), own_before[static_cast<size_t>(w)] + 1);
  }
  EXPECT_EQ(counter("obs_thread_test.shared_counter"), shared_before + kWriters);
  const auto hist =
      MetricsRegistry::Default().HistogramNamed("obs_thread_test.shared_hist_ms").TakeSnapshot();
  EXPECT_EQ(hist.count, hist_before.count + kWriters);

  // The trace ring wrapped (far more spans than capacity) without losing
  // structural integrity: full ring, monotone non-negative durations.
  const auto spans = TraceRecorder::Default().Snapshot();
  EXPECT_EQ(spans.size(), 256u);
  for (const TraceEvent& span : spans) {
    EXPECT_GE(span.duration_us, 0);
    EXPECT_GE(span.tid, 1u);
  }
  EXPECT_GT(TraceRecorder::Default().dropped(), 0u);

  EnableMetrics(false);
  TraceRecorder::Default().Disable();
}

TEST(ObsThreadTest, ConcurrentRegistrationReturnsOneInstancePerName) {
  EnableMetrics(true);
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &seen] {
      seen[static_cast<size_t>(t)] =
          &MetricsRegistry::Default().CounterNamed("obs_thread_test.registration_race");
      seen[static_cast<size_t>(t)]->Add(1);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);  // one shared instance
  }
  EXPECT_EQ(seen[0]->value(), kThreads);
  EnableMetrics(false);
}

}  // namespace
}  // namespace medea::obs
