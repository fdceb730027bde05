// Copyright (c) Medea reproduction authors.
// Unit tests for the observability layer: histogram bucket / percentile
// math, registry semantics and JSON-lines export, trace ring-buffer
// wraparound, and the zero-cost-when-disabled contract of the RAII helpers.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EnableMetrics(true);
    MetricsRegistry::Default().Reset();
  }
  void TearDown() override {
    EnableMetrics(false);
    TraceRecorder::Default().Disable();
  }
};

// --- Histogram bucket math --------------------------------------------------

TEST_F(ObsTest, BucketUppersAreGeometricWithRatioSqrt2) {
  // upper(0) = 1us, and every two buckets double the bound.
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketUpperMs(0), 0.001);
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketUpperMs(2), 0.002);
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketUpperMs(20), 0.001 * 1024);
  for (size_t i = 0; i + 2 < LatencyHistogram::kNumBuckets - 1; ++i) {
    EXPECT_NEAR(LatencyHistogram::BucketUpperMs(i + 2) / LatencyHistogram::BucketUpperMs(i),
                2.0, 1e-12)
        << "at bucket " << i;
  }
  // The last bucket is open-ended.
  EXPECT_TRUE(std::isinf(LatencyHistogram::BucketUpperMs(LatencyHistogram::kNumBuckets - 1)));
}

TEST_F(ObsTest, BucketIndexBoundariesAreInclusive) {
  // A sample exactly on upper(i) belongs to bucket i, epsilon above to i+1.
  for (size_t i = 0; i < 10; ++i) {
    const double upper = LatencyHistogram::BucketUpperMs(i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(upper), i) << "upper(" << i << ")";
    EXPECT_EQ(LatencyHistogram::BucketIndex(upper * 1.0001), i + 1) << "above upper(" << i << ")";
  }
}

TEST_F(ObsTest, BucketIndexHandlesDegenerateSamples) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(-5.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1e-9), 0u);  // below 1us -> first bucket
  // Far beyond the ~50 minute span -> last (open) bucket.
  EXPECT_EQ(LatencyHistogram::BucketIndex(1e12), LatencyHistogram::kNumBuckets - 1);
}

// --- Percentiles and snapshot math ------------------------------------------

TEST_F(ObsTest, SnapshotTracksExactCountSumMinMax) {
  LatencyHistogram h;
  h.Record(1.0);
  h.Record(4.0);
  h.Record(0.25);
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum_ms, 5.25);
  EXPECT_DOUBLE_EQ(s.min_ms, 0.25);
  EXPECT_DOUBLE_EQ(s.max_ms, 4.0);
  EXPECT_DOUBLE_EQ(s.MeanMs(), 1.75);
}

TEST_F(ObsTest, PercentilesAreWithinOneBucketOfExact) {
  // 1000 samples uniform on (0, 100] ms: each percentile estimate must land
  // within one sqrt(2) bucket of the exact order statistic.
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i * 0.1);
  }
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GE(s.p50, 50.0 / std::sqrt(2.0));
  EXPECT_LE(s.p50, 50.0 * std::sqrt(2.0));
  EXPECT_GE(s.p95, 95.0 / std::sqrt(2.0));
  EXPECT_LE(s.p95, 95.0 * std::sqrt(2.0));
  EXPECT_GE(s.p99, 99.0 / std::sqrt(2.0));
  EXPECT_LE(s.p99, 100.0);  // clamped to max_ms
}

TEST_F(ObsTest, PercentilesClampToObservedRange) {
  LatencyHistogram h;
  // All mass in one bucket: interpolation would report bucket bounds, but
  // the estimate must clamp to the observed [min, max].
  h.Record(3.0);
  h.Record(3.0);
  h.Record(3.0);
  const auto s = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(s.PercentileMs(0.0), 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(100.0), 3.0);
}

TEST_F(ObsTest, PercentileOfEmptyHistogramIsZero) {
  LatencyHistogram h;
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(99.9), 0.0);
  EXPECT_DOUBLE_EQ(s.MeanMs(), 0.0);
}

TEST_F(ObsTest, PercentileInOpenLastBucketReportsMax) {
  LatencyHistogram h;
  h.Record(1e9);  // ~11.5 days -> open bucket
  const auto s = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(s.p99, 1e9);
}

// --- Registry ---------------------------------------------------------------

TEST_F(ObsTest, RegistryHandlesAreStableAcrossReset) {
  auto& registry = MetricsRegistry::Default();
  Counter& counter = registry.CounterNamed("obs_test.stable_counter");
  counter.Add(7);
  EXPECT_EQ(counter.value(), 7);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0);  // zeroed in place, handle still valid
  counter.Add(2);
  EXPECT_EQ(registry.CounterNamed("obs_test.stable_counter").value(), 2);
  EXPECT_EQ(&registry.CounterNamed("obs_test.stable_counter"), &counter);
}

TEST_F(ObsTest, HelpersNoOpWhenDisabled) {
  EnableMetrics(false);
  Count("obs_test.disabled_counter", 5);
  Observe("obs_test.disabled_hist", 1.0);
  SetGauge("obs_test.disabled_gauge", 9.0);
  { ScopedLatencyTimer timer("obs_test.disabled_timer"); }
  EnableMetrics(true);
  // Nothing was recorded — and ideally not even registered. The counter may
  // not exist; if the name is now created fresh it must read zero.
  EXPECT_EQ(MetricsRegistry::Default().CounterNamed("obs_test.disabled_counter").value(), 0);
  EXPECT_EQ(MetricsRegistry::Default().HistogramNamed("obs_test.disabled_hist").TakeSnapshot().count,
            0u);
}

TEST_F(ObsTest, SnapshotJsonLinesIsOneObjectPerLineSorted) {
  Count("obs_test.b_counter", 3);
  Count("obs_test.a_counter", 1);
  SetGauge("obs_test.gauge", 2.5);
  Observe("obs_test.hist_ms", 1.5);
  const std::string lines = MetricsRegistry::Default().SnapshotJsonLines();
  // Counters come first, sorted by name.
  EXPECT_NE(lines.find("{\"kind\":\"counter\",\"name\":\"obs_test.a_counter\",\"value\":1}"),
            std::string::npos);
  EXPECT_LT(lines.find("obs_test.a_counter"), lines.find("obs_test.b_counter"));
  EXPECT_NE(lines.find("{\"kind\":\"gauge\",\"name\":\"obs_test.gauge\",\"value\":2.5}"),
            std::string::npos);
  EXPECT_NE(lines.find("\"kind\":\"histogram\",\"name\":\"obs_test.hist_ms\",\"count\":1"),
            std::string::npos);
  // Every line parses as a braced object.
  size_t begin = 0;
  int parsed = 0;
  while (begin < lines.size()) {
    const size_t end = lines.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    const std::string line = lines.substr(begin, end - begin);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++parsed;
    begin = end + 1;
  }
  EXPECT_GE(parsed, 4);
}

// --- Trace ring buffer ------------------------------------------------------

TraceEvent MakeEvent(const char* name, int64_t start_us) {
  TraceEvent event;
  event.name = name;
  event.category = "test";
  event.tid = CurrentThreadId();
  event.start_us = start_us;
  event.duration_us = 1;
  return event;
}

TEST_F(ObsTest, RingBufferKeepsNewestAndCountsDropped) {
  auto& recorder = TraceRecorder::Default();
  recorder.Enable(4);
  static const char* const kNames[] = {"s0", "s1", "s2", "s3", "s4", "s5", "s6"};
  for (int i = 0; i < 7; ++i) {
    recorder.Record(MakeEvent(kNames[i], i));
  }
  EXPECT_EQ(recorder.dropped(), 3u);  // s0..s2 overwritten
  const std::vector<TraceEvent> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: the survivors are s3..s6 in recording order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_STREQ(spans[static_cast<size_t>(i)].name, kNames[i + 3]);
    EXPECT_EQ(spans[static_cast<size_t>(i)].start_us, i + 3);
  }
}

TEST_F(ObsTest, EnableResetsRingAndClock) {
  auto& recorder = TraceRecorder::Default();
  recorder.Enable(2);
  recorder.Record(MakeEvent("old", 0));
  recorder.Enable(2);  // re-enable: previous contents are gone
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_GE(recorder.NowUs(), 0);
}

TEST_F(ObsTest, ScopedSpanIsNoOpWhenDisabled) {
  auto& recorder = TraceRecorder::Default();
  recorder.Disable();
  { ScopedSpan span("obs_test.disabled_span", "test"); }
  recorder.Enable(8);
  EXPECT_TRUE(recorder.Snapshot().empty());
  { ScopedSpan span("obs_test.enabled_span", "test"); }
  const auto spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "obs_test.enabled_span");
  EXPECT_GE(spans[0].duration_us, 0);
}

// Writes the recorder's Chrome trace to a temporary file and returns its
// text ("" if it could not be written or read).
std::string ExportChromeTrace(const TraceRecorder& recorder, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  if (!recorder.WriteChromeTrace(path).ok()) {
    return "";
  }
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return "";
  }
  std::string body;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    body.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  return body;
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormed) {
  auto& recorder = TraceRecorder::Default();
  recorder.Enable(16);
  SetCurrentThreadName("obs-test-main");
  { ScopedSpan span("obs_test.export_span", "test"); }
  const std::string body = ExportChromeTrace(recorder, "obs_test_trace.json");
  ASSERT_FALSE(body.empty());

  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.find_last_not_of(" \n"), body.rfind('}'));
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);          // duration event
  EXPECT_NE(body.find("\"ph\":\"M\""), std::string::npos);          // thread_name metadata
  EXPECT_NE(body.find("obs-test-main"), std::string::npos);         // registered name
  EXPECT_NE(body.find("obs_test.export_span"), std::string::npos);  // the span itself
  EXPECT_NE(body.find("\"dropped_spans\":0"), std::string::npos);
}

TEST_F(ObsTest, ThreadNameSetWhileDisabledIsNotExported) {
  auto& recorder = TraceRecorder::Default();
  recorder.Disable();
  SetCurrentThreadName("obs-test-untraced");
  recorder.Enable(16);
  { ScopedSpan span("obs_test.untraced_name_span", "test"); }
  const std::string body = ExportChromeTrace(recorder, "obs_test_untraced.json");
  EXPECT_NE(body.find("obs_test.untraced_name_span"), std::string::npos);
  EXPECT_EQ(body.find("obs-test-untraced"), std::string::npos);
}

TEST_F(ObsTest, ThreadIdsAreSmallAndStable) {
  const uint32_t id = CurrentThreadId();
  EXPECT_GE(id, 1u);
  EXPECT_EQ(CurrentThreadId(), id);  // stable within the thread
}

}  // namespace
}  // namespace medea::obs
