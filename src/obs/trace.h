// Copyright (c) Medea reproduction authors.
// Structured tracing: a bounded ring buffer of spans with RAII timers,
// exportable as Chrome trace_event JSON (load in chrome://tracing or
// https://ui.perfetto.dev).
//
// A span is one timed operation on one thread — an LRA scheduling cycle, a
// node LP solve, a heartbeat commit pass. Spans are recorded into a
// fixed-capacity ring buffer (oldest entries overwritten), so a hot loop
// can stay instrumented without unbounded memory growth; the exporter
// reports how many spans were dropped. Thread identity is a small
// per-thread integer plus an optional name registered by the thread itself
// (the placement service names its threads "medea-svc-plan",
// "medea-svc-commit" and "medea-svc-beat"), which Perfetto shows as
// separate tracks — the overlap of planning, committing and the task
// heartbeat is directly visible.
//
// Cost model mirrors src/obs/metrics.h: when the recorder is disabled (the
// default), ScopedSpan is one relaxed atomic load — no clock read, no lock.
// Span names must be string literals (or otherwise outlive the recorder);
// the ring stores the pointer, not a copy.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync/mutex.h"

namespace medea::obs {

// Small dense id of the calling thread (assigned on first use).
uint32_t CurrentThreadId();
// Registers a display name for the calling thread (shown as the Perfetto
// track name) while tracing is enabled; a no-op otherwise, so name threads
// after TraceRecorder::Enable. Safe to call from any thread, any number of
// times.
void SetCurrentThreadName(const std::string& name);

// One completed span. `name` and `category` point at string literals.
struct TraceEvent {
  const char* name = "";
  const char* category = "";
  uint32_t tid = 0;
  int64_t start_us = 0;  // microseconds since TraceRecorder enable
  int64_t duration_us = 0;
};

class TraceRecorder {
 public:
  // The process-wide recorder ScopedSpan reports into.
  static TraceRecorder& Default();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Starts recording into a ring of `capacity` spans (resets any previous
  // contents and the trace clock). Capacity 0 disables.
  void Enable(size_t capacity);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Appends one span (oldest overwritten when full). No-op while disabled.
  void Record(const TraceEvent& event);

  // Associates a display name with a thread id (see SetCurrentThreadName).
  void RegisterThreadName(uint32_t tid, const std::string& name);

  // Microseconds since Enable() — the span clock.
  int64_t NowUs() const;

  // Spans currently in the ring, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  // Spans overwritten because the ring was full.
  size_t dropped() const;

  // Writes a Chrome trace_event JSON file: one complete ("ph":"X") event
  // per span plus thread_name metadata, loadable in chrome://tracing and
  // Perfetto. Thread names default to "thread-<id>" when unregistered.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};

  mutable sync::Mutex mu_;
  std::vector<TraceEvent> ring_ MEDEA_GUARDED_BY(mu_);
  size_t capacity_ MEDEA_GUARDED_BY(mu_) = 0;
  size_t next_ MEDEA_GUARDED_BY(mu_) = 0;  // ring write cursor
  size_t dropped_ MEDEA_GUARDED_BY(mu_) = 0;
  std::map<uint32_t, std::string> thread_names_ MEDEA_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point epoch_ MEDEA_GUARDED_BY(mu_);
  // Epoch mirror readable without mu_ (written only by Enable).
  std::atomic<int64_t> epoch_ns_{0};
};

// RAII span: captures the start time at construction, records into the
// default recorder at destruction. `name`/`category` must be literals.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "medea")
      : enabled_(TraceRecorder::Default().enabled()) {
    if (enabled_) {
      name_ = name;
      category_ = category;
      start_us_ = TraceRecorder::Default().NowUs();
    }
  }
  ~ScopedSpan() {
    if (enabled_) {
      TraceRecorder& recorder = TraceRecorder::Default();
      TraceEvent event;
      event.name = name_;
      event.category = category_;
      event.tid = CurrentThreadId();
      event.start_us = start_us_;
      event.duration_us = recorder.NowUs() - start_us_;
      recorder.Record(event);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool enabled_;
  const char* name_ = "";
  const char* category_ = "";
  int64_t start_us_ = 0;
};

}  // namespace medea::obs

#endif  // SRC_OBS_TRACE_H_
