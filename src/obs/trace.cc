#include "src/obs/trace.h"

#include <cstdio>
#include <utility>

namespace medea::obs {

namespace {

// Dense thread ids: assigned on first use, registered names keyed by them.
std::atomic<uint32_t> g_next_thread_id{1};

uint32_t AssignThreadId() {
  return g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

uint32_t CurrentThreadId() {
  thread_local const uint32_t id = AssignThreadId();
  return id;
}

void SetCurrentThreadName(const std::string& name) {
  // Only while tracing: the registry keeps one entry per named thread, and
  // every short-lived service thread names itself.
  if (TraceRecorder::Default().enabled()) {
    TraceRecorder::Default().RegisterThreadName(CurrentThreadId(), name);
  }
}

TraceRecorder& TraceRecorder::Default() {
  // Leaked on purpose: instrumented threads may outlive static destruction.
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Enable(size_t capacity) {
  if (capacity == 0) {
    Disable();
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  {
    sync::MutexLock lock(&mu_);
    ring_.clear();
    ring_.reserve(capacity);
    capacity_ = capacity;
    next_ = 0;
    dropped_ = 0;
    epoch_ = now;
    epoch_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void TraceRecorder::Record(const TraceEvent& event) {
  if (!enabled()) {
    return;
  }
  sync::MutexLock lock(&mu_);
  if (capacity_ == 0) {
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }
}

void TraceRecorder::RegisterThreadName(uint32_t tid, const std::string& name) {
  sync::MutexLock lock(&mu_);
  thread_names_[tid] = name;
}

int64_t TraceRecorder::NowUs() const {
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  return (now_ns - epoch_ns_.load(std::memory_order_relaxed)) / 1000;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  sync::MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // When the ring has wrapped, `next_` points at the oldest entry.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

size_t TraceRecorder::dropped() const {
  sync::MutexLock lock(&mu_);
  return dropped_;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::vector<TraceEvent> events = Snapshot();
  std::map<uint32_t, std::string> names;
  size_t dropped_count = 0;
  {
    sync::MutexLock lock(&mu_);
    names = thread_names_;
    dropped_count = dropped_;
  }

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Unavailable("cannot open " + path);
  }
  bool ok = true;
  const auto emit = [&](const char* format, auto... args) {
    if (std::fprintf(file, format, args...) < 0) {
      ok = false;
    }
  };
  emit("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  // thread_name metadata first so viewers label every track.
  for (const auto& [tid, name] : names) {
    emit("%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
         "\"args\":{\"name\":\"%s\"}}",
         first ? "" : ",\n", tid, name.c_str());
    first = false;
  }
  for (const TraceEvent& event : events) {
    emit("%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
         "\"dur\":%lld,\"pid\":1,\"tid\":%u}",
         first ? "" : ",\n", event.name, event.category,
         static_cast<long long>(event.start_us),
         static_cast<long long>(event.duration_us), event.tid);
    first = false;
  }
  emit("\n],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped_count);
  std::fclose(file);
  if (!ok) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace medea::obs
