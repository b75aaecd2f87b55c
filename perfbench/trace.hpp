#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// A span is a named [start, end) interval on one benchmark thread, with the id
// of the span that caused it and the request id every span of one operation
// shares. Spans are recorded around the benchmark's calls into each layer, kept
// in per-thread buffers while the run lasts, and written out once at exit as
// Chrome trace-event JSON (the format tools/trace_check validates). Self time
// per span name — duration minus the part covered by child spans — is what
// the benchmark prints as the per-layer time split.
//
// When tracing is off a SpanScope costs one relaxed load. A thread can mute
// its own spans while tracing is on, so traced and untraced operations can
// interleave within one measurement.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< shared by all spans of one operation
  int tid = 0;
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Whether one more span fits under kMaxSpans; spans beyond it are
  /// counted in dropped() and not kept, which bounds the trace's memory and
  /// file size on long runs of tiny requests.
  bool admit() {
    if (kept_.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) return true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The calling thread's buffer, registered on first use. Buffers live as
  /// long as the tracer, so spans survive the threads that recorded them.
  std::vector<Span>& local() {
    thread_local std::vector<Span>* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buf = buffers_.back().get();
    }
    return *buf;
  }

  /// All recorded spans. Call only after every recording thread has joined.
  std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (std::size_t i = 0; i < buffers_.size(); ++i)
      for (Span s : *buffers_[i]) {
        s.tid = static_cast<int>(i);
        all.push_back(s);
      }
    return all;
  }

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  std::atomic<bool> enabled_{false};
  static constexpr std::uint64_t kMaxSpans = 100000;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> kept_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< buffers_ (one per recording thread)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// The open span and request of the calling thread, and whether its spans
/// are muted.
struct ThreadSpanState {
  std::uint64_t current = 0;
  std::uint64_t request = 0;
  bool muted = false;
};
inline ThreadSpanState& thread_span_state() {
  thread_local ThreadSpanState s;
  return s;
}

/// Whether the calling thread records spans (when tracing is on).
inline void set_thread_traced(bool traced) {
  thread_span_state().muted = !traced;
}

/// Records one span for its lifetime. A scope opened with a non-zero
/// `request` starts a new operation; nested scopes inherit it.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t request = 0) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    ThreadSpanState& st = thread_span_state();
    if (st.muted) return;
    active_ = true;
    saved_ = st;
    span_.name = name;
    span_.id = t.next_id();
    span_.parent = st.current;
    span_.request = request != 0 ? request : st.request;
    st.current = span_.id;
    st.request = span_.request;
    span_.start_ns = t.now_ns();
  }
  ~SpanScope() {
    if (!active_) return;
    Tracer& t = Tracer::instance();
    span_.end_ns = t.now_ns();
    if (t.admit()) t.local().push_back(span_);
    thread_span_state() = saved_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_ = false;
  Span span_;
  ThreadSpanState saved_;
};

/// Self time per span name, in seconds: each span's duration minus the
/// durations of its direct children.
inline std::map<std::string, double> self_seconds(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const std::int64_t self = s.end_ns - s.start_ns - child_ns[s.id];
    out[s.name] += static_cast<double>(self) / 1e9;
  }
  return out;
}

/// Writes `spans` as Chrome trace-event JSON: one B/E pair per span, nested
/// per thread, in non-decreasing timestamp order. Returns false when the
/// file cannot be written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  struct Event {
    std::int64_t ts_ns;
    int tid;
    bool begin;
    const Span* span;
  };
  // Per thread, emit events in nesting order (a span begins before its
  // children and ends after them), then merge threads by timestamp with a
  // stable sort so each thread's order survives ties.
  std::map<int, std::vector<const Span*>> by_tid;
  for (const Span& s : spans) by_tid[s.tid].push_back(&s);
  std::vector<Event> events;
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->end_ns > b->end_ns;  // the enclosing span first
    });
    std::vector<const Span*> open;
    for (const Span* s : list) {
      while (!open.empty() && open.back()->end_ns <= s->start_ns) {
        events.push_back({open.back()->end_ns, tid, false, open.back()});
        open.pop_back();
      }
      events.push_back({s->start_ns, tid, true, s});
      open.push_back(s);
    }
    while (!open.empty()) {
      events.push_back({open.back()->end_ns, tid, false, open.back()});
      open.pop_back();
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,"
                 "\"tid\":%d",
                 e.span->name, e.begin ? "B" : "E",
                 static_cast<double>(e.ts_ns) / 1e3, e.tid);
    if (e.begin)
      std::fprintf(f,
                   ",\"args\":{\"span\":%llu,\"parent\":%llu,"
                   "\"request\":%llu}",
                   static_cast<unsigned long long>(e.span->id),
                   static_cast<unsigned long long>(e.span->parent),
                   static_cast<unsigned long long>(e.span->request));
    std::fprintf(f, "}%s\n", i + 1 < events.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
