#pragma once
// Span recorder for mempool_bench. Every layer call the benchmark makes is
// wrapped in a Span, which always measures its own duration (the benchmark's
// per-layer metrics come from these readings) and, while a Tracer is
// installed, also records {name, start, end, parent, request id} in memory.
// The traced run writes the records as Chrome trace-event JSON and prints a
// per-span self-time table whose main-thread shares must add up to the
// workload's wall time.
//
// Spans nest per thread: a span's parent is the span open on the same thread
// when it started, so self time (duration minus the children's durations) is
// well defined. Per-request round trips overlap each other and cross threads;
// they are recorded as async spans, kept out of the self-time accounting and
// tied to the nested spans of the same request by the request id.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"

namespace mempool_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Small dense thread index (0 = the first thread that asks, i.e. main).
inline uint32_t thread_index() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

struct SpanRecord {
  const char* name;  ///< "layer.call"; a string literal.
  uint64_t parent;   ///< Enclosing span on the same thread; 0 = none.
  uint64_t request;  ///< Service request id; 0 = not request-scoped.
  uint32_t thread;
  bool async;
  Clock::time_point start;
  Clock::time_point end;
};

/// Self time of one span name on one thread.
struct SelfTimeRow {
  std::string name;
  uint32_t thread = 0;
  uint64_t calls = 0;
  double total_s = 0;
  double self_s = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Span ids are 1-based indices into spans_.
  uint64_t open(const char* name, uint64_t parent, uint64_t request,
                Clock::time_point start) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {name, parent, request, thread_index(), false, start, start});
    return spans_.size();
  }

  void close(uint64_t id, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = end;
  }

  void record_async(const char* name, uint64_t request,
                    Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, 0, request, thread_index(), true, start, end});
  }

  /// Self time per (span name, thread), in order of first appearance.
  std::vector<SelfTimeRow> self_times() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_s(spans_.size() + 1, 0.0);
    for (const SpanRecord& s : spans_) {
      if (!s.async && s.parent != 0) {
        child_s[s.parent] += seconds_between(s.start, s.end);
      }
    }
    std::vector<SelfTimeRow> rows;
    std::map<std::pair<std::string, uint32_t>, std::size_t> index;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (s.async) continue;
      const auto key = std::make_pair(std::string(s.name), s.thread);
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, rows.size()).first;
        rows.push_back({key.first, s.thread, 0, 0, 0});
      }
      SelfTimeRow& row = rows[it->second];
      const double d = seconds_between(s.start, s.end);
      ++row.calls;
      row.total_s += d;
      row.self_s += d - child_s[i + 1];
    }
    return rows;
  }

  /// Chrome trace-event JSON ("X" complete events for nested spans, "b"/"e"
  /// async pairs for request round trips), timestamps in µs from the origin.
  mempool::Json chrome_events(int pid) const {
    std::lock_guard<std::mutex> lock(mu_);
    mempool::Json events = mempool::Json::array();
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const std::string name = s.name;
      mempool::Json args = mempool::Json::object();
      args.set("span", static_cast<uint64_t>(i + 1));
      args.set("parent", s.parent);
      if (s.request != 0) args.set("request", s.request);
      const auto event = [&](const char* ph, double ts) {
        mempool::Json e = mempool::Json::object();
        e.set("name", name);
        e.set("cat", name.substr(0, name.find('.')));
        e.set("ph", ph);
        e.set("ts", ts);
        e.set("pid", pid);
        e.set("tid", s.thread);
        return e;
      };
      if (s.async) {
        mempool::Json b = event("b", us(s.start));
        b.set("id", s.request);
        b.set("args", args);
        events.push_back(std::move(b));
        mempool::Json e = event("e", us(s.end));
        e.set("id", s.request);
        events.push_back(std::move(e));
      } else {
        mempool::Json x = event("X", us(s.start));
        x.set("dur", us(s.end) - us(s.start));
        x.set("args", args);
        events.push_back(std::move(x));
      }
    }
    return events;
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// The tracer of the traced pass; null while tracing is off.
inline Tracer* g_tracer = nullptr;

/// Scoped span: times [construction, stop()] and records it when tracing.
/// Spans on one thread must close in reverse order of opening.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0)
      : start_(Clock::now()) {
    if (g_tracer != nullptr) {
      std::vector<uint64_t>& open = stack();
      id_ = g_tracer->open(name, open.empty() ? 0 : open.back(), request,
                           start_);
      open.push_back(id_);
    }
  }
  ~Span() { stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span (idempotent); returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      end_ = Clock::now();
      if (id_ != 0) {
        g_tracer->close(id_, end_);
        std::vector<uint64_t>& open = stack();
        MEMPOOL_CHECK_MSG(!open.empty() && open.back() == id_,
                          "spans closed out of order");
        open.pop_back();
      }
    }
    return seconds_between(start_, end_);
  }

 private:
  static std::vector<uint64_t>& stack() {
    thread_local std::vector<uint64_t> open;
    return open;
  }

  Clock::time_point start_;
  Clock::time_point end_;
  uint64_t id_ = 0;
  bool stopped_ = false;
};

}  // namespace mempool_bench
