// In-memory span log of the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into each layer
// (never inside the program): name, start, end, parent span and the id of
// the request they belong to. They stay in a preallocated vector while the
// run measures and are written out once it ends, as Chrome trace-event JSON
// that Perfetto loads, plus a per-name self-time table (a span's duration
// minus the part of it its child spans cover).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: spans are named by layer call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the log; -1 for a root
  std::uint64_t request = 0;  ///< request id shared by one request's spans
};

class SpanLog {
 public:
  /// A disabled log records nothing and costs one branch per call.
  explicit SpanLog(bool enabled, std::size_t capacity = std::size_t{1} << 18)
      : enabled_(enabled) {
    if (enabled_) spans_.reserve(capacity);
    capacity_ = capacity;
  }

  bool enabled() const { return enabled_; }

  /// Open a span; returns its index (or -1 when disabled or full). Close it
  /// with end(). Children name the returned index as their parent.
  std::int32_t begin(const char* name, std::int32_t parent = -1,
                     std::uint64_t request = 0) {
    return add(name, now_ns(), 0, parent, request);
  }

  void end(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  /// Record an already measured interval.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::uint64_t request = 0) {
    if (!enabled_) return -1;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::size_t size() const { return spans_.size(); }
  /// Spans that still fit before the log starts dropping.
  std::size_t free_slots() const { return capacity_ - std::min(capacity_, spans_.size()); }
  std::uint64_t dropped() const { return dropped_; }

  struct LayerTime {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };

  /// Per span name: count, total duration and self time. A span's self
  /// time is its duration minus the union of its children's intervals
  /// (clipped to it), so overlapping children, such as pipelined
  /// requests, are not subtracted twice.
  std::map<std::string, LayerTime> layer_table() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const std::int64_t lo = std::max(s.start_ns, p.start_ns);
      const std::int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
    std::map<std::string, LayerTime> table;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0, end = std::numeric_limits<std::int64_t>::min();
      for (const auto& [lo, hi] : kids) {
        const std::int64_t from = std::max(lo, end);
        if (hi > from) covered += hi - from;
        end = std::max(end, hi);
      }
      const std::int64_t dur = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
      auto& row = table[s.name];
      ++row.count;
      row.total_us += dur / 1e3;
      row.self_us += std::max<std::int64_t>(0, dur - covered) / 1e3;
    }
    return table;
  }

  /// Write the first `max_spans` spans as Chrome trace-event JSON ("X"
  /// complete events, microsecond timestamps relative to `origin_ns`; the
  /// request id is the track, the parent index rides in args).
  bool write_trace_json(const std::string& path, std::int64_t origin_ns,
                        std::size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const std::size_t n = std::min(max_spans, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"request\":%llu}}\n",
                   i ? "," : "", s.name,
                   static_cast<unsigned long long>(s.request),
                   (s.start_ns - origin_ns) / 1e3,
                   std::max<std::int64_t>(0, s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.request));
    }
    std::fputs("],\"displayTimeUnit\":\"ns\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::int32_t parent = -1,
             std::uint64_t request = 0)
      : log_(log), index_(log.begin(name, parent, request)) {}
  ~ScopedSpan() { log_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int32_t index_;
};

}  // namespace perfbench
