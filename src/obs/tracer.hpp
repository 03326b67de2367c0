// Unified cross-subsystem tracer: scoped spans, instant events, and counter
// tracks, exported in Chrome-tracing / Perfetto JSON.
//
// The Tracer generalizes the engine-only trace::Recorder to the whole stack:
// PCIe link transfers, DMA stream operations, SM compute intervals, host
// core/bus busy spans, and the engine's pipeline stages all land on one
// timeline. Track identity is stable: processes and threads are registered
// by name (get-or-create) and assigned pids/tids in registration order, and
// the writer emits "ph":"M" process_name/thread_name metadata so viewers
// show labels instead of bare numbers. All event names are JSON-escaped.
//
// Counter tracks accumulate *deltas* (or absolute samples); the writer sorts
// each series by timestamp and emits cumulative "ph":"C" samples, so
// instruments like DMA queue depth or PCIe bytes-in-flight can be recorded
// at enqueue/complete time without global ordering concerns.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace bigk::obs {

/// A (process row, thread row) pair on the timeline.
struct TrackId {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

/// Numeric key/value attached to a span's "args".
struct SpanArg {
  std::string key;
  double value = 0.0;
};

struct SpanEvent {
  TrackId track;
  std::string name;
  std::string category;
  sim::TimePs begin = 0;
  sim::TimePs end = 0;
  std::vector<SpanArg> args;

  sim::DurationPs duration() const noexcept { return end - begin; }
};

struct InstantEvent {
  TrackId track;
  std::string name;
  std::string category;
  sim::TimePs ts = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- track registration (get-or-create, stable ids) --------------------
  std::uint32_t process(std::string_view name);
  TrackId thread(std::uint32_t pid, std::string_view name);
  TrackId track(std::string_view process_name, std::string_view thread_name) {
    return thread(process(process_name), thread_name);
  }

  // --- event recording ----------------------------------------------------
  /// A completed span ("ph":"X") on `track`.
  void complete(TrackId track, std::string_view name, sim::TimePs begin,
                sim::TimePs end, std::string_view category = "span",
                std::vector<SpanArg> args = {});

  /// An instant event ("ph":"i").
  void instant(TrackId track, std::string_view name, sim::TimePs ts,
               std::string_view category = "instant");

  /// Adds `delta` to counter series `name` of process `pid` at time `ts`.
  void counter_add(std::uint32_t pid, std::string_view name, sim::TimePs ts,
                   double delta);

  /// Absolute counter sample (overrides the accumulated value from `ts` on).
  void counter_set(std::uint32_t pid, std::string_view name, sim::TimePs ts,
                   double value);

  // --- introspection ------------------------------------------------------
  const std::vector<SpanEvent>& spans() const noexcept { return spans_; }
  const std::vector<InstantEvent>& instants() const noexcept {
    return instants_;
  }
  std::size_t process_count() const noexcept { return processes_.size(); }
  std::size_t counter_track_count() const noexcept;
  bool empty() const noexcept;

  /// Name of process `pid` ("" if unknown).
  std::string_view process_name(std::uint32_t pid) const;

  /// Sum of span durations whose name matches exactly.
  sim::DurationPs named_busy(std::string_view span_name) const;

  /// Writes the Chrome-tracing JSON array: metadata first, then spans,
  /// instants, and cumulative counter samples. Timestamps are microseconds
  /// (the viewer's native unit) at picosecond precision.
  void write_chrome_json(std::ostream& out) const;

 private:
  struct ProcessInfo {
    std::string name;
    std::vector<std::string> thread_names;
    std::unordered_map<std::string, std::uint32_t> thread_index;
    std::vector<std::string> counter_names;
    std::unordered_map<std::string, std::uint32_t> counter_index;
  };
  struct CounterSample {
    std::uint32_t pid = 0;
    std::uint32_t series = 0;  // index into ProcessInfo::counter_names
    sim::TimePs ts = 0;
    double value = 0.0;
    bool is_delta = true;
  };

  std::uint32_t counter_series(std::uint32_t pid, std::string_view name);

  std::vector<ProcessInfo> processes_;  // pid = index + 1
  std::unordered_map<std::string, std::uint32_t> process_index_;
  std::vector<SpanEvent> spans_;
  std::vector<InstantEvent> instants_;
  std::vector<CounterSample> counter_samples_;
};

}  // namespace bigk::obs
