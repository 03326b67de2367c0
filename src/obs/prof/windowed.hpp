// Sliding-window streaming statistics for bigkprof.
//
// WindowedStats answers "how much happened over the last W simulated
// microseconds" without storing every event: the window is split into
// `buckets` equal sub-buckets keyed by integer bucket index, and queries sum
// the sub-buckets that overlap the trailing window. Granularity is therefore
// window/buckets; everything is integer-keyed off sim::TimePs so results are
// deterministic. This is the live signal surface the dynamic balancer,
// autoscaler, and SLO monitor consume (ROADMAP items 1-2).
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"

namespace bigk::obs {

class WindowedStats {
 public:
  static constexpr std::size_t kDefaultBuckets = 8;

  /// Throws std::invalid_argument when `buckets` is 0 or `window` is shorter
  /// than `buckets` picoseconds, which leaves a bucket no width.
  explicit WindowedStats(sim::DurationPs window,
                         std::size_t buckets = kDefaultBuckets)
      : window_(window), buckets_(buckets) {
    if (buckets == 0) {
      throw std::invalid_argument("WindowedStats: zero buckets");
    }
    if (window < buckets) {
      throw std::invalid_argument(
          "WindowedStats: window of " + std::to_string(window) +
          " ps is shorter than its " + std::to_string(buckets) + " buckets");
    }
    bucket_width_ = window_ / buckets_;
  }

  /// Record `value` at simulated time `now`. Values are accumulated into the
  /// sub-bucket containing `now`; times must be non-decreasing (the sim is
  /// single-threaded, so callers get this for free).
  void add(sim::TimePs now, double value = 1.0) {
    const std::uint64_t index = now / bucket_width_;
    if (slots_.empty() || slots_.back().index != index) {
      slots_.push_back(Slot{index, 0.0, 0});
    }
    slots_.back().sum += value;
    slots_.back().events += 1;
    prune(index);
  }

  /// Sum of values recorded within the trailing window ending at `now`.
  double sum(sim::TimePs now) const {
    double acc = 0.0;
    const std::uint64_t oldest = oldest_live(now / bucket_width_);
    for (const Slot& slot : slots_) {
      if (slot.index >= oldest) acc += slot.sum;
    }
    return acc;
  }

  /// Event count within the trailing window ending at `now`.
  std::uint64_t events(sim::TimePs now) const {
    std::uint64_t acc = 0;
    const std::uint64_t oldest = oldest_live(now / bucket_width_);
    for (const Slot& slot : slots_) {
      if (slot.index >= oldest) acc += slot.events;
    }
    return acc;
  }

  /// Windowed event rate in events per (real) second of simulated time.
  double rate_per_s(sim::TimePs now) const {
    return static_cast<double>(events(now)) * 1e12 / span();
  }

  /// Windowed value throughput per second (e.g. bytes/s when add() records
  /// bytes).
  double sum_per_s(sim::TimePs now) const { return sum(now) * 1e12 / span(); }

  sim::DurationPs window() const noexcept { return window_; }

 private:
  struct Slot {
    std::uint64_t index;
    double sum;
    std::uint64_t events;
  };

  /// The time the buckets cover, which the rates divide by: the window
  /// rounded down to a whole number of bucket widths.
  double span() const {
    return static_cast<double>(buckets_ * bucket_width_);
  }

  std::uint64_t oldest_live(std::uint64_t newest) const {
    return newest >= buckets_ - 1 ? newest - (buckets_ - 1) : 0;
  }

  void prune(std::uint64_t newest) {
    const std::uint64_t oldest = oldest_live(newest);
    while (!slots_.empty() && slots_.front().index < oldest) {
      slots_.pop_front();
    }
  }

  sim::DurationPs window_;
  std::size_t buckets_;
  sim::DurationPs bucket_width_;
  std::deque<Slot> slots_;
};

}  // namespace bigk::obs
