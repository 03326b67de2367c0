// Pool autoscaler: grows and shrinks the set of *active* devices from two
// load signals sampled once per decision period — the average admission-queue
// depth over the period and the p99 latency of the jobs that finished in it.
// Pure decision logic (no clock, no device handles): the server's autoscaler
// daemon feeds it the signals and applies the returned step to the
// scheduler's active axis, which is orthogonal to the health axis (a
// quarantined device stays unplaceable whether or not it is active).
//
// The policy is deliberately simple and hysteretic:
//   grow   when avg depth >= up_queue_depth * active, or p99 exceeds
//          up_p99_ms (when that gate is armed), and active < max_active;
//   shrink when avg depth <= down_queue_depth * (active - 1), p99 is under
//          half the up gate, and active > min_active;
// with a cooldown of `cooldown` decision periods after every action so the
// pool does not flap on a single bursty window.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"

namespace bigk::serve {

struct AutoscalerConfig {
  bool enabled = false;
  /// Active-device floor; the pool never shrinks below it.
  std::uint32_t min_active = 1;
  /// Active-device ceiling; 0 = the whole pool.
  std::uint32_t max_active = 0;
  /// Decision (and signal-averaging) period; must be > 0 when enabled.
  sim::DurationPs period = sim::DurationPs{100'000'000};  // 100 us
  /// Grow when the period's average queue depth reaches this many jobs per
  /// active device.
  double up_queue_depth = 3.0;
  /// Shrink when the average depth would still be under this per device
  /// after giving one device up.
  double down_queue_depth = 1.0;
  /// Latency gate: grow when the period's p99 exceeds this (ms); 0 disarms
  /// the gate and depth alone drives scaling.
  double up_p99_ms = 0.0;
  /// Decision periods to sit out after a scaling action.
  std::uint32_t cooldown = 2;
};

class Autoscaler {
 public:
  Autoscaler(const AutoscalerConfig& config, std::uint32_t pool_size)
      : config_(config),
        max_active_(config.max_active == 0
                        ? pool_size
                        : std::min(config.max_active, pool_size)) {
    if (pool_size == 0) {
      throw std::invalid_argument("Autoscaler needs a non-empty pool");
    }
    if (config_.min_active == 0) config_.min_active = 1;
    if (config_.min_active > max_active_) config_.min_active = max_active_;
  }

  /// One decision: +1 grow, -1 shrink, 0 hold. `avg_queue_depth` is the
  /// period's mean admission-queue depth, `p99_ms` the period's p99 latency
  /// (0 when nothing completed), `active` the current active-device count.
  int decide(double avg_queue_depth, double p99_ms, std::uint32_t active) {
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      return 0;
    }
    const bool depth_high =
        avg_queue_depth >=
        config_.up_queue_depth * static_cast<double>(active);
    const bool p99_high = config_.up_p99_ms > 0.0 && p99_ms > config_.up_p99_ms;
    if ((depth_high || p99_high) && active < max_active_) {
      ++scale_ups_;
      cooldown_left_ = config_.cooldown;
      return +1;
    }
    const bool depth_low =
        avg_queue_depth <=
        config_.down_queue_depth * static_cast<double>(active - 1);
    const bool p99_low =
        config_.up_p99_ms == 0.0 || p99_ms < config_.up_p99_ms / 2.0;
    if (depth_low && p99_low && active > config_.min_active) {
      ++scale_downs_;
      cooldown_left_ = config_.cooldown;
      return -1;
    }
    return 0;
  }

  std::uint32_t min_active() const noexcept { return config_.min_active; }
  std::uint32_t max_active() const noexcept { return max_active_; }
  std::uint64_t scale_ups() const noexcept { return scale_ups_; }
  std::uint64_t scale_downs() const noexcept { return scale_downs_; }

 private:
  AutoscalerConfig config_;
  std::uint32_t max_active_;
  std::uint32_t cooldown_left_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
};

}  // namespace bigk::serve
