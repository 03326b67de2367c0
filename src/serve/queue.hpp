// Bounded admission queue: the server accepts at most `max_depth` jobs that
// are admitted but not yet finished (queued or running, across all devices).
// Beyond that, submissions are rejected with a retry-after hint — load is
// shed at the front door instead of growing an unbounded backlog, the
// standard admission-control discipline for latency-SLO serving.
//
// bigkfault hardening: the hint escalates per client. A client's consecutive
// rejections double its retry-after (base, 2x, 4x, ...) up to a cap, with an
// optional deterministic jitter drawn from a seeded splitmix64 hash of
// (client, streak) so synchronized clients fan out instead of re-colliding —
// the classic thundering-herd fix, reproduced bit-for-bit on every run. An
// acceptance resets the client's streak. Rejections are also broken down by
// cause (queue full / no available device / tenant over quota) for the
// shedding reports, and attach_metrics() publishes the live depth and the
// per-cause breakdown straight into a MetricsRegistry.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/metrics_registry.hpp"
#include "sim/hash.hpp"
#include "sim/time.hpp"

namespace bigk::serve {

/// Why a submission was turned away.
enum class RejectCause : std::uint8_t {
  /// Admitted-but-unfinished depth is at max_depth.
  kQueueFull = 0,
  /// Every device in the pool is quarantined; nothing could run the job.
  kNoDevice,
  /// bigkload QoS: the job's tenant is at its per-tenant admission quota.
  kTenantQuota,
};

inline constexpr std::size_t kNumRejectCauses = 3;

inline const char* reject_cause_name(RejectCause cause) {
  switch (cause) {
    case RejectCause::kQueueFull: return "queue_full";
    case RejectCause::kNoDevice: return "no_device";
    case RejectCause::kTenantQuota: return "tenant_quota";
  }
  return "?";
}

class JobQueue {
 public:
  struct Config {
    std::uint32_t max_depth = 16;
    /// Hint for a client's first rejection; doubles per consecutive
    /// rejection of the same client.
    sim::DurationPs retry_after = sim::DurationPs{1'000'000'000};  // 1 ms
    /// Escalation ceiling. 0 = 8x retry_after; equal to retry_after
    /// disables escalation (every hint is the base).
    sim::DurationPs max_retry_after = 0;
    /// Seed for the deterministic per-(client, streak) jitter in
    /// [0, hint/4]; 0 = no jitter.
    std::uint64_t jitter_seed = 0;
  };

  struct Admission {
    bool accepted = false;
    /// When rejected: how long the client should wait before resubmitting.
    sim::DurationPs retry_after = 0;
    RejectCause cause = RejectCause::kQueueFull;
  };

  explicit JobQueue(Config config) : config_(config) {
    if (config_.max_depth == 0) {
      throw std::invalid_argument("JobQueue depth must be > 0");
    }
    if (config_.max_retry_after == 0) {
      config_.max_retry_after = 8 * config_.retry_after;
    }
  }

  /// Constant-hint queue (no escalation, no jitter): every rejection returns
  /// `retry_after` verbatim.
  JobQueue(std::uint32_t max_depth, sim::DurationPs retry_after)
      : JobQueue(Config{max_depth, retry_after, retry_after, 0}) {}

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Admits one job or rejects it with the client's escalated retry-after
  /// hint. `client` keys the escalation streak (the server passes the job
  /// id); acceptance resets it.
  Admission try_admit(std::uint64_t client = 0) {
    if (outstanding_ >= config_.max_depth) {
      return Admission{false, reject(RejectCause::kQueueFull, client),
                       RejectCause::kQueueFull};
    }
    ++outstanding_;
    ++admitted_;
    streaks_.erase(client);
    if (outstanding_ > peak_depth_) peak_depth_ = outstanding_;
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<double>(outstanding_));
    }
    if (depth_observer_) depth_observer_(outstanding_);
    return Admission{true, 0, RejectCause::kQueueFull};
  }

  /// Counts a rejection the caller decided on (e.g. the whole pool is
  /// quarantined) and returns the client's escalated hint — the same
  /// bookkeeping a queue-full rejection runs.
  sim::DurationPs reject(RejectCause cause, std::uint64_t client = 0) {
    ++rejected_;
    ++rejected_by_cause_[static_cast<std::size_t>(cause)];
    if (reject_counters_[static_cast<std::size_t>(cause)] != nullptr) {
      reject_counters_[static_cast<std::size_t>(cause)]->add(1);
    }
    std::uint32_t& streak = streaks_[client];
    sim::DurationPs hint = config_.retry_after;
    for (std::uint32_t i = 0; i < streak && hint < config_.max_retry_after;
         ++i) {
      hint *= 2;
    }
    if (hint > config_.max_retry_after) hint = config_.max_retry_after;
    if (config_.jitter_seed != 0) {
      hint += sim::splitmix64(config_.jitter_seed ^
                              (client * sim::kSplitMixGamma) ^ streak) %
              (hint / 4 + 1);
    }
    ++streak;
    return hint;
  }

  /// Marks one admitted job finished, freeing its queue slot.
  void release() {
    if (outstanding_ == 0) {
      throw std::logic_error("JobQueue release without outstanding job");
    }
    --outstanding_;
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<double>(outstanding_));
    }
    if (depth_observer_) depth_observer_(outstanding_);
  }

  /// Publishes the queue's live state into `registry` under `prefix`: an
  /// instantaneous `<prefix>.queue.depth` gauge updated at every admit /
  /// release transition, and one `<prefix>.queue.rejected.<cause>` counter
  /// per RejectCause (registered immediately, so the breakdown is present —
  /// as zeros — even on runs that never reject).
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) {
    depth_gauge_ = &registry.gauge(prefix + ".queue.depth");
    depth_gauge_->set(static_cast<double>(outstanding_));
    for (std::size_t c = 0; c < kNumRejectCauses; ++c) {
      reject_counters_[c] = &registry.counter(
          prefix + ".queue.rejected." +
          reject_cause_name(static_cast<RejectCause>(c)));
    }
  }

  /// bigkprof: called with the new outstanding depth on every admit and
  /// release, so windowed telemetry can sample queue depth at the exact
  /// transition instants instead of polling. Empty function detaches.
  void set_depth_observer(std::function<void(std::uint32_t)> observer) {
    depth_observer_ = std::move(observer);
  }

  std::uint32_t outstanding() const noexcept { return outstanding_; }
  std::uint32_t max_depth() const noexcept { return config_.max_depth; }
  std::uint32_t peak_depth() const noexcept { return peak_depth_; }
  std::uint64_t admitted() const noexcept { return admitted_; }
  /// Total rejections issued (one job may be rejected several times).
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t rejected(RejectCause cause) const noexcept {
    return rejected_by_cause_[static_cast<std::size_t>(cause)];
  }

 private:
  Config config_;
  std::uint32_t outstanding_ = 0;
  std::uint32_t peak_depth_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::array<std::uint64_t, kNumRejectCauses> rejected_by_cause_{};
  /// Consecutive rejections per client since its last acceptance.
  std::map<std::uint64_t, std::uint32_t> streaks_;
  std::function<void(std::uint32_t)> depth_observer_;
  /// Live metrics sinks (null until attach_metrics).
  obs::Gauge* depth_gauge_ = nullptr;
  std::array<obs::Counter*, kNumRejectCauses> reject_counters_{};
};

}  // namespace bigk::serve
