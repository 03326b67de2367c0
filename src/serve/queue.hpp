// Bounded admission queue: the server accepts at most `max_depth` jobs that
// are admitted but not yet finished (queued or running, across all devices),
// and at most its quota from each tenant. Beyond that, submissions are
// rejected with a retry-after hint — load is shed at the front door instead
// of growing an unbounded backlog, the standard admission-control discipline
// for latency-SLO serving.
//
// bigkfault hardening: the hint escalates per client. A client's consecutive
// rejections double its retry-after (base, 2x, 4x) up to 8x the base, and an
// acceptance resets the client's streak. Rejections are also broken down by
// cause (queue full / no available device / tenant over quota) for the
// shedding reports, and attach_metrics() publishes the live depth and the
// per-cause breakdown straight into a MetricsRegistry.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "sim/time.hpp"

namespace bigk::serve {

/// Why a submission was turned away.
enum class RejectCause : std::uint8_t {
  /// Admitted-but-unfinished depth is at max_depth.
  kQueueFull = 0,
  /// No device in the pool is placeable; nothing could run the job.
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
  /// Times a client's hint doubles before it stops growing: the cap is 8x
  /// the base.
  static constexpr std::uint32_t kMaxDoublings = 3;

  struct Admission {
    bool accepted = false;
    /// When rejected: how long the client should wait before resubmitting.
    sim::DurationPs retry_after = 0;
    RejectCause cause = RejectCause::kQueueFull;
  };

  /// `retry_after` is the hint for a client's first rejection; it doubles
  /// per consecutive rejection of the same client. `tenant_quotas` holds one
  /// admission quota per tenant (0 = unlimited).
  JobQueue(std::uint32_t max_depth, sim::DurationPs retry_after,
           std::vector<std::uint32_t> tenant_quotas = {0})
      : max_depth_(max_depth),
        retry_after_(retry_after),
        quotas_(std::move(tenant_quotas)),
        tenant_outstanding_(quotas_.size(), 0) {
    if (max_depth_ == 0) {
      throw std::invalid_argument("JobQueue depth must be > 0");
    }
    if (quotas_.empty()) {
      throw std::invalid_argument("JobQueue needs at least one tenant");
    }
  }

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Admits one job of `tenant` or rejects it with the client's escalated
  /// retry-after hint: first when the tenant is at its quota, then when
  /// `placeable` is false (no device could run the job), then when the pool
  /// is at max_depth. `client` keys the escalation streak; acceptance
  /// resets it.
  Admission try_admit(std::uint64_t client = 0, std::uint32_t tenant = 0,
                      bool placeable = true) {
    const std::uint32_t quota = quotas_.at(tenant);
    if (quota > 0 && tenant_outstanding_[tenant] >= quota) {
      return reject(RejectCause::kTenantQuota, client);
    }
    if (!placeable) return reject(RejectCause::kNoDevice, client);
    if (outstanding_ >= max_depth_) {
      return reject(RejectCause::kQueueFull, client);
    }
    ++outstanding_;
    ++tenant_outstanding_[tenant];
    streaks_.erase(client);
    if (outstanding_ > peak_depth_) peak_depth_ = outstanding_;
    on_depth_change();
    return Admission{true, 0, RejectCause::kQueueFull};
  }

  /// Marks one admitted job of `tenant` finished, freeing its pool and
  /// tenant slots.
  void release(std::uint32_t tenant = 0) {
    if (outstanding_ == 0 || tenant_outstanding_.at(tenant) == 0) {
      throw std::logic_error("JobQueue release without outstanding job");
    }
    --outstanding_;
    --tenant_outstanding_[tenant];
    on_depth_change();
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

  std::uint32_t outstanding() const noexcept { return outstanding_; }
  std::uint32_t peak_depth() const noexcept { return peak_depth_; }
  /// bigkprof: the running sum and count of the depths after every admit
  /// and release, so a periodic daemon can average the depth over its
  /// period from two readings.
  std::uint64_t depth_sum() const noexcept { return depth_sum_; }
  std::uint64_t depth_samples() const noexcept { return depth_samples_; }
  /// Total rejections issued (one job may be rejected several times).
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t rejected(RejectCause cause) const noexcept {
    return rejected_by_cause_[static_cast<std::size_t>(cause)];
  }

 private:
  /// Counts a rejection and returns it with the client's escalated hint.
  Admission reject(RejectCause cause, std::uint64_t client) {
    ++rejected_;
    ++rejected_by_cause_[static_cast<std::size_t>(cause)];
    if (reject_counters_[static_cast<std::size_t>(cause)] != nullptr) {
      reject_counters_[static_cast<std::size_t>(cause)]->add(1);
    }
    std::uint32_t& streak = streaks_[client];
    const sim::DurationPs hint = retry_after_
                                 << std::min(streak, kMaxDoublings);
    ++streak;
    return Admission{false, hint, cause};
  }

  void on_depth_change() {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<double>(outstanding_));
    }
    depth_sum_ += outstanding_;
    ++depth_samples_;
  }

  std::uint32_t max_depth_;
  sim::DurationPs retry_after_;
  std::vector<std::uint32_t> quotas_;
  std::vector<std::uint32_t> tenant_outstanding_;
  std::uint32_t outstanding_ = 0;
  std::uint32_t peak_depth_ = 0;
  std::uint64_t depth_sum_ = 0;
  std::uint64_t depth_samples_ = 0;
  std::uint64_t rejected_ = 0;
  std::array<std::uint64_t, kNumRejectCauses> rejected_by_cause_{};
  /// Consecutive rejections per client since its last acceptance.
  std::map<std::uint64_t, std::uint32_t> streaks_;
  /// Live metrics sinks (null until attach_metrics).
  obs::Gauge* depth_gauge_ = nullptr;
  std::array<obs::Counter*, kNumRejectCauses> reject_counters_{};
};

}  // namespace bigk::serve
