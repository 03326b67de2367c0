// Placement of admitted jobs, and the per-device state every placement reads:
// backlog, resident app, job count, health (bigkfault quarantine and flap-
// damped reinstatement) and the autoscaler's active bit. The scheduler is
// deliberately pure bookkeeping — it never touches the simulation clock — so
// every policy is deterministic given the same sequence of events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bigk::serve {

enum class Policy : std::uint8_t {
  /// Devices in rotation, ignoring load — the baseline.
  kRoundRobin,
  /// Device with the fewest admitted-but-unfinished input bytes (a proxy for
  /// the shortest backlog when job sizes vary).
  kLeastOutstandingBytes,
  /// Prefer a device whose most recent job ran the same app: its mapped
  /// dataset is still resident, so input staging over the shared host memory
  /// bus is skipped entirely. The preference is bounded — when the warm
  /// device's backlog exceeds the emptiest device's by more than the job's
  /// own input bytes (the most a warm hit can save), the job spills to the
  /// emptiest device instead of head-of-line blocking behind the warm one.
  kAppAffinity,
};

inline const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kRoundRobin: return "round-robin";
    case Policy::kLeastOutstandingBytes: return "least-bytes";
    case Policy::kAppAffinity: return "app-affinity";
  }
  return "?";
}

/// Parses a --policy value; throws std::invalid_argument listing the valid
/// names on anything unknown.
inline Policy policy_from_name(std::string_view name) {
  if (name == "round-robin") return Policy::kRoundRobin;
  if (name == "least-bytes") return Policy::kLeastOutstandingBytes;
  if (name == "app-affinity") return Policy::kAppAffinity;
  throw std::invalid_argument(
      "unknown scheduling policy \"" + std::string(name) +
      "\"; valid policies: \"round-robin\" \"least-bytes\" \"app-affinity\"");
}

class Scheduler {
 public:
  /// Consecutive job failures on one device before it is quarantined; a
  /// device-lost failure quarantines at once.
  static constexpr std::uint32_t kQuarantineAfter = 2;
  static constexpr std::uint32_t kNoJobLimit =
      std::numeric_limits<std::uint32_t>::max();

  /// `job_limit` is how many jobs a dispatch lets one device hold.
  /// `reinstate_after` is the flap damping: the consecutive clean probes a
  /// quarantined device must pass before it is reinstated (1 = the first
  /// clean probe reinstates); it must be > 0.
  Scheduler(Policy policy, std::uint32_t num_devices,
            std::uint32_t job_limit = kNoJobLimit,
            std::uint32_t reinstate_after = 1)
      : policy_(policy),
        devices_(num_devices),
        job_limit_(job_limit),
        reinstate_after_(reinstate_after),
        min_active_(num_devices),
        max_active_(num_devices) {
    if (num_devices == 0) {
      throw std::invalid_argument("Scheduler needs at least one device");
    }
    if (reinstate_after == 0) {
      throw std::invalid_argument("Scheduler reinstate_after must be > 0");
    }
  }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  std::uint32_t num_devices() const noexcept {
    return static_cast<std::uint32_t>(devices_.size());
  }

  /// App whose dataset is resident on `device` ("" before the first job).
  /// Jobs on one device run in dispatch order, so the most recently
  /// dispatched app is the one resident when the next job starts.
  const std::string& resident_app(std::uint32_t device) const {
    return devices_.at(device).resident_app;
  }

  /// Neither quarantined nor parked: the device can take placements.
  bool placeable(std::uint32_t device) const {
    const Device& state = devices_.at(device);
    return !state.quarantined && state.active;
  }
  bool any_placeable() const { return any_candidate(/*redispatch=*/true); }
  /// Some placeable device holds fewer jobs than the job limit.
  bool can_dispatch() const { return any_candidate(/*redispatch=*/false); }

  /// Replaces the app-affinity warm-preference bound ("a warm hit saves at
  /// most the job's input bytes") with a caller-supplied estimate of what a
  /// hit on `device` would actually save — the serving layer plugs in the
  /// chunk cache's live resident-bytes figure on top of the staging skip, so
  /// a device holding a hot cached dataset is worth a proportionally longer
  /// detour. Empty function restores the input-bytes default.
  using WarmBenefitFn = std::function<std::uint64_t(
      std::uint32_t device, const std::string& app, std::uint64_t input_bytes)>;
  void set_warm_benefit(WarmBenefitFn estimator) {
    warm_benefit_ = std::move(estimator);
  }

  /// Picks the target device for a job of `app` with `input_bytes` of mapped
  /// input among the placeable devices; a dispatch also skips devices
  /// holding job_limit jobs, a redispatch (a job moved off a failed or
  /// quarantined device) does not. Ties break towards the lowest device
  /// index. Returns the num_devices() sentinel when no device qualifies.
  std::uint32_t pick_device(const std::string& app, std::uint64_t input_bytes,
                            bool redispatch = false) {
    switch (policy_) {
      case Policy::kRoundRobin: {
        for (std::uint32_t i = 0; i < num_devices(); ++i) {
          const std::uint32_t device = rr_next_;
          rr_next_ = (rr_next_ + 1) % num_devices();
          if (candidate(device, redispatch)) return device;
        }
        return num_devices();
      }
      case Policy::kLeastOutstandingBytes:
        return least_loaded(/*require_app=*/nullptr, redispatch);
      case Policy::kAppAffinity: {
        const std::uint32_t warm = least_loaded(&app, redispatch);
        const std::uint32_t cold = least_loaded(/*require_app=*/nullptr,
                                                redispatch);
        if (warm == num_devices()) return cold;
        // A warm hit saves input staging on the shared host bus (at most
        // `input_bytes`) — plus, when a warm-benefit estimator is installed,
        // whatever the device's chunk cache would skip on PCIe. Queuing
        // behind the warm device costs its backlog lead; take it only while
        // the detour is worth the saving, otherwise spill to the emptiest.
        const std::uint64_t benefit =
            warm_benefit_ ? warm_benefit_(warm, app, input_bytes)
                          : input_bytes;
        if (devices_[warm].outstanding_bytes <=
            devices_[cold].outstanding_bytes + benefit) {
          return warm;
        }
        return cold;
      }
    }
    throw std::logic_error("unhandled policy");
  }

  /// Records that a job was queued to `device` (call right after
  /// pick_device; also marks `app` as the device's resident dataset).
  void on_dispatch(std::uint32_t device, const std::string& app,
                   std::uint64_t input_bytes) {
    Device& state = devices_.at(device);
    state.outstanding_bytes += input_bytes;
    state.resident_app = app;
    ++state.jobs;
  }

  /// Records that a job dispatched to `device` left it.
  void on_complete(std::uint32_t device, std::uint64_t input_bytes) {
    Device& state = devices_.at(device);
    if (state.jobs == 0) {
      throw std::logic_error("Scheduler on_complete without a job");
    }
    state.outstanding_bytes -= std::min(state.outstanding_bytes, input_bytes);
    --state.jobs;
  }

  // --- bigkfault health: the server drives the consequences (cache reset,
  // redispatch, probing) off the transition edges these calls report.

  void on_success(std::uint32_t device) { devices_.at(device).streak = 0; }

  /// Records one failed job on `device` (a fault::FaultError out of its
  /// engine launch; `fatal` when the device itself was lost); true exactly
  /// when this failure quarantines it.
  bool on_failure(std::uint32_t device, bool fatal = false) {
    Device& state = devices_.at(device);
    ++state.streak;
    if (state.quarantined || (!fatal && state.streak < kQuarantineAfter)) {
      return false;
    }
    state.quarantined = true;
    state.streak = 0;
    ++quarantines_;
    return true;
  }

  /// Records one reinstatement-probe outcome on `device`; true exactly when
  /// this probe completes a run of reinstate_after consecutive clean probes
  /// on a quarantined device and reinstates it. A failed probe resets the
  /// clean streak, so a flapping device never re-enters the pool.
  bool on_probe(std::uint32_t device, bool clean) {
    Device& state = devices_.at(device);
    if (!state.quarantined) return false;
    state.probe_streak = clean ? state.probe_streak + 1 : 0;
    if (state.probe_streak < reinstate_after_) return false;
    state.quarantined = false;
    state.streak = 0;
    state.probe_streak = 0;
    ++reinstatements_;
    return true;
  }

  bool quarantined(std::uint32_t device) const {
    return devices_.at(device).quarantined;
  }
  std::uint64_t quarantines() const noexcept { return quarantines_; }
  std::uint64_t reinstatements() const noexcept { return reinstatements_; }

  // --- bigkload autoscaler: parking is orthogonal to health. A parked
  // device is skipped like a quarantined one, but only scale() wakes it.

  /// The autoscaler's starting pool: parks every device from `active` on.
  void park_from(std::uint32_t active) {
    for (std::uint32_t d = active; d < num_devices(); ++d) {
      devices_[d].active = false;
    }
    min_active_ = max_active_ = active_devices();
  }

  /// What one autoscaler step changed; num_devices() where nothing did.
  struct Scaling {
    std::uint32_t woken;
    std::uint32_t parked;
    /// Woken because nothing was placeable after the step.
    std::uint32_t failover;
  };

  /// Applies one autoscaler step: +1 wakes the lowest-index parked device,
  /// preferring a healthy one; -1 parks the highest-index active device,
  /// whose queued jobs still drain. Then, if nothing is placeable
  /// (quarantines can empty the active set between steps), the lowest-index
  /// healthy parked device wakes in failover.
  Scaling scale(int step) {
    Scaling scaling{num_devices(), num_devices(), num_devices()};
    if (step > 0) {
      scaling.woken = wake(parked_device(/*healthy_only=*/false));
    } else if (step < 0) {
      for (std::uint32_t d = num_devices(); d-- > 0;) {
        if (!devices_[d].active) continue;
        devices_[d].active = false;
        scaling.parked = d;
        break;
      }
    }
    if (!any_placeable()) {
      scaling.failover = wake(parked_device(/*healthy_only=*/true));
    }
    min_active_ = std::min(min_active_, active_devices());
    max_active_ = std::max(max_active_, active_devices());
    return scaling;
  }

  /// Active devices now, and the fewest and most after any scale() step.
  std::uint32_t active_devices() const {
    return static_cast<std::uint32_t>(
        std::count_if(devices_.begin(), devices_.end(),
                      [](const Device& device) { return device.active; }));
  }
  std::uint32_t min_active_devices() const noexcept { return min_active_; }
  std::uint32_t max_active_devices() const noexcept { return max_active_; }

 private:
  /// Everything placement reads about one device.
  struct Device {
    /// Admitted-but-unfinished input bytes queued to the device.
    std::uint64_t outstanding_bytes = 0;
    std::string resident_app;
    /// Jobs queued or running (a redispatch may push it past job_limit).
    std::uint32_t jobs = 0;
    bool active = true;  // false while parked by the autoscaler
    std::uint32_t streak = 0;  // consecutive failed jobs
    /// Consecutive clean reinstatement probes while quarantined.
    std::uint32_t probe_streak = 0;
    bool quarantined = false;
  };

  /// Placeable and, for a dispatch, under the job limit.
  bool candidate(std::uint32_t device, bool redispatch) const {
    return placeable(device) &&
           (redispatch || devices_[device].jobs < job_limit_);
  }
  bool any_candidate(bool redispatch) const {
    for (std::uint32_t d = 0; d < num_devices(); ++d) {
      if (candidate(d, redispatch)) return true;
    }
    return false;
  }

  /// The lowest-index parked device, preferring a healthy one (with
  /// `healthy_only`, only a healthy one); num_devices() when none is.
  std::uint32_t parked_device(bool healthy_only) const {
    std::uint32_t pick = num_devices();
    for (std::uint32_t d = 0; d < num_devices(); ++d) {
      if (devices_[d].active) continue;
      if (!devices_[d].quarantined) return d;
      if (!healthy_only && pick == num_devices()) pick = d;
    }
    return pick;
  }

  /// Activates `device` unless it is the num_devices() sentinel.
  std::uint32_t wake(std::uint32_t device) {
    if (device < num_devices()) devices_[device].active = true;
    return device;
  }

  /// Least outstanding bytes over the candidates matching `require_app`
  /// (all of them when null). Returns num_devices() if none matches.
  std::uint32_t least_loaded(const std::string* require_app,
                             bool redispatch) const {
    std::uint32_t best = num_devices();
    for (std::uint32_t d = 0; d < num_devices(); ++d) {
      if (!candidate(d, redispatch)) continue;
      if (require_app != nullptr && devices_[d].resident_app != *require_app) {
        continue;
      }
      if (best == num_devices() ||
          devices_[d].outstanding_bytes < devices_[best].outstanding_bytes) {
        best = d;
      }
    }
    return best;
  }

  Policy policy_;
  std::vector<Device> devices_;
  std::uint32_t job_limit_;
  std::uint32_t reinstate_after_;
  std::uint32_t rr_next_ = 0;
  WarmBenefitFn warm_benefit_;
  std::uint64_t quarantines_ = 0;
  std::uint64_t reinstatements_ = 0;
  std::uint32_t min_active_;
  std::uint32_t max_active_;
};

}  // namespace bigk::serve
