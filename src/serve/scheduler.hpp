// Placement policies for admitted jobs. The scheduler is deliberately pure
// bookkeeping — it never touches the simulation clock — so every policy is
// deterministic given the same sequence of dispatch/complete events.
#pragma once

#include <cstdint>
#include <functional>
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
  Scheduler(Policy policy, std::uint32_t num_devices)
      : policy_(policy), devices_(num_devices) {
    if (num_devices == 0) {
      throw std::invalid_argument("Scheduler needs at least one device");
    }
  }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Policy policy() const noexcept { return policy_; }
  std::uint32_t num_devices() const noexcept {
    return static_cast<std::uint32_t>(devices_.size());
  }

  /// App whose dataset is resident on `device` ("" before the first job).
  /// Jobs on one device run in dispatch order, so the most recently
  /// dispatched app is the one resident when the next job starts.
  const std::string& resident_app(std::uint32_t device) const {
    return devices_.at(device).resident_app;
  }

  std::uint64_t outstanding_bytes(std::uint32_t device) const {
    return devices_.at(device).outstanding_bytes;
  }

  /// bigkfault: a quarantined device is marked unavailable and every policy
  /// skips it until it is reinstated.
  void set_available(std::uint32_t device, bool available) {
    devices_.at(device).available = available;
  }
  bool available(std::uint32_t device) const {
    return devices_.at(device).available;
  }

  /// bigkload autoscaler axis, orthogonal to health: a parked (inactive)
  /// device is skipped by every policy exactly like a quarantined one, but
  /// reinstatement never reactivates it — only the autoscaler flips this
  /// bit. A device takes placements only when available AND active.
  void set_active(std::uint32_t device, bool active) {
    devices_.at(device).active = active;
  }
  bool active(std::uint32_t device) const {
    return devices_.at(device).active;
  }

  /// Healthy and active: the device can take placements.
  bool placeable(std::uint32_t device) const {
    const DeviceState& state = devices_.at(device);
    return state.available && state.active;
  }
  std::uint32_t num_available() const {
    std::uint32_t count = 0;
    for (const DeviceState& state : devices_) {
      if (state.available && state.active) ++count;
    }
    return count;
  }
  bool any_available() const { return num_available() > 0; }

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
  /// input. Ties break towards the lowest device index. Returns the
  /// num_devices() sentinel when every device is unavailable. The optional
  /// `eligible` mask (one entry per device) further restricts the candidate
  /// set — serve's dispatch step passes the placeable devices holding
  /// fewer jobs than its per-device limit.
  std::uint32_t pick_device(const std::string& app, std::uint64_t input_bytes,
                            const std::vector<std::uint8_t>* eligible =
                                nullptr) {
    switch (policy_) {
      case Policy::kRoundRobin: {
        for (std::uint32_t i = 0; i < num_devices(); ++i) {
          const std::uint32_t device = rr_next_;
          rr_next_ = (rr_next_ + 1) % num_devices();
          if (placeable(device) && is_eligible(eligible, device)) {
            return device;
          }
        }
        return num_devices();
      }
      case Policy::kLeastOutstandingBytes:
        return least_loaded(/*require_app=*/nullptr, eligible);
      case Policy::kAppAffinity: {
        const std::uint32_t warm = least_loaded(&app, eligible);
        const std::uint32_t cold = least_loaded(/*require_app=*/nullptr,
                                                eligible);
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
    DeviceState& state = devices_.at(device);
    state.outstanding_bytes += input_bytes;
    state.resident_app = app;
  }

  void on_complete(std::uint32_t device, std::uint64_t input_bytes) {
    DeviceState& state = devices_.at(device);
    state.outstanding_bytes -= std::min(state.outstanding_bytes, input_bytes);
  }

 private:
  struct DeviceState {
    std::uint64_t outstanding_bytes = 0;
    std::string resident_app;
    bool available = true;  // false while quarantined
    bool active = true;     // false while parked by the autoscaler
  };

  static bool is_eligible(const std::vector<std::uint8_t>* eligible,
                          std::uint32_t device) {
    return eligible == nullptr || (*eligible)[device] != 0;
  }

  /// Least outstanding bytes over placeable devices matching `require_app`
  /// (all of them when null). Returns num_devices() if none matches.
  std::uint32_t least_loaded(const std::string* require_app,
                             const std::vector<std::uint8_t>* eligible =
                                 nullptr) const {
    std::uint32_t best = num_devices();
    for (std::uint32_t d = 0; d < num_devices(); ++d) {
      if (!placeable(d) || !is_eligible(eligible, d)) continue;
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
  std::vector<DeviceState> devices_;
  std::uint32_t rr_next_ = 0;
  WarmBenefitFn warm_benefit_;
};

}  // namespace bigk::serve
