// bigkfault: a deterministic, seeded fault plane for the whole stack.
//
// A FaultPlane owns a set of FaultSpecs — each names an injectable fault kind
// (dma_error, pcie_degrade, device_lost, ecc_corrupt, pinned_alloc_fail,
// stage_stall, plus the engine's seeded protocol bugs) with a trigger: either
// the nth occurrence at that injection site (optionally repeating every N
// trials) or a per-trial probability drawn from a seeded hash, so two runs
// with the same seed and workload inject at exactly the same sim events.
//
// Injection sites pull the plane through their owning cusim::Runtime:
//   - cusim::Stream worker      dma_error / ecc_corrupt / device_lost on
//                               H2D+D2H ops (the op completes, marked failed)
//   - gpusim::Gpu::link_cost    pcie_degrade (bandwidth divided by `factor`)
//   - cache::PinnedPool /       pinned_alloc_fail (throws PinnedAllocError;
//     core::Engine prefetch     the engine degrades ring depth instead)
//   - core::Engine assembly     stage_stall (absorbed delay, or TimeoutError
//                               via the stage watchdog when >= the timeout)
//
// Recovery bookkeeping is the contract: every injection increments
// `fault.injected`, and whichever layer absorbs it (engine chunk retry,
// degraded ring, serve quarantine + reinstatement probe) reports
// on_recovered() so `fault.recovered == fault.injected` holds at the end of a
// successfully recovered run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <stdexcept>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/time.hpp"

namespace bigk::fault {

/// FaultSpec::device wildcard: the spec applies to every device.
inline constexpr std::uint32_t kAnyDevice = 0xffffffffu;

enum class FaultKind : std::uint8_t {
  kDmaError = 0,       // H2D/D2H op completes with an error; data not moved
  kPcieDegrade,        // link bandwidth divided by `factor` once triggered
  kDeviceLost,         // device trips; every later op on it fails until probed
  kEccCorrupt,         // H2D lands, then device bytes are corrupted
  kPinnedAllocFail,    // pinned staging allocation throws PinnedAllocError
  kStageStall,         // assembly stage stalls for `stall` picoseconds
  // Seeded protocol bugs: always-on behaviors used by the checker tests,
  // named here so one registry covers every injectable fault.
  kSkipDataReadyWait,
  kEarlyRingRelease,
  kStaleCache,
  // bigkdur silent-corruption family: a single bit flips somewhere along the
  // chunk's custody chain and *no* error is reported — the integrity plane
  // (dur::Integrity checksums) is the only thing that can catch it.
  kBitflipDma,        // flips a byte of the landed H2D image (silent)
  kBitflipCache,      // flips a byte of a resident ChunkCache entry
  kBitflipWriteback,  // flips a staged write-back value after compute
};

inline constexpr std::size_t kNumFaultKinds = 12;

/// Canonical spec-grammar name ("dma_error", "stage_stall", ...).
const char* fault_kind_name(FaultKind kind);

/// Parses a kind name. Accepts the canonical names plus "fault."-prefixed
/// aliases ("fault.stale_cache" == "stale_cache"). Throws
/// std::invalid_argument listing the valid names otherwise.
FaultKind fault_kind_from_name(std::string_view name);

/// One injectable fault. Grammar (see FaultSpec::parse):
///
///   spec     := kind ("," key "=" value)*
///   speclist := spec (";" spec)*
///
/// Keys: p (probability per trial), nth (1-based trial index), every (repeat
/// period after nth), max (max injections, 0 = unlimited), device (restrict
/// to one device index), factor (pcie_degrade divisor), stall_us / stall_ms
/// (stage_stall duration), down_us / down_ms (device_lost outage before a
/// reinstatement probe succeeds; 0 = first probe succeeds). Tokens follow
/// sim/spec.hpp: blanks are trimmed, empty pieces skipped, p and factor
/// must be finite, and every integer must fit its field.
///
/// Every injectable (non-protocol-bug) spec must carry a trigger — p or nth —
/// or parsing rejects it: a trigger-less spec would silently never fire, the
/// classic typo'd-fault-spec footgun. The protocol bugs
/// (skip_data_ready_wait / early_ring_release / stale_cache) are always-on
/// behaviors and take no trigger.
///
/// Examples: "dma_error,nth=3"  "dma_error,p=0.01"
///           "device_lost,nth=1,device=2,down_ms=1"
///           "stage_stall,nth=2,stall_ms=1;pinned_alloc_fail,nth=3"
struct FaultSpec {
  FaultKind kind = FaultKind::kDmaError;
  double probability = 0.0;        // 0 = use nth
  std::uint64_t nth = 0;           // 1-based; 0 = use probability
  std::uint64_t every = 0;         // 0 = fire only at nth
  std::uint64_t max_injections = 0;  // 0 = unlimited
  std::uint32_t device = kAnyDevice;
  double factor = 4.0;             // pcie_degrade bandwidth divisor
  sim::DurationPs stall = 0;       // stage_stall duration
  sim::DurationPs down = 0;        // device_lost outage before probe succeeds

  static FaultSpec parse_one(std::string_view text);
  /// Parses a ';'-separated list of specs.
  static std::vector<FaultSpec> parse(std::string_view text);
  std::string to_string() const;
};

struct FaultStats {
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t degraded = 0;  // ring-depth degradations (pinned_alloc_fail)
  std::array<std::uint64_t, kNumFaultKinds> injected_by_kind{};
  std::array<std::uint64_t, kNumFaultKinds> recovered_by_kind{};
};

class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DmaError : public FaultError {
 public:
  using FaultError::FaultError;
};

class DeviceLostError : public FaultError {
 public:
  using FaultError::FaultError;
};

class PinnedAllocError : public FaultError {
 public:
  using FaultError::FaultError;
};

class TimeoutError : public FaultError {
 public:
  using FaultError::FaultError;
};

class FaultPlane {
 public:
  explicit FaultPlane(std::uint64_t seed = 0) : seed_(seed) {}
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  void add(FaultSpec spec) { specs_.push_back(SpecState{spec, 0, 0}); }
  void add_all(const std::vector<FaultSpec>& specs) {
    for (const FaultSpec& spec : specs) add(spec);
  }

  /// One trial at an injection site; true means the fault fires now (and is
  /// counted as injected). For kDeviceLost a firing trial also trips the
  /// device's persistent lost state.
  bool should_inject(FaultKind kind, std::uint32_t device, sim::TimePs now);

  /// True when a spec of this always-on protocol-bug kind covers `device`.
  /// Trigger fields (p/nth) are ignored: protocol bugs are per-run behaviors.
  bool protocol_bug(FaultKind kind, std::uint32_t device) const;

  /// Current pcie bandwidth divisor for `device` (1.0 = healthy). Runs the
  /// kPcieDegrade trigger; once fired the degradation is sticky. Degradation
  /// is perf-only — the transfer still completes correctly — so it counts as
  /// recovered the moment it is injected.
  double pcie_factor(std::uint32_t device, sim::TimePs now);

  /// Runs the kStageStall trigger; the stall duration when it fires.
  std::optional<sim::DurationPs> stall_duration(std::uint32_t device,
                                                sim::TimePs now);

  // --- device-lost state machine -------------------------------------------
  bool device_lost(std::uint32_t device) const {
    const auto it = lost_.find(device);
    return it != lost_.end() && it->second.lost;
  }
  /// Health-probe hook: true when the device recovered (outage elapsed, or
  /// immediately when the spec's `down` is 0). Counts kDeviceLost recovered.
  bool probe_device(std::uint32_t device, sim::TimePs now);

  // --- recovery bookkeeping ------------------------------------------------
  void on_recovered(FaultKind kind, std::uint64_t count = 1);
  /// A ring-depth degradation absorbed a pinned_alloc_fail.
  void on_degraded();

  const FaultStats& stats() const noexcept { return stats_; }

  /// Registers fault.injected / fault.recovered / fault.degraded counters
  /// (plus per-kind breakdowns on injection) and a "fault" trace track for
  /// injection/recovery instants.
  void attach_observability(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

 private:
  struct SpecState {
    FaultSpec spec;
    std::uint64_t trials = 0;
    std::uint64_t fired = 0;
  };
  struct DeviceLoss {
    bool lost = false;
    sim::TimePs lost_at = 0;
    sim::DurationPs down = 0;
  };

  bool trial(SpecState& state, std::size_t index, FaultKind kind,
             std::uint32_t device);
  void note_injected(FaultKind kind, std::uint32_t device, sim::TimePs now);
  void note_recovered(FaultKind kind, std::uint64_t count);

  std::uint64_t seed_;
  std::vector<SpecState> specs_;
  std::map<std::uint32_t, DeviceLoss> lost_;
  std::map<std::uint32_t, double> degrade_;  // device -> active pcie divisor
  FaultStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId trace_track_{};
};

}  // namespace bigk::fault
