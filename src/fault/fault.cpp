#include "fault/fault.hpp"

#include <sstream>

#include "sim/hash.hpp"
#include "sim/spec.hpp"

namespace bigk::fault {
namespace {

constexpr std::string_view kGrammar = "fault spec";

constexpr std::array<const char*, kNumFaultKinds> kKindNames = {
    "dma_error",        "pcie_degrade",      "device_lost",
    "ecc_corrupt",      "pinned_alloc_fail", "stage_stall",
    "skip_data_ready_wait", "early_ring_release", "stale_cache",
    "bitflip_dma",      "bitflip_cache",     "bitflip_writeback",
};

/// Always-on per-run behaviors: the only kinds a spec may name without a
/// p/nth trigger.
bool is_protocol_bug(FaultKind kind) {
  return kind == FaultKind::kSkipDataReadyWait ||
         kind == FaultKind::kEarlyRingRelease ||
         kind == FaultKind::kStaleCache;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

FaultKind fault_kind_from_name(std::string_view name) {
  // "fault.stale_cache" aliases "stale_cache": the seeded protocol bugs were
  // once spelled with the "fault." prefix in docs and tests.
  if (name.rfind("fault.", 0) == 0) name.remove_prefix(6);
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) return static_cast<FaultKind>(i);
  }
  std::string valid;
  for (const char* kind : kKindNames) (valid += ' ') += kind;
  sim::spec::fail(kGrammar, {}, name,
                  "unknown fault kind (valid:" + valid + ")");
}

FaultSpec FaultSpec::parse_one(std::string_view text) {
  const std::vector<std::string_view> pieces = sim::spec::split(text, ',');
  if (pieces.empty()) sim::spec::fail(kGrammar, {}, text, "empty spec");
  FaultSpec spec;
  spec.kind = fault_kind_from_name(pieces.front());
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    const sim::spec::Field field = sim::spec::key_value(kGrammar, pieces[i]);
    const std::string_view key = field.key;
    if (key == "p") {
      spec.probability = field.number<double>();
      if (spec.probability < 0.0 || spec.probability > 1.0) {
        field.fail("must be in [0, 1]");
      }
    } else if (key == "nth") {
      spec.nth = field.positive<std::uint64_t>();
    } else if (key == "every") {
      spec.every = field.number<std::uint64_t>();
    } else if (key == "max") {
      spec.max_injections = field.number<std::uint64_t>();
    } else if (key == "device") {
      spec.device = field.number<std::uint32_t>();
    } else if (key == "factor") {
      spec.factor = field.positive<double>();
    } else if (key == "stall_us" || key == "stall_ms") {
      spec.stall = field.duration<std::uint64_t>(
          key == "stall_us" ? sim::kMicrosecond : sim::kMillisecond);
    } else if (key == "down_us" || key == "down_ms") {
      spec.down = field.duration<std::uint64_t>(
          key == "down_us" ? sim::kMicrosecond : sim::kMillisecond);
    } else {
      field.fail("unknown key (valid: p nth every max device factor "
                 "stall_us stall_ms down_us down_ms)");
    }
  }
  // A spec without a trigger never fires — reject it up front instead of
  // letting a typo silently disarm the fault. Protocol bugs are exempt:
  // they are always-on behaviors, not triggered injections.
  if (!is_protocol_bug(spec.kind) && spec.nth == 0 && spec.probability == 0.0) {
    sim::spec::fail(kGrammar, {}, text,
                    std::string("injectable kind '") +
                        fault_kind_name(spec.kind) +
                        "' has no trigger; add p=<probability> or "
                        "nth=<trial> (protocol bugs skip_data_ready_wait "
                        "early_ring_release stale_cache are always-on and "
                        "take none)");
  }
  return spec;
}

std::vector<FaultSpec> FaultSpec::parse(std::string_view text) {
  std::vector<FaultSpec> specs;
  for (const std::string_view piece : sim::spec::split(text, ';')) {
    specs.push_back(parse_one(piece));
  }
  if (specs.empty()) sim::spec::fail(kGrammar, {}, text, "empty spec list");
  return specs;
}

std::string FaultSpec::to_string() const {
  std::ostringstream out;
  out << fault_kind_name(kind);
  if (probability > 0.0) out << ",p=" << probability;
  if (nth != 0) out << ",nth=" << nth;
  if (every != 0) out << ",every=" << every;
  if (max_injections != 0) out << ",max=" << max_injections;
  if (device != kAnyDevice) out << ",device=" << device;
  if (kind == FaultKind::kPcieDegrade) out << ",factor=" << factor;
  if (stall != 0) out << ",stall_us=" << stall / 1'000'000ull;
  if (down != 0) out << ",down_us=" << down / 1'000'000ull;
  return out.str();
}

bool FaultPlane::trial(SpecState& state, std::size_t index, FaultKind kind,
                       std::uint32_t device) {
  const FaultSpec& spec = state.spec;
  if (spec.kind != kind) return false;
  if (spec.device != kAnyDevice && spec.device != device) return false;
  const std::uint64_t t = ++state.trials;
  if (spec.max_injections != 0 && state.fired >= spec.max_injections) {
    return false;
  }
  bool fire = false;
  if (spec.nth != 0) {
    if (t == spec.nth) {
      fire = true;
    } else if (spec.every != 0 && t > spec.nth &&
               (t - spec.nth) % spec.every == 0) {
      fire = true;
    }
  } else if (spec.probability > 0.0) {
    const std::uint64_t draw =
        sim::splitmix64(seed_ ^ (static_cast<std::uint64_t>(index) << 48) ^
                        (static_cast<std::uint64_t>(kind) << 40) ^ t);
    fire = sim::unit_interval(draw) < spec.probability;
  }
  if (fire) ++state.fired;
  return fire;
}

bool FaultPlane::should_inject(FaultKind kind, std::uint32_t device,
                               sim::TimePs now) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!trial(specs_[i], i, kind, device)) continue;
    if (kind == FaultKind::kDeviceLost) {
      DeviceLoss& loss = lost_[device];
      loss.lost = true;
      loss.lost_at = now;
      loss.down = specs_[i].spec.down;
    }
    note_injected(kind, device, now);
    return true;
  }
  return false;
}

bool FaultPlane::protocol_bug(FaultKind kind, std::uint32_t device) const {
  for (const SpecState& state : specs_) {
    if (state.spec.kind != kind) continue;
    if (state.spec.device != kAnyDevice && state.spec.device != device) {
      continue;
    }
    return true;
  }
  return false;
}

double FaultPlane::pcie_factor(std::uint32_t device, sim::TimePs now) {
  const auto active = degrade_.find(device);
  if (active != degrade_.end()) return active->second;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!trial(specs_[i], i, FaultKind::kPcieDegrade, device)) continue;
    degrade_[device] = specs_[i].spec.factor;
    note_injected(FaultKind::kPcieDegrade, device, now);
    // Perf-only: the transfer completes (slower), so the pipeline has
    // absorbed the fault the moment it lands.
    note_recovered(FaultKind::kPcieDegrade, 1);
    return specs_[i].spec.factor;
  }
  return 1.0;
}

std::optional<sim::DurationPs> FaultPlane::stall_duration(std::uint32_t device,
                                                          sim::TimePs now) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!trial(specs_[i], i, FaultKind::kStageStall, device)) continue;
    note_injected(FaultKind::kStageStall, device, now);
    return specs_[i].spec.stall;
  }
  return std::nullopt;
}

bool FaultPlane::probe_device(std::uint32_t device, sim::TimePs now) {
  const auto it = lost_.find(device);
  if (it == lost_.end() || !it->second.lost) return true;
  if (it->second.down != 0 && now < it->second.lost_at + it->second.down) {
    return false;
  }
  it->second.lost = false;
  note_recovered(FaultKind::kDeviceLost, 1);
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_,
                     std::string("reinstate dev") + std::to_string(device),
                     now, "fault");
  }
  return true;
}

void FaultPlane::on_recovered(FaultKind kind, std::uint64_t count) {
  note_recovered(kind, count);
}

void FaultPlane::on_degraded() {
  ++stats_.degraded;
  if (metrics_ != nullptr) metrics_->counter("fault.degraded").add(1);
}

void FaultPlane::note_injected(FaultKind kind, std::uint32_t device,
                               sim::TimePs now) {
  ++stats_.injected;
  ++stats_.injected_by_kind[static_cast<std::size_t>(kind)];
  if (metrics_ != nullptr) {
    metrics_->counter("fault.injected").add(1);
    metrics_
        ->counter(std::string("fault.injected.") + fault_kind_name(kind))
        .add(1);
  }
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_,
                     std::string(fault_kind_name(kind)) + " dev" +
                         std::to_string(device),
                     now, "fault");
  }
}

void FaultPlane::note_recovered(FaultKind kind, std::uint64_t count) {
  stats_.recovered += count;
  stats_.recovered_by_kind[static_cast<std::size_t>(kind)] += count;
  if (metrics_ != nullptr) {
    metrics_->counter("fault.recovered").add(count);
    metrics_
        ->counter(std::string("fault.recovered.") + fault_kind_name(kind))
        .add(count);
  }
}

void FaultPlane::attach_observability(obs::MetricsRegistry* metrics,
                                      obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  if (metrics_ != nullptr) {
    // Pre-register the headline counters so a fault-free run still exports
    // fault.injected == fault.recovered == 0.
    metrics_->counter("fault.injected");
    metrics_->counter("fault.recovered");
    metrics_->counter("fault.degraded");
  }
  if (tracer_ != nullptr) {
    trace_track_ = tracer_->track("fault", "injections");
  }
}

}  // namespace bigk::fault
