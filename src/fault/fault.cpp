#include "fault/fault.hpp"

#include <charconv>
#include <cstdlib>
#include <sstream>

namespace bigk::fault {
namespace {

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

// Deterministic mixer: the same (seed, spec, trial) always draws the same
// value, independent of call interleaving across sites.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

[[noreturn]] void parse_error(std::string_view text, const std::string& why) {
  throw std::invalid_argument("fault spec '" + std::string(text) + "': " + why);
}

std::uint64_t parse_u64(std::string_view text, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    parse_error(text, "expected integer, got '" + std::string(value) + "'");
  }
  return out;
}

double parse_double(std::string_view text, std::string_view value) {
  const std::string buf(value);
  char* end = nullptr;
  const double out = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    parse_error(text, "expected number, got '" + std::string(value) + "'");
  }
  return out;
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
  std::ostringstream message;
  message << "unknown fault kind '" << name << "'; valid kinds:";
  for (const char* valid : kKindNames) message << ' ' << valid;
  throw std::invalid_argument(message.str());
}

FaultSpec FaultSpec::parse_one(std::string_view text) {
  const std::string_view full = text;
  FaultSpec spec;
  std::size_t pos = text.find(',');
  spec.kind = fault_kind_from_name(trim(text.substr(0, pos)));
  text = pos == std::string_view::npos ? std::string_view{}
                                       : text.substr(pos + 1);
  while (!text.empty()) {
    pos = text.find(',');
    const std::string_view field = trim(text.substr(0, pos));
    text = pos == std::string_view::npos ? std::string_view{}
                                         : text.substr(pos + 1);
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      parse_error(full, "expected key=value, got '" + std::string(field) + "'");
    }
    const std::string_view key = trim(field.substr(0, eq));
    const std::string_view value = trim(field.substr(eq + 1));
    if (key == "p") {
      spec.probability = parse_double(full, value);
      if (spec.probability < 0.0 || spec.probability > 1.0) {
        parse_error(full, "p must be in [0, 1]");
      }
    } else if (key == "nth") {
      spec.nth = parse_u64(full, value);
      if (spec.nth == 0) parse_error(full, "nth is 1-based; must be >= 1");
    } else if (key == "every") {
      spec.every = parse_u64(full, value);
    } else if (key == "max") {
      spec.max_injections = parse_u64(full, value);
    } else if (key == "device") {
      spec.device = static_cast<std::uint32_t>(parse_u64(full, value));
    } else if (key == "factor") {
      spec.factor = parse_double(full, value);
      if (spec.factor <= 0.0) parse_error(full, "factor must be > 0");
    } else if (key == "stall_us") {
      spec.stall = parse_u64(full, value) * 1'000'000ull;
    } else if (key == "stall_ms") {
      spec.stall = parse_u64(full, value) * 1'000'000'000ull;
    } else if (key == "down_us") {
      spec.down = parse_u64(full, value) * 1'000'000ull;
    } else if (key == "down_ms") {
      spec.down = parse_u64(full, value) * 1'000'000'000ull;
    } else {
      parse_error(full, "unknown key '" + std::string(key) +
                            "' (valid: p nth every max device factor "
                            "stall_us stall_ms down_us down_ms)");
    }
  }
  // A spec without a trigger never fires — reject it up front instead of
  // letting a typo silently disarm the fault. Protocol bugs are exempt:
  // they are always-on behaviors, not triggered injections.
  if (!is_protocol_bug(spec.kind) && spec.nth == 0 && spec.probability == 0.0) {
    parse_error(full, std::string("injectable kind '") +
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
  while (true) {
    const std::size_t pos = text.find(';');
    const std::string_view piece = trim(text.substr(0, pos));
    if (!piece.empty()) specs.push_back(parse_one(piece));
    if (pos == std::string_view::npos) break;
    text = text.substr(pos + 1);
  }
  if (specs.empty()) {
    throw std::invalid_argument("fault spec list is empty");
  }
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
        splitmix64(seed_ ^ (static_cast<std::uint64_t>(index) << 48) ^
                   (static_cast<std::uint64_t>(kind) << 40) ^ t);
    fire = uniform01(draw) < spec.probability;
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
