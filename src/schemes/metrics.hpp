// Result record common to all execution schemes; the benchmark harness
// derives every paper figure from these.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "core/metrics.hpp"
#include "obs/json.hpp"
#include "obs/stage.hpp"
#include "sim/time.hpp"

namespace bigk::schemes {

enum class Scheme : std::uint8_t {
  kCpuSerial,
  kCpuMultiThreaded,
  kGpuSingleBuffer,
  kGpuDoubleBuffer,
  kBigKernel,
  kHetero,
};

inline const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kCpuSerial: return "CPU serial";
    case Scheme::kCpuMultiThreaded: return "CPU multi-threaded";
    case Scheme::kGpuSingleBuffer: return "GPU single buffer";
    case Scheme::kGpuDoubleBuffer: return "GPU double buffer";
    case Scheme::kBigKernel: return "GPU BigKernel";
    case Scheme::kHetero: return "CPU+GPU hetero";
  }
  return "?";
}

/// Short machine-readable tag (bigklint's scheme enumeration, CLI flags).
inline const char* scheme_tag(Scheme scheme) {
  switch (scheme) {
    case Scheme::kCpuSerial: return "cpu-serial";
    case Scheme::kCpuMultiThreaded: return "cpu-mt";
    case Scheme::kGpuSingleBuffer: return "gpu-single";
    case Scheme::kGpuDoubleBuffer: return "gpu-double";
    case Scheme::kBigKernel: return "bigkernel";
    case Scheme::kHetero: return "hetero";
  }
  return "?";
}

/// Every registered scheme in evaluation order. One kernel source runs under
/// all of them (the bigkstatic contract gate is execution-side agnostic), so
/// enumeration paths — bigklint, admission gates, bench sweeps — must stay
/// in sync with this list.
inline constexpr std::array<Scheme, 6> all_schemes() {
  return {Scheme::kCpuSerial,       Scheme::kCpuMultiThreaded,
          Scheme::kGpuSingleBuffer, Scheme::kGpuDoubleBuffer,
          Scheme::kBigKernel,       Scheme::kHetero};
}

struct RunMetrics {
  Scheme scheme = Scheme::kCpuSerial;
  sim::DurationPs total_time = 0;

  /// PCIe busy time, both directions (the "communication" of Fig. 4b).
  sim::DurationPs comm_busy = 0;
  /// Total SM busy time (the "computation" of Fig. 4b).
  sim::DurationPs comp_busy = 0;

  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t pinned_bytes = 0;

  /// Total bigkcheck violations (0 when checking was off or the run was
  /// clean; a non-zero value also makes the runner throw check::CheckError).
  std::uint64_t check_violations = 0;

  /// Populated only for the engine schemes (BigKernel and hetero).
  core::EngineMetrics engine;

  /// bigkprof attribution summary. The run-level bottleneck and overlap
  /// come from `engine`'s stage sums (RunScaffold::finish), so they are set
  /// for the engine schemes only; the windowed fields for BigKernel runs
  /// with a profiling window.
  struct ProfSummary {
    /// Run-level limiting stage as an obs::Stage index; -1 = not profiled.
    std::int32_t bottleneck = -1;
    /// 1 - total_time / sum(stage busy), clamped at 0.
    double overlap_efficiency = 0.0;
    /// Window count / flip count from the windowed timeline (0 when the run
    /// was not profiled with a window).
    std::uint64_t windows = 0;
    std::uint64_t bottleneck_flips = 0;
    /// Attribution window width in milliseconds (0 = run-level only).
    double window_ms = 0.0;
  };
  ProfSummary prof;

  /// Co-execution summary, populated only for hetero runs.
  struct HeteroSummary {
    /// Balancer ratio after the final round (== the static knob when the
    /// balancer never re-split).
    double final_cpu_ratio = 0.0;
    std::uint64_t cpu_records = 0;
    std::uint64_t gpu_records = 0;
    /// Co-execution rounds (1 for a static split).
    std::uint64_t rounds = 0;
    /// Final per-side EWMA chunk throughput (0 = side never sampled).
    double cpu_chunks_per_s = 0.0;
    double gpu_chunks_per_s = 0.0;
  };
  HeteroSummary hetero;

  const char* bottleneck_stage_name() const {
    if (prof.bottleneck < 0 ||
        prof.bottleneck >= static_cast<std::int32_t>(obs::kStageCount)) {
      return "n/a";
    }
    return obs::stage_name(static_cast<obs::Stage>(prof.bottleneck));
  }

  double comm_fraction() const {
    const double total = static_cast<double>(comm_busy + comp_busy);
    return total == 0.0 ? 0.0 : static_cast<double>(comm_busy) / total;
  }

  /// Machine-readable form of the record (one JSON object, no newline), the
  /// per-scheme payload of the bench harness's --metrics-json output.
  void write_json(std::ostream& out) const {
    const auto ms = [](sim::DurationPs ps) {
      return static_cast<double>(ps) / 1e9;
    };
    out << "{\"scheme\":" << obs::json_quote(scheme_name(scheme))
        << ",\"total_ms\":" << obs::json_number(ms(total_time))
        << ",\"comm_busy_ms\":" << obs::json_number(ms(comm_busy))
        << ",\"comp_busy_ms\":" << obs::json_number(ms(comp_busy))
        << ",\"comm_fraction\":" << obs::json_number(comm_fraction())
        << ",\"h2d_bytes\":" << h2d_bytes << ",\"d2h_bytes\":" << d2h_bytes
        << ",\"kernel_launches\":" << kernel_launches
        << ",\"pinned_bytes\":" << pinned_bytes
        << ",\"check_violations\":" << check_violations << ",\"engine\":{"
        << "\"stage_busy_ms\":{";
    bool first = true;
    for (obs::Stage stage : obs::all_stages()) {
      if (!first) out << ',';
      first = false;
      out << obs::json_quote(obs::stage_name(stage)) << ':'
          << obs::json_number(ms(engine.stage_busy(stage)));
    }
    out << "},\"addr_bytes_sent\":" << engine.addr_bytes_sent
        << ",\"data_bytes_sent\":" << engine.data_bytes_sent
        << ",\"write_bytes_sent\":" << engine.write_bytes_sent
        << ",\"source_bytes_read\":" << engine.source_bytes_read
        << ",\"chunks\":" << engine.chunks
        << ",\"thread_chunks\":" << engine.thread_chunks
        << ",\"pattern_hits\":" << engine.pattern_hits
        << ",\"pattern_hit_rate\":"
        << obs::json_number(engine.pattern_hit_rate())
        << ",\"elements_fetched\":" << engine.elements_fetched
        << ",\"elements_written\":" << engine.elements_written << "}"
        << ",\"prof\":{\"bottleneck_stage\":"
        << obs::json_quote(bottleneck_stage_name())
        << ",\"overlap_efficiency\":"
        << obs::json_number(prof.overlap_efficiency)
        << ",\"windows\":" << prof.windows
        << ",\"bottleneck_flips\":" << prof.bottleneck_flips
        << ",\"window_ms\":" << obs::json_number(prof.window_ms) << "}"
        << ",\"hetero\":{\"final_cpu_ratio\":"
        << obs::json_number(hetero.final_cpu_ratio)
        << ",\"cpu_records\":" << hetero.cpu_records
        << ",\"gpu_records\":" << hetero.gpu_records
        << ",\"rounds\":" << hetero.rounds << ",\"cpu_chunks_per_s\":"
        << obs::json_number(hetero.cpu_chunks_per_s)
        << ",\"gpu_chunks_per_s\":"
        << obs::json_number(hetero.gpu_chunks_per_s) << "}}";
  }
};

/// Speedup of `fast` over `slow` by simulated completion time.
inline double speedup(const RunMetrics& slow, const RunMetrics& fast) {
  if (fast.total_time == 0) return 0.0;
  return static_cast<double>(slow.total_time) /
         static_cast<double>(fast.total_time);
}

}  // namespace bigk::schemes
