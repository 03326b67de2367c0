// Online bottleneck attribution for bigkprof.
//
// StageProfiler consumes the same per-stage [begin, end) intervals the Engine
// feeds its tracer/metrics and maintains a windowed per-stage busy-time
// timeline: for each fixed-width time window it can report the limiting
// stage (argmax busy), the overlap efficiency (1 − wall / Σ stage busy,
// clamped at 0 — 0 means fully serialized, values approaching 1 − 1/k mean
// the pipeline hides k-way work), and how often the attributed bottleneck
// flipped between consecutive windows. Intervals that span window
// boundaries are split exactly, so the windows are the one accumulator: their
// sum is the run-level busy time to the picosecond, and attribution stays
// deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/stage.hpp"
#include "sim/time.hpp"

namespace bigk::obs::prof {

/// Per-stage busy time (picoseconds), indexed by stage_index().
using StageBusy = std::array<sim::DurationPs, kStageCount>;

/// The one attribution formula, shared by the profiler, run_bigkernel and
/// serve's reports.
struct Attribution {
  /// Limiting stage: argmax of stage busy time; the earlier stage wins ties.
  Stage bottleneck = Stage::kAddrGen;
  /// max(0, 1 − wall / Σ busy); 0 when nothing was busy.
  double overlap_efficiency = 0.0;
  /// Σ busy; 0 means there is nothing to attribute.
  sim::DurationPs busy_sum = 0;

  /// The limiting stage as a stage_index() for reports; -1 when nothing was
  /// busy.
  std::int32_t bottleneck_index() const noexcept {
    return busy_sum > 0 ? static_cast<std::int32_t>(stage_index(bottleneck))
                        : -1;
  }
};
Attribution attribute(const StageBusy& busy, sim::DurationPs wall);

/// One fully-attributed time window.
struct WindowAttribution {
  std::uint64_t index = 0;          ///< window number: [index*W, (index+1)*W)
  sim::TimePs begin = 0;
  sim::TimePs end = 0;
  StageBusy busy{};
  Stage bottleneck = Stage::kAddrGen;
  double overlap_efficiency = 0.0;  ///< 1 - window_span / sum(busy), >= 0
};

class StageProfiler {
 public:
  explicit StageProfiler(sim::DurationPs window);

  /// Attribute a stage-busy interval. Intervals may arrive out of order and
  /// may overlap window boundaries; they are split across windows exactly.
  void record(Stage stage, sim::TimePs begin, sim::TimePs end);

  sim::DurationPs window() const noexcept { return window_; }

  /// Busy time per stage across all windows: the windows split each interval
  /// exactly, so this is the run-level sum. Run-level attribution is
  /// attribute(busy(), wall).
  StageBusy busy() const noexcept;

  /// Chronological per-window attribution timeline.
  std::vector<WindowAttribution> windows() const;

  /// Number of windows with any attributed busy time.
  std::uint64_t window_count() const noexcept { return windows_.size(); }

  /// Number of times the attributed bottleneck changed between consecutive
  /// (chronological) windows.
  std::uint64_t bottleneck_flips() const;

 private:
  sim::DurationPs window_;
  // window index -> per-stage busy within that window; std::map keeps the
  // timeline chronologically ordered regardless of record() arrival order.
  std::map<std::uint64_t, StageBusy> windows_;
};

}  // namespace bigk::obs::prof
