#include "obs/prof/attribution.hpp"

#include <algorithm>
#include <stdexcept>

namespace bigk::obs::prof {

StageProfiler::StageProfiler(sim::DurationPs window) : window_(window) {
  if (window == 0) throw std::invalid_argument("StageProfiler: zero window");
}

void StageProfiler::record(Stage stage, sim::TimePs begin, sim::TimePs end) {
  if (end <= begin) return;
  const std::size_t s = stage_index(stage);
  sim::TimePs cursor = begin;
  while (cursor < end) {
    const std::uint64_t index = cursor / window_;
    const sim::TimePs window_end = (index + 1) * window_;
    const sim::TimePs slice_end = std::min<sim::TimePs>(end, window_end);
    windows_[index][s] += slice_end - cursor;
    cursor = slice_end;
  }
}

Attribution attribute(const StageBusy& busy, sim::DurationPs wall) {
  Attribution out;
  std::size_t best = 0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    out.busy_sum += busy[s];
    if (busy[s] > busy[best]) best = s;
  }
  out.bottleneck = static_cast<Stage>(best);
  if (out.busy_sum > 0) {
    const double ratio =
        static_cast<double>(wall) / static_cast<double>(out.busy_sum);
    out.overlap_efficiency = std::max(0.0, 1.0 - ratio);
  }
  return out;
}

StageBusy StageProfiler::busy() const noexcept {
  StageBusy total{};
  for (const auto& [index, window] : windows_) {
    for (std::size_t s = 0; s < kStageCount; ++s) total[s] += window[s];
  }
  return total;
}

std::vector<WindowAttribution> StageProfiler::windows() const {
  std::vector<WindowAttribution> out;
  out.reserve(windows_.size());
  for (const auto& [index, busy] : windows_) {
    const Attribution attribution = attribute(busy, window_);
    WindowAttribution w;
    w.index = index;
    w.begin = index * window_;
    w.end = w.begin + window_;
    w.busy = busy;
    w.bottleneck = attribution.bottleneck;
    w.overlap_efficiency = attribution.overlap_efficiency;
    out.push_back(w);
  }
  return out;
}

std::uint64_t StageProfiler::bottleneck_flips() const {
  std::uint64_t flips = 0;
  bool first = true;
  Stage prev = Stage::kAddrGen;
  for (const auto& [index, busy] : windows_) {
    const Stage current = attribute(busy, 0).bottleneck;
    if (!first && current != prev) ++flips;
    prev = current;
    first = false;
  }
  return flips;
}

}  // namespace bigk::obs::prof
