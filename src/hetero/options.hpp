// bigkhetero knobs: how a job's chunk stream is partitioned between the
// host cores (CPU side) and the GPU engine (GPU side).
#pragma once

#include <cstdint>

namespace bigk::hetero {

struct Options {
  /// Fraction of each split window assigned to the CPU side.
  /// 0.0 = GPU_ONLY, 1.0 = CPU_ONLY. With `dynamic` set this is only the
  /// starting ratio; the DynamicBalancer re-derives it per round.
  double cpu_ratio = 0.25;

  /// Re-split the remaining chunks after every co-execution round from the
  /// observed per-side chunk throughput (windowed EWMA over simulated time —
  /// deterministic, no wall clock). Off = one STATIC round at `cpu_ratio`.
  bool dynamic = false;

  /// Records per hetero chunk — the splitting granularity (0 = auto:
  /// ceil(num_records / 64), at least one record).
  std::uint64_t records_per_chunk = 0;
};

}  // namespace bigk::hetero
