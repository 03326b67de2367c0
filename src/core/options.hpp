// BigKernel engine configuration, including the feature toggles that drive
// the paper's ablation experiments (Fig. 5, Table II).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"

namespace bigk::core {

/// Re-issued H2D rounds per chunk before a launch aborts with
/// fault::DmaError.
constexpr std::uint32_t kMaxChunkRetries = 4;
/// Backoff before the first chunk retry; doubles per attempt, capped at 16x.
constexpr sim::DurationPs kRetryBackoff = 200'000'000;  // 200 us

/// Backoff before chunk retry `attempt` (0-based): kRetryBackoff doubled per
/// attempt, capped at 16x. Deterministic — the recovery tests assert the
/// exact sequence.
inline sim::DurationPs retry_backoff_for(std::uint32_t attempt) {
  return std::min<sim::DurationPs>(
      kRetryBackoff << std::min<std::uint32_t>(attempt, 4), kRetryBackoff * 16);
}

struct Options {
  /// Computation threads per block; the engine launches twice as many GPU
  /// threads (half address generation, half computation, §III). Must be a
  /// multiple of the warp size so each warp is uniformly one kind.
  std::uint32_t compute_threads_per_block = 128;

  /// numSetBlocks: requested thread blocks. The engine caps this with the
  /// occupancy formula of §IV.D and launches exactly the active count.
  std::uint32_t num_blocks = 32;

  /// Buffer instances per block (the multi-buffering ring; the paper needs
  /// at least 2; its n-3 synchronization corresponds to 3).
  std::uint32_t buffer_depth = 3;

  /// Per-block, per-ring-slot data-buffer budget in bytes across all mapped
  /// streams. 0 = auto-size from free device memory (§IV.D: fewer active
  /// blocks => larger buffers).
  std::uint64_t data_buf_bytes = 0;

  // --- Feature toggles -------------------------------------------------
  /// Transfer only the elements the kernel will access (off = fetch the
  /// whole chunk, the paper's fallback / "overlap only" variant).
  bool transfer_reduction = true;
  /// Lay assembled data out interleaved by thread so GPU accesses coalesce
  /// (off = keep each thread's data contiguous, i.e. original-style layout).
  bool coalesced_layout = true;
  /// Recognize stride patterns in generated addresses (§IV.A).
  bool pattern_recognition = true;
  /// Gather one GPU thread's data at a time for CPU cache locality (§IV.B).
  bool locality_assembly = true;

  // --- bigkfault recovery policy ----------------------------------------
  /// How the engine responds to a stage_stall the runtime's
  /// fault::FaultPlane injects (the chunk-retry ladder is kMaxChunkRetries
  /// and retry_backoff_for). Inert when no plane is attached.
  struct Recovery {
    /// An assembly stall at or past this converts into fault::TimeoutError
    /// (the stage watchdog) instead of being absorbed as a delay.
    sim::DurationPs watchdog_timeout = 50'000'000'000;  // 50 ms
  };
  Recovery recovery{};

  void validate() const {
    if (compute_threads_per_block == 0 ||
        compute_threads_per_block % 32 != 0) {
      throw std::invalid_argument(
          "compute_threads_per_block must be a positive multiple of the warp "
          "size so address-generation and computation threads never share a "
          "warp");
    }
    if (num_blocks == 0) throw std::invalid_argument("num_blocks must be > 0");
    if (buffer_depth < 2) {
      throw std::invalid_argument(
          "buffer_depth must be >= 2 (one buffer produced while the other is "
          "consumed)");
    }
  }

  /// Fig. 5 variant (i): pipelined execution only — all data transferred in
  /// its original layout.
  static Options overlap_only() {
    Options options;
    options.transfer_reduction = false;
    options.coalesced_layout = false;
    return options;
  }

  /// Fig. 5 variant (ii): + transfer-volume reduction, original layout.
  static Options with_transfer_reduction() {
    Options options;
    options.transfer_reduction = true;
    options.coalesced_layout = false;
    return options;
  }

  /// Fig. 5 variant (iii) / the full system.
  static Options full() { return Options{}; }
};

}  // namespace bigk::core
