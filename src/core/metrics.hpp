// Metrics the BigKernel engine accumulates over its launches: stage busy
// times (Fig. 6), traffic volumes, and pattern-recognition outcomes
// (Table II). The engine is their only accumulator; a caller that launches
// one engine several times reads the totals from Engine::metrics().
#pragma once

#include <array>
#include <cstdint>

#include "obs/stage.hpp"
#include "sim/time.hpp"

namespace bigk::core {

struct EngineMetrics {
  // --- stage busy times (summed across blocks) --------------------------
  // Indexed by the canonical obs::Stage taxonomy — the same enum the trace
  // events use, so the Fig. 6 breakdown and the Fig. 2 timeline agree by
  // construction.
  std::array<sim::DurationPs, obs::kStageCount> stage_busy_ps{};

  sim::DurationPs& stage_busy(obs::Stage stage) {
    return stage_busy_ps[obs::stage_index(stage)];
  }
  sim::DurationPs stage_busy(obs::Stage stage) const {
    return stage_busy_ps[obs::stage_index(stage)];
  }

  sim::DurationPs addr_gen_busy() const {   // stage 1, GPU
    return stage_busy(obs::Stage::kAddrGen);
  }
  sim::DurationPs assembly_busy() const {   // stage 2, CPU
    return stage_busy(obs::Stage::kAssembly);
  }
  sim::DurationPs transfer_busy() const {   // stage 3, DMA h2d
    return stage_busy(obs::Stage::kTransfer);
  }
  sim::DurationPs compute_busy() const {    // stage 4, GPU
    return stage_busy(obs::Stage::kCompute);
  }
  sim::DurationPs writeback_busy() const {  // optional stages 5+6
    return stage_busy(obs::Stage::kWriteback);
  }

  // --- traffic -----------------------------------------------------------
  std::uint64_t addr_bytes_sent = 0;    // GPU->CPU addresses / patterns
  std::uint64_t data_bytes_sent = 0;    // CPU->GPU assembled data
  std::uint64_t write_bytes_sent = 0;   // GPU->CPU write-back values
  std::uint64_t source_bytes_read = 0;  // gathered from the mapped source

  // --- pipeline shape ------------------------------------------------------
  std::uint64_t chunks = 0;             // chunk iterations across blocks
  std::uint64_t thread_chunks = 0;      // per-thread chunk address streams
  std::uint64_t pattern_hits = 0;       // ... covered by a stride pattern
  std::uint64_t elements_fetched = 0;   // elements gathered by assembly
  std::uint64_t elements_written = 0;   // elements scattered back

  // --- bigkcache (chunk cache attached via set_chunk_cache) ---------------
  std::uint64_t cache_hits = 0;         // stream-chunks served from cache
  std::uint64_t cache_misses = 0;       // cacheable stream-chunks assembled
  std::uint64_t cache_bytes_saved = 0;  // PCIe H2D bytes skipped on hits

  // --- bigkfault (fault plane attached on the runtime) --------------------
  std::uint64_t chunk_retries = 0;   // failed H2D rounds re-issued
  std::uint64_t retried_bytes = 0;   // H2D bytes re-transferred by retries
  std::uint64_t degraded_blocks = 0;  // blocks running a shrunken ring

  double pattern_hit_rate() const {
    return thread_chunks == 0
               ? 0.0
               : static_cast<double>(pattern_hits) /
                     static_cast<double>(thread_chunks);
  }
};

}  // namespace bigk::core
