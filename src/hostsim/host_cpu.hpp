// Simulated host CPU: hardware threads as FIFO timing servers, a shared
// memory bus with a bandwidth cap, and per-thread cost accumulators driven by
// a cache model.
//
// A HostThread batches the cost of a stretch of host work (compute cycles,
// cache-hit cycles, miss latency, bus bytes) and realizes it with a single
// commit() await: elapsed time is max(core time, bus time) with the core
// serialized against other software threads pinned to the same hardware
// thread and the bus serialized across all threads. This keeps event counts
// low while modelling both multi-core contention (CPU-MT baseline) and the
// oversubscription that occurs when BigKernel runs one assembly thread per
// GPU thread block (§III).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/config.hpp"
#include "hostsim/cache_model.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace bigk::hostsim {

class HostCpu;

/// A software thread pinned to one simulated hardware thread.
class HostThread {
 public:
  HostThread(HostCpu& cpu, std::uint32_t hw_thread,
             std::uint64_t cache_bytes);

  /// Reads `size` bytes at `offset` within host region `region_id`, touching
  /// the cache line by line. Misses stall the core (pointer-chase style).
  void read(std::uint32_t region_id, std::uint64_t offset,
            std::uint64_t size) {
    touch(region_id, offset, size, /*stall_on_miss=*/true);
  }

  /// Same, but for ascending-address scans the hardware prefetcher covers:
  /// misses consume bus bandwidth without stalling the core.
  void read_sequential(std::uint32_t region_id, std::uint64_t offset,
                       std::uint64_t size) {
    touch(region_id, offset, size, /*stall_on_miss=*/false);
  }

  /// Streaming (non-temporal) write of `size` bytes: occupies bus bandwidth
  /// but neither allocates in cache nor stalls the core.
  void write_stream(std::uint64_t size) { bus_bytes_ += size; }

  /// Cached write of `size` bytes at a logical location (used for in-place
  /// updates such as scattering write-backs into the mapped source).
  /// Write-allocate, but store misses do not stall the core (write buffers).
  void write(std::uint32_t region_id, std::uint64_t offset,
             std::uint64_t size) {
    touch(region_id, offset, size, /*stall_on_miss=*/false);
  }

  /// Charges `ops` arithmetic operations.
  void compute(double ops) { cycles_ += ops; }

  /// Realizes all accumulated cost as virtual time and clears accumulators.
  sim::Task<> commit();

  /// Label used for this thread's busy spans on the host timeline (e.g.
  /// "assembly b3"); defaults to "host work".
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }

  const CacheModel& cache() const noexcept { return cache_; }

 private:
  /// Charges one access: a hit adds cache_hit_cycles, a miss a line of bus
  /// bytes and, when `stall_on_miss`, the miss latency. An access within one
  /// line is answered inline; touch_lines() walks the lines of a longer one.
  void touch(std::uint32_t region_id, std::uint64_t offset, std::uint64_t size,
             bool stall_on_miss);
  void touch_lines(std::uint32_t region_id, std::uint64_t offset,
                   std::uint64_t size, bool stall_on_miss);

  HostCpu& cpu_;
  std::uint32_t hw_thread_;
  CacheModel cache_;
  std::string trace_label_ = "host work";
  double cycles_ = 0.0;
  sim::DurationPs latency_ = 0;
  std::uint64_t bus_bytes_ = 0;
};

class HostCpu {
 public:
  /// Throws std::invalid_argument naming the field when `config` has zero
  /// cores or hw_threads, or a clock_ghz, ipc or mem_gbps that is not a
  /// finite positive number.
  HostCpu(sim::Simulation& sim, const gpusim::CpuConfig& config);

  const gpusim::CpuConfig& config() const noexcept { return config_; }
  sim::Simulation& sim() noexcept { return sim_; }

  /// Creates a software thread pinned round-robin to a physical core (SMT
  /// contexts share a core's execution resources, so two software threads on
  /// one core serialize). `threads_sharing_cache` partitions the LLC among
  /// that many peers; throws std::invalid_argument when a share holds fewer
  /// than cpu.cache_ways lines.
  HostThread make_thread(std::uint32_t threads_sharing_cache = 1);

  sim::FifoServer& bus() noexcept { return bus_; }
  sim::FifoServer& core(std::uint32_t hw_thread) {
    return *cores_.at(hw_thread);
  }

  /// Attaches the unified telemetry sinks (either may be nullptr): commit()
  /// batches become busy spans on per-core and bus tracks, and the cache
  /// model feeds hostsim.cache_hits / hostsim.cache_misses counters.
  void attach_observability(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics);

 private:
  friend class HostThread;

  sim::Simulation& sim_;
  gpusim::CpuConfig config_;
  sim::FifoServer bus_;
  std::vector<std::unique_ptr<sim::FifoServer>> cores_;
  std::uint32_t next_hw_thread_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::TrackId bus_track_{};
  std::vector<obs::TrackId> core_tracks_;
  obs::Counter* ctr_cache_hits_ = nullptr;
  obs::Counter* ctr_cache_misses_ = nullptr;
};

inline void HostThread::touch(std::uint32_t region_id, std::uint64_t offset,
                              std::uint64_t size, bool stall_on_miss) {
  if (size == 0) return;
  const std::uint32_t shift = cache_.line_shift();
  const std::uint64_t line = offset >> shift;
  if (((offset + size - 1) >> shift) != line) {
    touch_lines(region_id, offset, size, stall_on_miss);
    return;
  }
  const gpusim::CpuConfig& config = cpu_.config();
  if (cache_.access(logical_address(region_id, line << shift))) {
    cycles_ += config.cache_hit_cycles;
    if (cpu_.ctr_cache_hits_ != nullptr) cpu_.ctr_cache_hits_->add(1);
    return;
  }
  bus_bytes_ += cache_.line_bytes();
  if (stall_on_miss) latency_ += config.cache_miss_latency;
  if (cpu_.ctr_cache_misses_ != nullptr) cpu_.ctr_cache_misses_->add(1);
}

}  // namespace bigk::hostsim
