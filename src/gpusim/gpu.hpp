// The simulated GPU: SMs, occupancy-limited block scheduling, PCIe links,
// and the per-thread execution context used by kernels.
//
// Kernels are expressed as a *block driver*: a coroutine invoked once per
// thread block that alternates between
//   - functional lane execution (BlockCtx::run_threads), which runs real C++
//     per-thread code, traces its global-memory accesses, and charges the
//     block's SM with the resulting warp costs, and
//   - synchronization awaits (flags set by the host, barriers, DMA drains),
// which is exactly the structure of the paper's transformed kernels (Fig. 3):
// chunks of straight-line SIMD work separated by block-wide sync points.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "gpusim/config.hpp"
#include "gpusim/device_memory.hpp"
#include "gpusim/warp_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace bigk::gpusim {

class Gpu;
class BlockCtx;

/// Observes the per-lane global-memory access stream of every executed warp
/// (the raw material of the check:: data-race detector) plus the
/// synchronization events that order accesses: block-wide barriers and
/// kernel launch boundaries. `warp` is the warp index within the block and
/// `lane` the lane within that warp; `flags` are WarpTracer::kFlag* bits.
class WarpAccessObserver {
 public:
  virtual ~WarpAccessObserver() = default;
  virtual void on_kernel_begin(std::uint32_t /*num_blocks*/) {}
  virtual void on_kernel_end() {}
  virtual void on_warp_access(std::uint32_t block, std::uint32_t warp,
                              std::uint32_t lane, std::uint64_t addr,
                              std::uint32_t size, std::uint8_t flags) = 0;
  /// One block-wide synchronization round (bar.red) in `block`.
  virtual void on_barrier(std::uint32_t /*block*/) {}
};

/// Kernel launch configuration (the <<<grid, block>>> parameters plus the
/// compile-time resource usage the occupancy calculation of §IV.D needs).
struct KernelLaunch {
  std::uint32_t num_blocks = 1;
  std::uint32_t threads_per_block = 256;
  std::uint32_t regs_per_thread = 32;
  std::uint32_t shared_bytes_per_block = 0;
};

/// Per-thread execution context handed to lane functions. Loads and stores
/// operate on the device arena and are traced for the coalescing model;
/// alu() charges arithmetic work.
class LaneCtx {
 public:
  LaneCtx(DeviceMemory& memory, WarpTracer& tracer,
          std::uint32_t thread_in_block, std::uint32_t global_thread)
      : memory_(memory),
        tracer_(tracer),
        thread_in_block_(thread_in_block),
        global_thread_(global_thread) {}

  std::uint32_t thread_in_block() const noexcept { return thread_in_block_; }
  std::uint32_t global_thread() const noexcept { return global_thread_; }

  // Each access computes (and checks) the element address once and hands
  // the arena the checked address at index 0, where the overflow check is
  // trivially satisfied.
  template <class T>
  T load(DevicePtr<T> ptr, std::uint64_t index = 0) {
    const DevicePtr<T> at{ptr.element_address(index)};
    tracer_.record_access(at.byte_offset, sizeof(T));
    return memory_.read(at);
  }

  template <class T>
  void store(DevicePtr<T> ptr, std::uint64_t index, const T& value) {
    const DevicePtr<T> at{ptr.element_address(index)};
    tracer_.record_access(at.byte_offset, sizeof(T), WarpTracer::kFlagWrite);
    memory_.write(at, 0, value);
  }

  /// Atomic read-modify-write on global memory (adds the configured extra
  /// serialization cycles on top of the traced access).
  template <class T>
  T atomic_add(DevicePtr<T> ptr, std::uint64_t index, T delta) {
    const DevicePtr<T> at{ptr.element_address(index)};
    tracer_.record_access(at.byte_offset, sizeof(T),
                          WarpTracer::kFlagWrite | WarpTracer::kFlagAtomic);
    tracer_.record_alu(atomic_extra_cycles_);
    tracer_.record_atomic();
    T old = memory_.read(at);
    memory_.write(at, 0, static_cast<T>(old + delta));
    return old;
  }

  /// Charges `ops` arithmetic operations (1 cycle each).
  void alu(double ops) { tracer_.record_alu(ops); }

  /// Traces an access at a synthetic device address without touching the
  /// arena — for memory that is modelled but not materialized (e.g. the
  /// resident pages of the demand-paging scheme).
  void trace_access(std::uint64_t addr, std::uint32_t size) {
    tracer_.record_access(addr, size, WarpTracer::kFlagSynthetic);
  }

 private:
  friend class BlockCtx;
  DeviceMemory& memory_;
  WarpTracer& tracer_;
  std::uint32_t thread_in_block_;
  std::uint32_t global_thread_;
  double atomic_extra_cycles_ = 12.0;
};

/// Per-block context given to the block driver.
class BlockCtx {
 public:
  using LaneFn = std::function<void(LaneCtx&, std::uint32_t thread_in_block)>;

  BlockCtx(Gpu& gpu, const KernelLaunch& launch, std::uint32_t block_index,
           std::uint32_t sm_index)
      : gpu_(gpu),
        launch_(launch),
        block_index_(block_index),
        sm_index_(sm_index) {}

  std::uint32_t block_index() const noexcept { return block_index_; }
  std::uint32_t sm_index() const noexcept { return sm_index_; }
  std::uint32_t threads_per_block() const noexcept {
    return launch_.threads_per_block;
  }
  std::uint32_t num_blocks() const noexcept { return launch_.num_blocks; }
  Gpu& gpu() noexcept { return gpu_; }

  /// Runs `lane_fn` for threads [first, first+count) of this block, warp by
  /// warp, then occupies this block's SM for the merged warp costs. Returns
  /// the total SM time charged (for per-stage metrics).
  sim::Task<sim::DurationPs> run_threads(std::uint32_t first,
                                         std::uint32_t count,
                                         const LaneFn& lane_fn);

  /// One block-wide synchronization round (bar.red + memory-flag polling).
  sim::Task<> sync_overhead();

  /// Suspends until `flag` (a location the host DMAs into GPU memory)
  /// reaches `threshold`.
  sim::Task<> wait_flag(sim::Flag& flag, std::uint64_t threshold);

 private:
  Gpu& gpu_;
  KernelLaunch launch_;
  std::uint32_t block_index_;
  std::uint32_t sm_index_;
};

using BlockFn = std::function<sim::Task<>(BlockCtx&)>;

/// Cumulative counters exposed for the benchmark harness.
struct GpuStats {
  std::uint64_t kernel_launches = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
};

class Gpu {
 public:
  /// Throws std::invalid_argument naming the field when `config.gpu` has a
  /// zero warp_size or mem_transaction_bytes.
  Gpu(sim::Simulation& sim, const SystemConfig& config);

  sim::Simulation& sim() noexcept { return sim_; }
  const GpuConfig& config() const noexcept { return config_.gpu; }
  const SystemConfig& system_config() const noexcept { return config_; }
  DeviceMemory& memory() noexcept { return memory_; }

  /// Attaches the unified telemetry sinks (either may be nullptr). With a
  /// tracer, every PCIe transfer becomes a span on the link's track (with a
  /// "bytes in flight" counter), every SM warp segment a span on its SM
  /// track, and kernel launches maintain an "active blocks" counter track.
  /// `trace_prefix` (e.g. "dev1 ") namespaces the "pcie"/"gpu" process rows
  /// so several devices share one timeline without colliding; the default
  /// keeps the single-device names.
  void attach_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                            std::string_view trace_prefix = {});

  /// Installs (or with nullptr removes) the warp-access observer: every
  /// traced lane access, block barrier, and kernel boundary is forwarded.
  void set_access_observer(WarpAccessObserver* observer) noexcept {
    access_observer_ = observer;
  }

  /// Attaches (or with nullptr removes) the fault plane; `device` is this
  /// GPU's index in its pool. The only gpusim site is the PCIe link:
  /// pcie_degrade divides the configured bandwidth by the spec's factor.
  void set_fault_plane(fault::FaultPlane* plane, std::uint32_t device) {
    fault_plane_ = plane;
    fault_device_ = device;
  }
  fault::FaultPlane* fault_plane() const noexcept { return fault_plane_; }
  std::uint32_t fault_device() const noexcept { return fault_device_; }

  /// --- PCIe / DMA -------------------------------------------------------
  /// Blocking bulk transfer host->device / device->host (occupies the link
  /// for latency + bytes/bandwidth, completes in FIFO order per direction).
  sim::Task<> h2d_transfer(std::uint64_t bytes);
  sim::Task<> d2h_transfer(std::uint64_t bytes);

  /// Fire-and-forget device->host traffic (streamed address-buffer and
  /// write-back writes whose latency the GPU hides); returns the virtual
  /// time the traffic lands.
  sim::TimePs post_d2h(std::uint64_t bytes);

  /// Raises `flag` to `value` at virtual time `when` (used to model a DMA
  /// engine copying a ready-flag after in-order data, §IV.C). The pending
  /// wake-up holds the flag weakly: if its owner frees it first, the
  /// wake-up is dropped instead of writing freed memory.
  void set_flag_at(std::weak_ptr<sim::Flag> flag, std::uint64_t value,
                   sim::TimePs when);

  /// --- Kernel execution -------------------------------------------------
  /// Active thread-blocks across the whole GPU for `launch` (§IV.D):
  /// min(num_blocks, occupancy-per-SM * num_SMs).
  std::uint32_t max_active_blocks(const KernelLaunch& launch) const;

  /// Occupancy per SM from the launch's resource usage.
  std::uint32_t max_active_blocks_per_sm(const KernelLaunch& launch) const;

  /// Runs `block_fn` once per block, windowed by occupancy; completes when
  /// every block has retired.
  sim::Task<> run_kernel(const KernelLaunch& launch, BlockFn block_fn);

  /// Convenience for classic kernels: every thread runs `lane_fn` once.
  sim::Task<> run_simple_kernel(const KernelLaunch& launch,
                                const BlockCtx::LaneFn& lane_fn);

  /// --- Metrics ----------------------------------------------------------
  const GpuStats& stats() const noexcept { return stats_; }
  sim::DurationPs sm_busy_max() const;
  sim::DurationPs atomic_busy() const { return atomic_unit_.busy_time(); }
  /// Wall-clock computation occupancy: the busiest SM or the atomic units,
  /// whichever bounds the kernel.
  sim::DurationPs compute_wall_busy() const {
    return std::max(sm_busy_max(), atomic_busy());
  }
  sim::DurationPs h2d_busy() const { return h2d_link_.busy_time(); }
  sim::DurationPs d2h_busy() const { return d2h_link_.busy_time(); }

 private:
  friend class BlockCtx;

  sim::Task<> run_block(KernelLaunch launch, const BlockFn& block_fn,
                        std::uint32_t block_index, sim::Semaphore& slots);

  sim::DurationPs link_cost(std::uint64_t bytes, double gbps) const;

  /// Telemetry for one link transfer about to be enqueued (span + counters).
  void note_transfer(bool h2d, std::uint64_t bytes, sim::DurationPs cost);

  sim::Simulation& sim_;
  SystemConfig config_;
  DeviceMemory memory_;
  WarpTracer warp_tracer_;  // reset per warp by BlockCtx::run_threads
  std::vector<std::unique_ptr<sim::FifoServer>> sm_servers_;
  sim::FifoServer atomic_unit_;
  sim::FifoServer h2d_link_;
  sim::FifoServer d2h_link_;
  GpuStats stats_;
  WarpAccessObserver* access_observer_ = nullptr;
  fault::FaultPlane* fault_plane_ = nullptr;
  std::uint32_t fault_device_ = 0;

  // --- telemetry sinks (optional) ----------------------------------------
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::uint32_t pcie_pid_ = 0;
  std::uint32_t gpu_pid_ = 0;
  obs::TrackId h2d_track_{};
  obs::TrackId d2h_track_{};
  obs::TrackId atomic_track_{};
  std::vector<obs::TrackId> sm_tracks_;
  obs::Counter* ctr_h2d_bytes_ = nullptr;
  obs::Counter* ctr_d2h_bytes_ = nullptr;
  obs::Counter* ctr_kernel_launches_ = nullptr;
  obs::Histogram* hist_h2d_bytes_ = nullptr;
  obs::Histogram* hist_d2h_bytes_ = nullptr;
};

}  // namespace bigk::gpusim
