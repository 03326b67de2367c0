// CUDA-like host runtime on top of the simulated GPU: the device context.
//
// Mirrors the slice of the CUDA runtime API the paper's schemes use: in-order
// DMA streams (cudaMemcpyAsync with in-order completion), synchronous copies
// (cudaMemcpy), the pinned-footprint account, and the flag-after-data trick of
// §IV.C (enqueueing a tiny flag copy behind a data transfer on the same
// stream). Device allocation goes straight to gpu().memory().
//
// A Runtime is also the one home of the per-device sinks an engine launch
// reads: the tracer and trace prefix, the fault plane, the integrity plane
// and the stage profiler. Each is set once on the runtime (or pool-wide on a
// DevicePool) and every engine on the device picks it up from here.
//
// Copies move real bytes between host memory and the simulated device arena,
// and become visible only when the simulated transfer completes — so a
// synchronization bug in a scheme shows up as wrong output, not just wrong
// timing.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "gpusim/config.hpp"
#include "gpusim/gpu.hpp"
#include "hostsim/cache_model.hpp"
#include "hostsim/host_cpu.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace bigk::dur {
class Integrity;
}  // namespace bigk::dur

namespace bigk::obs::prof {
class StageProfiler;
}  // namespace bigk::obs::prof

namespace bigk::cusim {

/// An in-order DMA work queue (a CUDA stream). Operations execute strictly
/// in enqueue order; synchronize() awaits everything enqueued so far.
class Stream {
 public:
  Stream(Stream&&) noexcept = default;
  Stream& operator=(Stream&&) noexcept = default;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;
  ~Stream();

  /// Async host->device copy of `bytes`; `host_src` must stay valid and
  /// unmodified until the op completes (standard pinned-buffer contract).
  /// Returns the op's 1-based sequence id on this stream (see wait_for).
  std::uint64_t memcpy_h2d_async(std::uint64_t device_offset,
                                 const void* host_src, std::uint64_t bytes);

  /// Enqueues raising `flag` to `value` behind everything already enqueued —
  /// the DMA-in-order signalling of §IV.C.
  void signal_flag(sim::Flag& flag, std::uint64_t value);

  /// Awaits completion of every operation enqueued so far.
  sim::Task<> synchronize();

  /// Awaits completion of op `op_id` (ops complete strictly in order, so this
  /// is completed-count >= op_id). An op that faulted still completes — check
  /// take_failure afterwards.
  sim::Task<> wait_for(std::uint64_t op_id);

  /// When the fault plane failed op `op_id` (dma_error / ecc_corrupt /
  /// device_lost), yields the fault kind and clears the record so a re-issued
  /// copy starts clean. std::nullopt means the op completed successfully.
  std::optional<fault::FaultKind> take_failure(std::uint64_t op_id);

 private:
  friend class Runtime;

  struct Op {
    enum class Kind { kH2D, kFlag } kind;
    const void* host_src = nullptr;
    std::uint64_t device_offset = 0;
    std::uint64_t bytes = 0;
    sim::Flag* flag = nullptr;
    std::uint64_t flag_value = 0;
  };

  struct State {
    State(sim::Simulation& sim, gpusim::Gpu& gpu)
        : sim(sim), gpu(gpu), ops(sim), completed(sim) {}
    sim::Simulation& sim;
    gpusim::Gpu& gpu;
    sim::Channel<Op> ops;
    sim::Flag completed;  // count of finished ops
    std::uint64_t enqueued = 0;

    // Fault injection (optional): ops that fault complete in order but land
    // in `failed` keyed by their sequence id, for the owner to retry.
    fault::FaultPlane* fault = nullptr;
    std::uint32_t device = 0;
    std::map<std::uint64_t, fault::FaultKind> failed;

    // Telemetry (optional): per-op spans on this stream's track plus a
    // process-wide "queue depth" counter track for the DMA work queues.
    obs::Tracer* tracer = nullptr;
    obs::TrackId track{};
    std::uint32_t dma_pid = 0;

    void note_enqueue() {
      ++enqueued;
      if (tracer != nullptr) {
        tracer->counter_add(dma_pid, "queue depth", sim.now(), 1.0);
      }
    }
  };

  explicit Stream(std::shared_ptr<State> state) : state_(std::move(state)) {}
  static sim::Task<> worker(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;
};

/// The slice of cudaDeviceProp the paper's runtime probing (§IV.D) needs.
struct DeviceProperties {
  const char* name = "Simulated GTX 680";
  std::uint32_t multi_processor_count = 0;
  std::uint32_t warp_size = 0;
  std::uint64_t total_global_mem = 0;
  std::uint32_t shared_mem_per_multiprocessor = 0;
  std::uint32_t regs_per_multiprocessor = 0;
  std::uint32_t max_threads_per_multiprocessor = 0;
  double clock_ghz = 0.0;
};

class Runtime {
 public:
  /// Stand-alone runtime: owns its device *and* its host CPU (the original
  /// single-device configuration every scheme runner uses).
  Runtime(sim::Simulation& sim, const gpusim::SystemConfig& config)
      : sim_(sim),
        gpu_(sim, config),
        owned_cpu_(std::make_unique<hostsim::HostCpu>(sim, config.cpu)),
        cpu_(owned_cpu_.get()) {}

  /// Pool member: an independent device (own arena, streams, PCIe links)
  /// whose host-side work contends with sibling devices on one shared
  /// HostCpu — the memory-bus contention model of a multi-GPU server.
  /// `device_name` (e.g. "dev1") namespaces this device's trace tracks;
  /// `shared_cpu` must outlive the runtime.
  Runtime(sim::Simulation& sim, const gpusim::SystemConfig& config,
          hostsim::HostCpu& shared_cpu, std::string device_name)
      : sim_(sim),
        gpu_(sim, config),
        cpu_(&shared_cpu),
        name_(std::move(device_name)),
        prefix_(name_.empty() ? std::string() : name_ + " ") {}

  /// cudaGetDeviceProperties: the hardware resources the §IV.D occupancy
  /// calculation probes at run time.
  DeviceProperties device_properties() const {
    const gpusim::GpuConfig& gpu = gpu_.config();
    DeviceProperties props;
    props.multi_processor_count = gpu.num_sms;
    props.warp_size = gpu.warp_size;
    props.total_global_mem = gpu.global_memory_bytes;
    props.shared_mem_per_multiprocessor = gpu.shared_mem_per_sm_bytes;
    props.regs_per_multiprocessor = gpu.registers_per_sm;
    props.max_threads_per_multiprocessor = gpu.max_threads_per_sm;
    props.clock_ghz = gpu.core_clock_ghz;
    return props;
  }

  sim::Simulation& sim() noexcept { return sim_; }
  gpusim::Gpu& gpu() noexcept { return gpu_; }
  hostsim::HostCpu& cpu() noexcept { return *cpu_; }
  const gpusim::SystemConfig& config() const noexcept {
    return gpu_.system_config();
  }

  /// Device name inside a pool ("dev0", ...); empty for stand-alone runtimes.
  const std::string& device_name() const noexcept { return name_; }

  /// Prefix for this device's trace process rows ("dev1 " or ""). Every
  /// engine on the device prefixes its rows with it, so concurrent engines
  /// on distinct devices write disjoint tracks of one tracer.
  const std::string& trace_prefix() const noexcept { return prefix_; }

  /// Attaches the unified telemetry sinks to every simulated component this
  /// runtime owns (GPU/PCIe, host CPU) and to streams created afterwards.
  /// Either pointer may be nullptr; both must outlive the runtime. A shared
  /// (pool-owned) host CPU is attached by its owner, not here.
  void attach_observability(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
    gpu_.attach_observability(tracer, metrics, trace_prefix());
    if (owned_cpu_ != nullptr) {
      owned_cpu_->attach_observability(tracer, metrics);
    }
    if (metrics_ != nullptr) {
      pinned_gauge_ = &metrics_->gauge("cusim.pinned_bytes");
      pinned_gauge_->set_max(static_cast<double>(pinned_bytes_));
    }
  }
  obs::Tracer* tracer() const noexcept { return tracer_; }
  obs::MetricsRegistry* metrics() const noexcept { return metrics_; }

  /// Attaches (or with nullptr removes) the fault plane for this device;
  /// `device` is its index in the pool (0 for stand-alone runtimes). Streams
  /// created afterwards inject dma_error/ecc_corrupt/device_lost, the GPU's
  /// PCIe link injects pcie_degrade, and the engine/pinned-pool layers pull
  /// the plane from here for their own sites.
  void set_fault_plane(fault::FaultPlane* plane, std::uint32_t device = 0) {
    fault_plane_ = plane;
    fault_device_ = device;
    gpu_.set_fault_plane(plane, device);
  }
  fault::FaultPlane* fault_plane() const noexcept { return fault_plane_; }
  std::uint32_t fault_device() const noexcept { return fault_device_; }

  /// bigkdur: the end-to-end integrity plane every engine on this device
  /// verifies its custody transfers against (externally owned; nullptr =
  /// integrity off, no digests computed).
  void set_integrity(dur::Integrity* integrity) noexcept {
    integrity_ = integrity;
  }
  dur::Integrity* integrity() const noexcept { return integrity_; }

  /// bigkprof: the bottleneck profiler every engine on this device feeds its
  /// stage intervals to, the same intervals as its busy-time metrics and
  /// tracer spans (externally owned; nullptr detaches).
  void set_profiler(obs::prof::StageProfiler* profiler) noexcept {
    profiler_ = profiler;
  }
  obs::prof::StageProfiler* profiler() const noexcept { return profiler_; }

  /// The first id next_region_id() hands out. Every fixed host region id
  /// sits below it: 0 (the chunked baselines' staging buffers) and the
  /// core::kStreamRegionBase, kTableRegionBase and kStagingRegionBase ranges.
  static constexpr std::uint32_t kFirstDynamicRegion = std::uint32_t{1} << 16;

  /// A fresh host cache-model region id (pinned ring and address buffers).
  /// Throws std::out_of_range, naming hostsim::kRegionIdLimit, once the ids
  /// logical_address can encode run out.
  std::uint32_t next_region_id() {
    hostsim::check_region_id(next_region_);
    return next_region_++;
  }

  std::uint64_t pinned_bytes() const noexcept { return pinned_bytes_; }

  /// Accounts externally-owned pinned memory (e.g. the BigKernel engine's
  /// prefetch and address buffers) toward the pinned footprint.
  void note_pinned(std::uint64_t bytes) noexcept {
    pinned_bytes_ += bytes;
    note_pinned_gauge();
  }

  Stream create_stream();

  /// Synchronous cudaMemcpy host->device: blocks the calling process for the
  /// transfer, then performs the byte copy.
  sim::Task<> memcpy_h2d_bytes(std::uint64_t device_offset,
                               std::span<const std::byte> src) {
    co_await gpu_.h2d_transfer(src.size());
    auto dst = gpu_.memory().bytes_mut(device_offset, src.size());
    std::memcpy(dst.data(), src.data(), src.size());
  }

  /// Synchronous cudaMemcpy device->host.
  sim::Task<> memcpy_d2h_bytes(std::span<std::byte> dst,
                               std::uint64_t device_offset) {
    co_await gpu_.d2h_transfer(dst.size());
    auto src = gpu_.memory().bytes(device_offset, dst.size());
    std::memcpy(dst.data(), src.data(), dst.size());
  }

 private:
  void note_pinned_gauge() noexcept {
    if (pinned_gauge_ != nullptr) {
      pinned_gauge_->set_max(static_cast<double>(pinned_bytes_));
    }
  }

  sim::Simulation& sim_;
  gpusim::Gpu gpu_;
  std::unique_ptr<hostsim::HostCpu> owned_cpu_;  // null when the CPU is shared
  hostsim::HostCpu* cpu_;
  std::string name_;
  std::string prefix_;
  std::uint64_t pinned_bytes_ = 0;
  std::uint32_t next_region_ = kFirstDynamicRegion;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* pinned_gauge_ = nullptr;
  fault::FaultPlane* fault_plane_ = nullptr;
  std::uint32_t fault_device_ = 0;
  dur::Integrity* integrity_ = nullptr;
  obs::prof::StageProfiler* profiler_ = nullptr;
  std::uint32_t stream_count_ = 0;
};

}  // namespace bigk::cusim
