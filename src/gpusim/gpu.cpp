#include "gpusim/gpu.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace bigk::gpusim {

sim::Simulation& BlockCtx::sim() noexcept { return gpu_.sim_; }

sim::Task<sim::DurationPs> BlockCtx::run_threads(std::uint32_t first,
                                                 std::uint32_t count,
                                                 const LaneFn& lane_fn) {
  const GpuConfig& config = gpu_.config();
  const std::uint32_t warp_size = config.warp_size;
  const sim::TimePs entry = gpu_.sim_.now();
  sim::DurationPs total = 0;
  std::uint64_t atomic_ops = 0;
  // The warp loop never suspends, so the device's one tracer serves every
  // block coroutine in turn.
  WarpTracer& tracer = gpu_.warp_tracer_;
  for (std::uint32_t warp_first = first; warp_first < first + count;
       warp_first += warp_size) {
    tracer.reset();
    const std::uint32_t warp_count =
        std::min(warp_size, first + count - warp_first);
    for (std::uint32_t lane = 0; lane < warp_count; ++lane) {
      tracer.begin_lane(lane);
      const std::uint32_t tid = warp_first + lane;
      LaneCtx lane_ctx(gpu_.memory(), tracer, tid,
                       block_index_ * launch_.threads_per_block + tid);
      lane_ctx.atomic_extra_cycles_ = config.atomic_extra_cycles;
      lane_fn(lane_ctx, tid);
    }
    if (gpu_.access_observer_ != nullptr) {
      const std::uint32_t warp_index = warp_first / warp_size;
      tracer.for_each_access([&](std::uint32_t lane, std::uint64_t addr,
                                 std::uint32_t size, std::uint8_t flags) {
        gpu_.access_observer_->on_warp_access(block_index_, warp_index, lane,
                                              addr, size, flags);
      });
    }
    const WarpCost cost = tracer.finish(config);
    atomic_ops += cost.atomic_ops;
    total += sm_request_cost(cost, config);
  }
  // Atomic updates serialize through the GPU-wide atomic units concurrently
  // with SM execution; whichever finishes later bounds this stage.
  sim::TimePs atomics_done = gpu_.sim_.now();
  if (atomic_ops > 0) {
    const sim::DurationPs atomic_cost = sim::cycles_time(
        static_cast<double>(atomic_ops), config.atomic_throughput_gops);
    atomics_done = gpu_.atomic_unit_.post(atomic_cost);
    if (gpu_.tracer_ != nullptr && atomic_cost > 0) {
      gpu_.tracer_->complete(
          gpu_.atomic_track_, "atomics", atomics_done - atomic_cost,
          atomics_done, "gpu",
          {{"ops", static_cast<double>(atomic_ops)},
           {"block", static_cast<double>(block_index_)}});
    }
  }
  if (gpu_.tracer_ != nullptr && total > 0) {
    sim::FifoServer& server = *gpu_.sm_servers_.at(sm_index_);
    const sim::TimePs service_begin =
        std::max(gpu_.sim_.now(), server.next_free());
    gpu_.tracer_->complete(gpu_.sm_tracks_.at(sm_index_),
                           "block " + std::to_string(block_index_),
                           service_begin, service_begin + total, "gpu",
                           {{"threads", static_cast<double>(count)}});
  }
  co_await gpu_.sm_servers_.at(sm_index_)->request(total);
  if (atomics_done > gpu_.sim_.now()) {
    co_await gpu_.sim_.delay(atomics_done - gpu_.sim_.now());
  }
  // Report the stage's own service time (SM occupancy, extended by the
  // atomic units if they ran longer), not queueing behind sibling stages.
  const sim::DurationPs atomic_extension =
      atomics_done > entry ? atomics_done - entry : 0;
  co_return std::max(total, atomic_extension);
}

sim::Task<> BlockCtx::sync_overhead() {
  if (gpu_.access_observer_ != nullptr) {
    gpu_.access_observer_->on_barrier(block_index_);
  }
  co_await gpu_.sim_.delay(gpu_.config().block_sync_overhead);
}

sim::Task<> BlockCtx::wait_flag(sim::Flag& flag, std::uint64_t threshold) {
  co_await flag.wait_ge(threshold);
}

namespace {

// Rejects configs the warp model cannot run: a zero warp size never advances
// run_threads, and a zero transaction size divides by zero.
const SystemConfig& checked(const SystemConfig& config) {
  if (config.gpu.warp_size == 0) {
    throw std::invalid_argument("gpu.warp_size must be > 0");
  }
  if (config.gpu.mem_transaction_bytes == 0) {
    throw std::invalid_argument("gpu.mem_transaction_bytes must be > 0");
  }
  return config;
}

}  // namespace

Gpu::Gpu(sim::Simulation& sim, const SystemConfig& config)
    : sim_(sim),
      config_(checked(config)),
      memory_(config.gpu.global_memory_bytes),
      warp_tracer_(config.gpu.warp_size),
      atomic_unit_(sim, "atomic-units"),
      h2d_link_(sim, "pcie-h2d"),
      d2h_link_(sim, "pcie-d2h") {
  sm_servers_.reserve(config_.gpu.num_sms);
  for (std::uint32_t i = 0; i < config_.gpu.num_sms; ++i) {
    sm_servers_.push_back(
        std::make_unique<sim::FifoServer>(sim, "sm" + std::to_string(i)));
  }
}

sim::DurationPs Gpu::link_cost(std::uint64_t bytes, double gbps) const {
  if (fault_plane_ != nullptr) {
    gbps /= fault_plane_->pcie_factor(fault_device_, sim_.now());
  }
  return config_.pcie.transfer_latency + sim::transfer_time(bytes, gbps);
}

void Gpu::attach_observability(obs::Tracer* tracer,
                               obs::MetricsRegistry* metrics,
                               std::string_view trace_prefix) {
  tracer_ = tracer;
  metrics_ = metrics;
  if (tracer_ != nullptr) {
    const std::string prefix(trace_prefix);
    pcie_pid_ = tracer_->process(prefix + "pcie");
    h2d_track_ = tracer_->thread(pcie_pid_, "h2d link");
    d2h_track_ = tracer_->thread(pcie_pid_, "d2h link");
    gpu_pid_ = tracer_->process(prefix + "gpu");
    sm_tracks_.clear();
    for (std::uint32_t i = 0; i < config_.gpu.num_sms; ++i) {
      sm_tracks_.push_back(
          tracer_->thread(gpu_pid_, "sm" + std::to_string(i)));
    }
    atomic_track_ = tracer_->thread(gpu_pid_, "atomic units");
  }
  if (metrics_ != nullptr) {
    const std::vector<double> size_buckets = {
        1 << 10, 16 << 10, 256 << 10, 4 << 20, 64 << 20};
    ctr_h2d_bytes_ = &metrics_->counter("gpusim.h2d_bytes");
    ctr_d2h_bytes_ = &metrics_->counter("gpusim.d2h_bytes");
    ctr_kernel_launches_ = &metrics_->counter("gpusim.kernel_launches");
    hist_h2d_bytes_ =
        &metrics_->histogram("gpusim.h2d_transfer_bytes", size_buckets);
    hist_d2h_bytes_ =
        &metrics_->histogram("gpusim.d2h_transfer_bytes", size_buckets);
  }
}

void Gpu::note_transfer(bool h2d, std::uint64_t bytes, sim::DurationPs cost) {
  if (metrics_ != nullptr) {
    (h2d ? ctr_h2d_bytes_ : ctr_d2h_bytes_)->add(bytes);
    (h2d ? hist_h2d_bytes_ : hist_d2h_bytes_)
        ->observe(static_cast<double>(bytes));
  }
  if (tracer_ == nullptr || cost == 0) return;
  // The link is an exact FIFO, so service begins at max(now, next_free):
  // the span is the transfer's true occupancy interval on the wire.
  sim::FifoServer& link = h2d ? h2d_link_ : d2h_link_;
  const sim::TimePs begin = std::max(sim_.now(), link.next_free());
  const sim::TimePs done = begin + cost;
  tracer_->complete(h2d ? h2d_track_ : d2h_track_, h2d ? "h2d" : "d2h",
                    begin, done, "pcie",
                    {{"bytes", static_cast<double>(bytes)}});
  tracer_->counter_add(pcie_pid_, "bytes in flight", sim_.now(),
                       static_cast<double>(bytes));
  tracer_->counter_add(pcie_pid_, "bytes in flight", done,
                       -static_cast<double>(bytes));
}

sim::Task<> Gpu::h2d_transfer(std::uint64_t bytes) {
  stats_.h2d_bytes += bytes;
  const sim::DurationPs cost = link_cost(bytes, config_.pcie.h2d_gbps);
  note_transfer(/*h2d=*/true, bytes, cost);
  co_await h2d_link_.request(cost);
}

sim::Task<> Gpu::d2h_transfer(std::uint64_t bytes) {
  stats_.d2h_bytes += bytes;
  const sim::DurationPs cost = link_cost(bytes, config_.pcie.d2h_gbps);
  note_transfer(/*h2d=*/false, bytes, cost);
  co_await d2h_link_.request(cost);
}

sim::TimePs Gpu::post_d2h(std::uint64_t bytes) {
  stats_.d2h_bytes += bytes;
  const sim::DurationPs cost = link_cost(bytes, config_.pcie.d2h_gbps);
  note_transfer(/*h2d=*/false, bytes, cost);
  return d2h_link_.post(cost);
}

void Gpu::set_flag_at(std::weak_ptr<sim::Flag> flag, std::uint64_t value,
                      sim::TimePs when) {
  assert(when >= sim_.now());
  sim_.spawn([](sim::Simulation& sim, std::weak_ptr<sim::Flag> f,
                std::uint64_t v, sim::TimePs t) -> sim::Task<> {
    co_await sim.delay(t - sim.now());
    if (const std::shared_ptr<sim::Flag> target = f.lock()) {
      target->advance_to(v);
    }
  }(sim_, std::move(flag), value, when));
}

std::uint32_t Gpu::max_active_blocks_per_sm(
    const KernelLaunch& launch) const {
  const GpuConfig& gpu = config_.gpu;
  std::uint32_t limit = gpu.max_blocks_per_sm;
  if (launch.threads_per_block > 0) {
    limit = std::min(limit, gpu.max_threads_per_sm / launch.threads_per_block);
  }
  const std::uint64_t regs_per_block =
      std::uint64_t{launch.regs_per_thread} * launch.threads_per_block;
  if (regs_per_block > 0) {
    limit = std::min<std::uint32_t>(
        limit, static_cast<std::uint32_t>(gpu.registers_per_sm /
                                          regs_per_block));
  }
  if (launch.shared_bytes_per_block > 0) {
    limit = std::min(limit, gpu.shared_mem_per_sm_bytes /
                                launch.shared_bytes_per_block);
  }
  return limit;
}

std::uint32_t Gpu::max_active_blocks(const KernelLaunch& launch) const {
  const std::uint32_t per_sm = max_active_blocks_per_sm(launch);
  // The paper's formula (§IV.D): min(numSetBlocks, R_GPU / R_tb).
  return std::min(launch.num_blocks, per_sm * config_.gpu.num_sms);
}

sim::Task<> Gpu::run_kernel(const KernelLaunch& launch, BlockFn block_fn) {
  if (launch.num_blocks == 0 || launch.threads_per_block == 0) co_return;
  const std::uint32_t window = max_active_blocks(launch);
  if (window == 0) {
    throw std::invalid_argument(
        "kernel launch exceeds per-SM resources: no block can become active");
  }
  ++stats_.kernel_launches;
  if (access_observer_ != nullptr) {
    access_observer_->on_kernel_begin(launch.num_blocks);
  }
  if (ctr_kernel_launches_ != nullptr) ctr_kernel_launches_->add(1);
  if (metrics_ != nullptr) {
    metrics_->gauge("gpusim.active_block_window")
        .set_max(static_cast<double>(window));
  }
  co_await sim_.delay(config_.gpu.kernel_launch_overhead);

  sim::Semaphore slots(sim_, window);
  std::vector<sim::Process> blocks;
  blocks.reserve(launch.num_blocks);
  for (std::uint32_t b = 0; b < launch.num_blocks; ++b) {
    co_await slots.acquire();
    blocks.push_back(sim_.spawn(run_block(launch, block_fn, b, slots)));
  }
  for (sim::Process& block : blocks) {
    co_await block.join();
  }
  if (access_observer_ != nullptr) access_observer_->on_kernel_end();
}

sim::Task<> Gpu::run_block(KernelLaunch launch, const BlockFn& block_fn,
                           std::uint32_t block_index, sim::Semaphore& slots) {
  BlockCtx ctx(*this, launch, block_index,
               block_index % config_.gpu.num_sms);
  if (tracer_ != nullptr) {
    tracer_->counter_add(gpu_pid_, "active blocks", sim_.now(), 1.0);
  }
  co_await block_fn(ctx);
  if (tracer_ != nullptr) {
    tracer_->counter_add(gpu_pid_, "active blocks", sim_.now(), -1.0);
  }
  slots.release();
}

sim::Task<> Gpu::run_simple_kernel(const KernelLaunch& launch,
                                   const BlockCtx::LaneFn& lane_fn) {
  co_await run_kernel(launch, [&lane_fn](BlockCtx& block) -> sim::Task<> {
    co_await block.run_threads(0, block.threads_per_block(), lane_fn);
  });
}

sim::DurationPs Gpu::sm_busy_max() const {
  sim::DurationPs busiest = 0;
  for (const auto& server : sm_servers_) {
    busiest = std::max(busiest, server->busy_time());
  }
  return busiest;
}

}  // namespace bigk::gpusim
