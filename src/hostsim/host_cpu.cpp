#include "hostsim/host_cpu.hpp"

#include <algorithm>

namespace bigk::hostsim {

HostThread::HostThread(HostCpu& cpu, std::uint32_t hw_thread,
                       std::uint64_t cache_bytes)
    : cpu_(cpu),
      hw_thread_(hw_thread),
      cache_(cache_bytes, cpu.config().cache_line_bytes,
             cpu.config().cache_ways) {}

void HostThread::touch(std::uint32_t region_id, std::uint64_t offset,
                       std::uint64_t size, bool stall_on_miss) {
  if (size == 0) return;
  const std::uint32_t line = cache_.line_bytes();
  const std::uint32_t shift = cache_.line_shift();
  const std::uint64_t first = offset >> shift;
  const std::uint64_t last = (offset + size - 1) >> shift;
  for (std::uint64_t l = first; l <= last; ++l) {
    if (cache_.access(logical_address(region_id, l << shift))) {
      cycles_ += cpu_.config().cache_hit_cycles;
      if (cpu_.ctr_cache_hits_ != nullptr) cpu_.ctr_cache_hits_->add(1);
    } else {
      bus_bytes_ += line;
      if (stall_on_miss) latency_ += cpu_.config().cache_miss_latency;
      if (cpu_.ctr_cache_misses_ != nullptr) cpu_.ctr_cache_misses_->add(1);
    }
  }
}

void HostThread::read(std::uint32_t region_id, std::uint64_t offset,
                      std::uint64_t size) {
  touch(region_id, offset, size, /*stall_on_miss=*/true);
}

void HostThread::read_sequential(std::uint32_t region_id,
                                 std::uint64_t offset, std::uint64_t size) {
  touch(region_id, offset, size, /*stall_on_miss=*/false);
}

void HostThread::write(std::uint32_t region_id, std::uint64_t offset,
                       std::uint64_t size) {
  // Write-allocate, but store misses do not stall the core (write buffers).
  touch(region_id, offset, size, /*stall_on_miss=*/false);
}

void HostThread::write_stream(std::uint64_t size) { bus_bytes_ += size; }

void HostThread::compute(double ops) { cycles_ += ops; }

sim::Task<> HostThread::commit() {
  const gpusim::CpuConfig& config = cpu_.config();
  const sim::DurationPs core_time =
      sim::cycles_time(cycles_ / config.ipc, config.clock_ghz) + latency_;
  const std::uint64_t bytes = bus_bytes_;
  const double cycles = cycles_;
  cycles_ = 0.0;
  latency_ = 0;
  bus_bytes_ = 0;

  sim::Simulation& sim = cpu_.sim();
  const sim::TimePs core_done = cpu_.core(hw_thread_).post(core_time);
  if (cpu_.tracer_ != nullptr && core_time > 0) {
    cpu_.tracer_->complete(cpu_.core_tracks_.at(hw_thread_), trace_label_,
                           core_done - core_time, core_done, "host",
                           {{"cycles", cycles}});
  }
  sim::TimePs done = core_done;
  if (bytes > 0) {
    const sim::DurationPs bus_time =
        sim::transfer_time(bytes, config.mem_gbps);
    const sim::TimePs bus_done = cpu_.bus().post(bus_time);
    if (cpu_.tracer_ != nullptr && bus_time > 0) {
      cpu_.tracer_->complete(cpu_.bus_track_, trace_label_,
                             bus_done - bus_time, bus_done, "host",
                             {{"bytes", static_cast<double>(bytes)}});
    }
    done = std::max(done, bus_done);
  }
  if (done > sim.now()) {
    co_await sim.delay(done - sim.now());
  }
}

HostCpu::HostCpu(sim::Simulation& sim, const gpusim::CpuConfig& config)
    : sim_(sim), config_(config), bus_(sim, "cpu-mem-bus") {
  cores_.reserve(config_.cores);
  for (std::uint32_t i = 0; i < config_.cores; ++i) {
    cores_.push_back(
        std::make_unique<sim::FifoServer>(sim, "core" + std::to_string(i)));
  }
}

void HostCpu::attach_observability(obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    const std::uint32_t pid = tracer_->process("host");
    core_tracks_.clear();
    for (std::uint32_t i = 0; i < config_.cores; ++i) {
      core_tracks_.push_back(
          tracer_->thread(pid, "core" + std::to_string(i)));
    }
    bus_track_ = tracer_->thread(pid, "mem bus");
  }
  if (metrics != nullptr) {
    ctr_cache_hits_ = &metrics->counter("hostsim.cache_hits");
    ctr_cache_misses_ = &metrics->counter("hostsim.cache_misses");
  }
}

HostThread HostCpu::make_thread(std::uint32_t threads_sharing_cache) {
  const std::uint32_t hw_thread = next_hw_thread_;
  next_hw_thread_ = (next_hw_thread_ + 1) % config_.cores;
  const std::uint64_t share =
      config_.llc_bytes / std::max<std::uint32_t>(1, threads_sharing_cache);
  return HostThread(*this, hw_thread, share);
}

}  // namespace bigk::hostsim
