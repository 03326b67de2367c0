#include "hostsim/host_cpu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace bigk::hostsim {

HostThread::HostThread(HostCpu& cpu, std::uint32_t hw_thread,
                       std::uint64_t cache_bytes)
    : cpu_(cpu),
      hw_thread_(hw_thread),
      cache_(cache_bytes, cpu.config().cache_line_bytes,
             cpu.config().cache_ways) {}

void HostThread::touch_lines(std::uint32_t region_id, std::uint64_t offset,
                             std::uint64_t size, bool stall_on_miss) {
  const std::uint32_t shift = cache_.line_shift();
  const std::uint64_t first = offset >> shift;
  const std::uint64_t last = (offset + size - 1) >> shift;
  const double hit_cycles = cpu_.config().cache_hit_cycles;
  // Hits still add their cycles one at a time, in the order the scan makes
  // them, so the floating-point sum is the one a line-by-line charge gives.
  double cycles = cycles_;
  std::uint64_t misses = 0;
  for (std::uint64_t l = first; l <= last; ++l) {
    if (cache_.access(logical_address(region_id, l << shift))) {
      cycles += hit_cycles;
    } else {
      ++misses;
    }
  }
  cycles_ = cycles;
  bus_bytes_ += misses * cache_.line_bytes();
  if (stall_on_miss) {
    latency_ += misses * cpu_.config().cache_miss_latency;
  }
  if (cpu_.ctr_cache_hits_ != nullptr) {
    cpu_.ctr_cache_hits_->add(last - first + 1 - misses);
  }
  if (cpu_.ctr_cache_misses_ != nullptr) cpu_.ctr_cache_misses_->add(misses);
}

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

namespace {

// Rejects configs the host model cannot run: make_thread pins threads modulo
// the core count, the CPU schemes fan out over hw_threads, and commit()
// divides by the clock, the IPC and the bus bandwidth.
const gpusim::CpuConfig& checked(const gpusim::CpuConfig& config) {
  if (config.cores == 0) throw std::invalid_argument("cpu.cores must be > 0");
  if (config.hw_threads == 0) {
    throw std::invalid_argument("cpu.hw_threads must be > 0");
  }
  const std::pair<double, const char*> rates[] = {
      {config.clock_ghz, "cpu.clock_ghz must be finite and > 0"},
      {config.ipc, "cpu.ipc must be finite and > 0"},
      {config.mem_gbps, "cpu.mem_gbps must be finite and > 0"},
  };
  for (const auto& [value, message] : rates) {
    if (!std::isfinite(value) || value <= 0.0) {
      throw std::invalid_argument(message);
    }
  }
  return config;
}

}  // namespace

HostCpu::HostCpu(sim::Simulation& sim, const gpusim::CpuConfig& config)
    : sim_(sim), config_(checked(config)), bus_(sim, "cpu-mem-bus") {
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
