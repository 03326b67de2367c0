// A pool of N independent simulated GPUs behind one shared host CPU.
//
// Each device is a full cusim::Runtime — its own device arena, DMA streams,
// and PCIe links — so transfers and kernels on different devices proceed in
// parallel. All devices share a single hostsim::HostCpu: every data-assembly
// thread, staging pass, and scatter thread contends for the same cores and
// the same memory-bus bandwidth, which is the first-order constraint a
// multi-GPU serving box actually hits (the host side saturates before the
// aggregate PCIe bandwidth does).
//
// Devices are named "dev0" .. "devN-1"; with a tracer attached, each one
// gets its own "devK gpu" / "devK pcie" / "devK DMA streams" process rows
// while the shared CPU keeps the single "host" row.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cusim/runtime.hpp"
#include "gpusim/config.hpp"
#include "hostsim/host_cpu.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

namespace bigk::cusim {

class DevicePool {
 public:
  /// Builds `num_devices` identical devices from `config` plus one shared
  /// host CPU from `config.cpu`. At least one device is always created.
  DevicePool(sim::Simulation& sim, const gpusim::SystemConfig& config,
             std::uint32_t num_devices);

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(devices_.size());
  }
  Runtime& device(std::uint32_t index) { return *devices_.at(index); }
  const Runtime& device(std::uint32_t index) const {
    return *devices_.at(index);
  }
  hostsim::HostCpu& cpu() noexcept { return cpu_; }
  sim::Simulation& sim() noexcept { return sim_; }

  /// Attaches the telemetry sinks to the shared CPU and every device.
  void attach_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Attaches (or with nullptr removes) one fault plane across the pool;
  /// device i injects under its pool index, so specs can target a single
  /// device with `device=i`.
  void set_fault_plane(fault::FaultPlane* plane) {
    for (std::uint32_t i = 0; i < size(); ++i) {
      devices_[i]->set_fault_plane(plane, i);
    }
  }

  /// Attaches (or with nullptr removes) one integrity plane across the pool.
  void set_integrity(dur::Integrity* integrity) {
    for (auto& device : devices_) device->set_integrity(integrity);
  }

 private:
  sim::Simulation& sim_;
  hostsim::HostCpu cpu_;
  std::vector<std::unique_ptr<Runtime>> devices_;
};

}  // namespace bigk::cusim
