#include "cusim/device_pool.hpp"

#include <algorithm>

namespace bigk::cusim {

DevicePool::DevicePool(sim::Simulation& sim,
                       const gpusim::SystemConfig& config,
                       std::uint32_t num_devices)
    : sim_(sim), cpu_(sim, config.cpu) {
  const std::uint32_t count = std::max<std::uint32_t>(1, num_devices);
  devices_.reserve(count);
  for (std::uint32_t d = 0; d < count; ++d) {
    devices_.push_back(std::make_unique<Runtime>(
        sim, config, cpu_, "dev" + std::to_string(d)));
  }
}

void DevicePool::attach_observability(obs::Tracer* tracer,
                                      obs::MetricsRegistry* metrics) {
  cpu_.attach_observability(tracer, metrics);
  for (auto& device : devices_) {
    device->attach_observability(tracer, metrics);
  }
}

}  // namespace bigk::cusim
