#include "cusim/device_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

namespace bigk::cusim {
namespace {

gpusim::SystemConfig small_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 2 << 20;
  return config;
}

TEST(DevicePoolTest, BuildsNamedDevicesSharingOneCpu) {
  sim::Simulation sim;
  DevicePool pool(sim, small_config(), 3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.device(0).device_name(), "dev0");
  EXPECT_EQ(pool.device(2).device_name(), "dev2");
  EXPECT_EQ(pool.device(1).trace_prefix(), "dev1 ");
  // All devices share the pool's host CPU (the contention point).
  EXPECT_EQ(&pool.device(0).cpu(), &pool.cpu());
  EXPECT_EQ(&pool.device(1).cpu(), &pool.cpu());
  EXPECT_EQ(&pool.device(2).cpu(), &pool.cpu());
}

TEST(DevicePoolTest, AtLeastOneDevice) {
  sim::Simulation sim;
  DevicePool pool(sim, small_config(), 0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(DevicePoolTest, DeviceArenasAreIndependent) {
  sim::Simulation sim;
  DevicePool pool(sim, small_config(), 2);
  const std::uint64_t free_before = pool.device(1).gpu().memory().free_bytes();
  pool.device(0).gpu().memory().allocate_bytes(256 << 10);
  EXPECT_EQ(pool.device(1).gpu().memory().free_bytes(), free_before);
  EXPECT_LT(pool.device(0).gpu().memory().free_bytes(), free_before);
}

TEST(DevicePoolTest, TransfersOnDistinctDevicesOverlap) {
  const std::uint64_t bytes = 512 << 10;
  const auto run = [&](std::uint32_t devices) {
    sim::Simulation sim;
    DevicePool pool(sim, small_config(), devices);
    std::vector<std::vector<std::byte>> sources(
        devices, std::vector<std::byte>(bytes));
    for (std::uint32_t d = 0; d < devices; ++d) {
      Runtime& device = pool.device(d);
      const std::uint64_t offset = device.gpu().memory().allocate_bytes(bytes);
      sim.spawn([](Runtime& rt, std::uint64_t dst,
                   std::vector<std::byte>& src) -> sim::Task<> {
        co_await rt.memcpy_h2d_bytes(dst, src);
      }(device, offset, sources[d]));
    }
    sim.run();
    return sim.now();
  };
  const sim::TimePs one = run(1);
  const sim::TimePs four = run(4);
  // Each device has its own PCIe link: four concurrent copies finish in the
  // same wall time as one (no shared-link serialization).
  EXPECT_EQ(four, one);
}

TEST(DevicePoolTest, ObservabilityUsesPerDevicePrefixes) {
  sim::Simulation sim;
  DevicePool pool(sim, small_config(), 2);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  pool.attach_observability(&tracer, &metrics);

  const std::uint64_t bytes = 64 << 10;
  std::vector<std::byte> source(bytes);
  Runtime& dev1 = pool.device(1);
  const std::uint64_t offset = dev1.gpu().memory().allocate_bytes(bytes);
  sim.spawn([](Runtime& rt, std::uint64_t dst,
               std::vector<std::byte>& src) -> sim::Task<> {
    co_await rt.memcpy_h2d_bytes(dst, src);
  }(dev1, offset, source));
  sim.run();

  bool saw_dev1_pcie = false;
  for (const obs::SpanEvent& span : tracer.spans()) {
    if (tracer.process_name(span.track.pid) == "dev1 pcie") {
      saw_dev1_pcie = true;
    }
    // No span may land on an unprefixed device row: every device of a pool
    // is namespaced, only the shared host keeps its plain name.
    EXPECT_NE(tracer.process_name(span.track.pid), "pcie");
  }
  EXPECT_TRUE(saw_dev1_pcie);
}

TEST(DevicePoolTest, StandAloneRuntimeKeepsLegacyTraceNames) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  EXPECT_EQ(runtime.device_name(), "");
  EXPECT_EQ(runtime.trace_prefix(), "");
}

}  // namespace
}  // namespace bigk::cusim
