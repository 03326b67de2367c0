// Tests for the CUDA-like runtime: copies, streams, in-order DMA semantics,
// pinned-memory tracking and host cache-model region ids.
#include "cusim/runtime.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace bigk::cusim {
namespace {

gpusim::SystemConfig small_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 1 << 20;
  return config;
}

TEST(RuntimeTest, SyncCopiesRoundTrip) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  const std::uint64_t device =
      runtime.gpu().memory().allocate_bytes(256 * sizeof(int));
  std::vector<int> source(256);
  std::iota(source.begin(), source.end(), 0);
  std::vector<int> sink(256, -1);
  sim.run_until_complete([](Runtime& rt, std::uint64_t d,
                            std::vector<int>& src,
                            std::vector<int>& dst) -> sim::Task<> {
    co_await rt.memcpy_h2d_bytes(d, std::as_bytes(std::span(src)));
    co_await rt.memcpy_d2h_bytes(std::as_writable_bytes(std::span(dst)), d);
  }(runtime, device, source, sink));
  EXPECT_EQ(sink, source);
  EXPECT_GT(sim.now(), 0u);
}

TEST(RuntimeTest, PinnedBytesAreTracked) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  runtime.note_pinned(8000);
  runtime.note_pinned(192);
  EXPECT_EQ(runtime.pinned_bytes(), 8192u);
}

TEST(RuntimeTest, RegionIdsAreUnique) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  const std::uint32_t a = runtime.next_region_id();
  const std::uint32_t b = runtime.next_region_id();
  EXPECT_NE(a, b);
}

// Pinned ring and address buffers take the ids next_region_id() hands out;
// mapped streams, CPU-scheme tables and serve staging use fixed ids. A
// device that serves many jobs hands out thousands (a cache-less launch on
// 4 blocks takes 16: 4 address buffers and 12 ring slots), and none may be a
// fixed id, or the host cache model aliases the two regions' lines.
TEST(RuntimeTest, DynamicRegionIdsAvoidTheFixedRegions) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  const auto fixed = [](std::uint32_t id) {
    const auto in = [id](std::uint32_t base, std::uint32_t count) {
      return id >= base && id < base + count;
    };
    return id == 0 ||  // the chunked baselines' staging buffers
           in(core::kStreamRegionBase, core::kMaxStreams) ||
           in(core::kTableRegionBase, 256) ||
           in(core::kStagingRegionBase, 256);
  };
  std::set<std::uint32_t> seen;
  for (std::uint32_t n = 1; n <= 20'000; ++n) {
    const std::uint32_t id = runtime.next_region_id();
    ASSERT_FALSE(fixed(id)) << "id #" << n << " is the fixed region " << id;
    ASSERT_TRUE(seen.insert(id).second) << "id #" << n << " repeats " << id;
  }
}

// The host cache model keeps 20 bits of a region id: the id past the last
// one it can encode throws, naming the limit, instead of aliasing region 0.
TEST(RuntimeTest, RegionIdsPastTheEncodableLimitThrow) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  std::uint32_t last = 0;
  std::string message;
  for (std::uint32_t n = 0; n <= hostsim::kRegionIdLimit && message.empty();
       ++n) {
    try {
      last = runtime.next_region_id();
    } catch (const std::out_of_range& error) {
      message = error.what();
    }
  }
  EXPECT_EQ(last, hostsim::kRegionIdLimit - 1);
  EXPECT_NE(message.find("2^20"), std::string::npos) << message;
  EXPECT_THROW(runtime.next_region_id(), std::out_of_range);
}

TEST(StreamTest, AsyncCopyCompletesAfterSynchronize) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  auto device = runtime.gpu().memory().allocate<int>(64);
  std::vector<int> host(64);
  for (std::uint64_t i = 0; i < 64; ++i) host[i] = static_cast<int>(i * 3);
  sim.run_until_complete([](Runtime& rt, gpusim::DevicePtr<int> d,
                            std::vector<int>& h) -> sim::Task<> {
    Stream stream = rt.create_stream();
    stream.memcpy_h2d_async(d.byte_offset, h.data(), h.size() * sizeof(int));
    co_await stream.synchronize();
    EXPECT_EQ(rt.gpu().memory().read(d, 10), 30);
  }(runtime, device, host));
}

TEST(StreamTest, DataVisibleOnlyAfterTransferCompletes) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  auto device = runtime.gpu().memory().allocate<int>(1);
  runtime.gpu().memory().write(device, 0, 7);
  std::vector<int> host = {42};
  sim.run_until_complete([](Runtime& rt, gpusim::DevicePtr<int> d,
                            std::vector<int>& h) -> sim::Task<> {
    Stream stream = rt.create_stream();
    stream.memcpy_h2d_async(d.byte_offset, h.data(), sizeof(int));
    // Before any await the copy has not been performed.
    EXPECT_EQ(rt.gpu().memory().read(d, 0), 7);
    co_await stream.synchronize();
    EXPECT_EQ(rt.gpu().memory().read(d, 0), 42);
  }(runtime, device, host));
}

TEST(StreamTest, FlagSignalsAfterPrecedingData) {
  // The §IV.C trick: enqueue data then a flag; a consumer woken by the flag
  // must observe the data already in device memory.
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  auto device = runtime.gpu().memory().allocate<int>(1024);
  std::vector<int> host(1024, 5);
  sim::Flag ready(sim);
  bool checked = false;

  sim.spawn([](Runtime& rt, sim::Flag& f, gpusim::DevicePtr<int> d,
               bool& out) -> sim::Task<> {
    co_await f.wait_ge(1);
    EXPECT_EQ(rt.gpu().memory().read(d, 1023), 5);
    out = true;
  }(runtime, ready, device, checked));

  Stream stream = runtime.create_stream();
  stream.memcpy_h2d_async(device.byte_offset, host.data(),
                          host.size() * sizeof(int));
  stream.signal_flag(ready, 1);
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(StreamTest, ChunkedCopyFlagSequenceObservesEachChunkInOrder) {
  // The pipeline's per-chunk protocol: data_i then flag=i+1 on one stream.
  // A consumer woken by flag i+1 must see chunk i landed, and must NOT yet
  // see chunk i+1 (its DMA is still occupying the in-order link).
  sim::Simulation sim;
  gpusim::SystemConfig config = small_config();
  config.pcie.h2d_gbps = 1.0;  // slow link so the ordering is visible
  config.pcie.transfer_latency = 0;
  Runtime runtime(sim, config);
  const std::uint64_t n = 64 << 10;  // ints per chunk: 256 KiB
  auto device = runtime.gpu().memory().allocate<int>(2 * n);
  std::vector<int> host(2 * n);
  for (std::uint64_t i = 0; i < 2 * n; ++i) host[i] = i < n ? 1 : 2;
  sim::Flag ready(sim);
  std::vector<sim::TimePs> seen(2, 0);

  sim.spawn([](Runtime& rt, sim::Flag& f, gpusim::DevicePtr<int> d,
               std::uint64_t count,
               std::vector<sim::TimePs>& at) -> sim::Task<> {
    co_await f.wait_ge(1);
    EXPECT_EQ(rt.gpu().memory().read(d, count - 1), 1);      // chunk 0 landed
    EXPECT_EQ(rt.gpu().memory().read(d, 2 * count - 1), 0);  // chunk 1 not yet
    at[0] = rt.sim().now();
    co_await f.wait_ge(2);
    EXPECT_EQ(rt.gpu().memory().read(d, 2 * count - 1), 2);
    at[1] = rt.sim().now();
  }(runtime, ready, device, n, seen));

  Stream stream = runtime.create_stream();
  stream.memcpy_h2d_async(device.byte_offset, host.data(), n * sizeof(int));
  stream.signal_flag(ready, 1);
  stream.memcpy_h2d_async(device.byte_offset + n * sizeof(int),
                          host.data() + n, n * sizeof(int));
  stream.signal_flag(ready, 2);
  sim.run();

  // Each wake-up is gated by its chunk's full transfer time at 1 GB/s.
  EXPECT_GE(seen[0], sim::transfer_time(n * sizeof(int), 1.0));
  EXPECT_GE(seen[1], seen[0] + sim::transfer_time(n * sizeof(int), 1.0));
}

TEST(StreamTest, OpsOnOneStreamAreOrdered) {
  sim::Simulation sim;
  Runtime runtime(sim, small_config());
  auto device = runtime.gpu().memory().allocate<int>(1);
  const int host_a = 1;
  const int host_b = 2;
  sim.run_until_complete([](Runtime& rt, gpusim::DevicePtr<int> d,
                            const int& a, const int& b) -> sim::Task<> {
    Stream stream = rt.create_stream();
    stream.memcpy_h2d_async(d.byte_offset, &a, 4);
    stream.memcpy_h2d_async(d.byte_offset, &b, 4);
    co_await stream.synchronize();
    EXPECT_EQ(rt.gpu().memory().read(d, 0), 2);  // second write wins
  }(runtime, device, host_a, host_b));
}

TEST(StreamTest, TwoStreamsShareTheLinkFifo) {
  sim::Simulation sim;
  gpusim::SystemConfig config = small_config();
  config.pcie.h2d_gbps = 1.0;  // slow link to make serialization visible
  config.pcie.transfer_latency = 0;
  Runtime runtime(sim, config);
  auto device = runtime.gpu().memory().allocate<std::byte>(512 << 10);
  std::vector<std::byte> host(512 << 10);
  Stream s1 = runtime.create_stream();
  Stream s2 = runtime.create_stream();
  const std::uint64_t half = 256 << 10;
  s1.memcpy_h2d_async(device.byte_offset, host.data(), half);
  s2.memcpy_h2d_async(device.byte_offset + half, host.data() + half, half);
  sim.spawn([](Stream& a, Stream& b) -> sim::Task<> {
    co_await a.synchronize();
    co_await b.synchronize();
  }(s1, s2));
  sim.run();
  // Total bytes at 1 GB/s: both transfers serialized on the one link.
  EXPECT_GE(sim.now(), sim::transfer_time(512 << 10, 1.0));
}


TEST(DevicePropertiesTest, MirrorsGpuConfig) {
  sim::Simulation sim;
  gpusim::SystemConfig config = small_config();
  config.gpu.num_sms = 8;
  config.gpu.warp_size = 32;
  Runtime runtime(sim, config);
  const DeviceProperties props = runtime.device_properties();
  EXPECT_EQ(props.multi_processor_count, 8u);
  EXPECT_EQ(props.warp_size, 32u);
  EXPECT_EQ(props.total_global_mem, config.gpu.global_memory_bytes);
  EXPECT_EQ(props.shared_mem_per_multiprocessor,
            config.gpu.shared_mem_per_sm_bytes);
  EXPECT_GT(props.clock_ghz, 0.0);
}

}  // namespace
}  // namespace bigk::cusim
