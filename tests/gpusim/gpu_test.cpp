// Tests for the GPU execution engine: occupancy, block scheduling, kernel
// timing, PCIe transfers, and host-flag interaction.
#include "gpusim/gpu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace bigk::gpusim {
namespace {

SystemConfig small_config() {
  SystemConfig config;
  config.gpu.global_memory_bytes = 1 << 20;
  return config;
}

TEST(OccupancyTest, LimitedByThreadsPerSm) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 1024;
  launch.regs_per_thread = 1;
  launch.shared_bytes_per_block = 0;
  // 2048 max threads per SM / 1024 = 2 blocks per SM.
  EXPECT_EQ(gpu.max_active_blocks_per_sm(launch), 2u);
}

TEST(OccupancyTest, LimitedByRegisters) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 256;
  launch.regs_per_thread = 64;  // 16384 regs per block, 65536 per SM -> 4
  EXPECT_EQ(gpu.max_active_blocks_per_sm(launch), 4u);
}

TEST(OccupancyTest, LimitedBySharedMemory) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 64;
  launch.regs_per_thread = 1;
  launch.shared_bytes_per_block = 16 << 10;  // 48KB per SM -> 3 blocks
  EXPECT_EQ(gpu.max_active_blocks_per_sm(launch), 3u);
}

TEST(OccupancyTest, WholeGpuActiveBlocksFollowPaperFormula) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 1024;
  launch.regs_per_thread = 1;
  launch.num_blocks = 5;  // fewer than 2 * 8 SMs
  EXPECT_EQ(gpu.max_active_blocks(launch), 5u);
  launch.num_blocks = 100;
  EXPECT_EQ(gpu.max_active_blocks(launch), 16u);
}

TEST(GpuTest, SimpleKernelRunsEveryThreadOnce) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  auto counters = gpu.memory().allocate<std::uint32_t>(8 * 64);
  for (std::uint64_t i = 0; i < 8 * 64; ++i) {
    gpu.memory().write(counters, i, 0u);
  }
  KernelLaunch launch;
  launch.num_blocks = 8;
  launch.threads_per_block = 64;
  sim.run_until_complete(gpu.run_simple_kernel(
      launch, [&](LaneCtx& lane, std::uint32_t) {
        const std::uint32_t old =
            lane.load(counters, lane.global_thread());
        lane.store(counters, lane.global_thread(), old + 1);
      }));
  for (std::uint64_t i = 0; i < 8 * 64; ++i) {
    EXPECT_EQ(gpu.memory().read(counters, i), 1u) << "thread " << i;
  }
}

TEST(GpuTest, KernelLaunchHasFixedOverhead) {
  sim::Simulation sim;
  SystemConfig config = small_config();
  config.gpu.kernel_launch_overhead = sim::microseconds(8);
  Gpu gpu(sim, config);
  KernelLaunch launch;
  launch.num_blocks = 1;
  launch.threads_per_block = 32;
  sim.run_until_complete(
      gpu.run_simple_kernel(launch, [](LaneCtx&, std::uint32_t) {}));
  EXPECT_GE(sim.now(), sim::microseconds(8));
  EXPECT_EQ(gpu.stats().kernel_launches, 1u);
}

TEST(GpuTest, MemoryBoundKernelTimeScalesWithCoalescing) {
  // Two kernels doing identical work, one coalesced and one strided; the
  // strided one must take measurably longer.
  auto run = [](bool coalesced) {
    sim::Simulation sim;
    Gpu gpu(sim, small_config());
    auto data = gpu.memory().allocate<std::uint64_t>(64 << 10);
    KernelLaunch launch;
    launch.num_blocks = 8;
    launch.threads_per_block = 256;
    sim.run_until_complete(gpu.run_simple_kernel(
        launch, [&](LaneCtx& lane, std::uint32_t tid) {
          for (std::uint32_t k = 0; k < 16; ++k) {
            const std::uint64_t idx =
                coalesced ? (std::uint64_t{k} * 256 + tid)
                          : (std::uint64_t{tid} * 16 + k) * 8 % (64 << 10);
            (void)lane.load(data, idx % (64 << 10));
          }
        }));
    return sim.now();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(GpuTest, BlocksBeyondOccupancyRunInWaves) {
  // One block per SM slot; with 16x the active window the kernel must take
  // ~16x as long as a single wave.
  auto run = [](std::uint32_t num_blocks) {
    sim::Simulation sim;
    Gpu gpu(sim, small_config());
    KernelLaunch launch;
    launch.num_blocks = num_blocks;
    launch.threads_per_block = 1024;  // 2 blocks per SM -> window 16
    launch.regs_per_thread = 1;
    auto sink = gpu.memory().allocate<std::uint64_t>(1024);
    sim.run_until_complete(gpu.run_simple_kernel(
        launch, [&](LaneCtx& lane, std::uint32_t tid) {
          for (int k = 0; k < 50; ++k) (void)lane.load(sink, tid % 1024);
          lane.alu(5000);
        }));
    return sim.now();
  };
  const auto one_wave = run(16);
  const auto many_waves = run(16 * 8);
  EXPECT_GT(many_waves, 6 * one_wave);
  EXPECT_LT(many_waves, 10 * one_wave);
}

TEST(GpuTest, TransfersOccupyLinkAndCountBytes) {
  sim::Simulation sim;
  SystemConfig config = small_config();
  config.pcie.h2d_gbps = 10.0;
  config.pcie.transfer_latency = 0;
  Gpu gpu(sim, config);
  sim.run_until_complete([](Gpu& g) -> sim::Task<> {
    co_await g.h2d_transfer(10'000'000'000ull);  // 10 GB at 10 GB/s = 1 s
  }(gpu));
  EXPECT_EQ(sim.now(), sim::seconds(1));
  EXPECT_EQ(gpu.stats().h2d_bytes, 10'000'000'000ull);
  EXPECT_EQ(gpu.h2d_busy(), sim::seconds(1));
}

TEST(GpuTest, PostedTrafficCompletesInOrder) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  const sim::TimePs first = gpu.post_d2h(1 << 20);
  const sim::TimePs second = gpu.post_d2h(1 << 10);
  EXPECT_GT(second, first);  // small transfer queued behind the big one
}

TEST(GpuTest, SetFlagAtFiresAtRequestedTime) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  auto flag = std::make_shared<sim::Flag>(sim);
  sim::TimePs seen_at = 0;
  gpu.set_flag_at(flag, 1, sim::microseconds(5));
  sim.spawn([](sim::Flag& f, sim::Simulation& s,
               sim::TimePs& out) -> sim::Task<> {
    co_await f.wait_ge(1);
    out = s.now();
  }(*flag, sim, seen_at));
  sim.run();
  EXPECT_EQ(seen_at, sim::microseconds(5));
}

TEST(GpuTest, SetFlagAtDropsWakeupOfFreedFlag) {
  // An aborted engine launch frees its block state while landings it posted
  // are still pending; the wake-up must not write the freed flag.
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  auto flag = std::make_shared<sim::Flag>(sim);
  gpu.set_flag_at(flag, 1, sim::microseconds(5));
  flag.reset();
  sim.run();
  EXPECT_EQ(sim.now(), sim::microseconds(5));
}

TEST(GpuTest, KernelWaitsOnHostFlag) {
  // A kernel block blocks on a host flag; the host raises it at t=100us;
  // kernel completion must follow it.
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  sim::Flag ready(sim);
  KernelLaunch launch;
  launch.num_blocks = 2;
  launch.threads_per_block = 32;
  sim.spawn([](sim::Simulation& s, sim::Flag& f) -> sim::Task<> {
    co_await s.delay(sim::microseconds(100));
    f.advance_to(1);
  }(sim, ready));
  sim.run_until_complete(
      gpu.run_kernel(launch, [&](BlockCtx& block) -> sim::Task<> {
        co_await block.wait_flag(ready, 1);
        co_await block.run_threads(0, block.threads_per_block(),
                                   [](LaneCtx& lane, std::uint32_t) {
                                     lane.alu(10);
                                   });
      }));
  EXPECT_GT(sim.now(), sim::microseconds(100));
}

TEST(GpuTest, AtomicAddIsFunctionallyCorrectAcrossThreads) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  auto counter = gpu.memory().allocate<std::uint64_t>(1);
  gpu.memory().write(counter, 0, std::uint64_t{0});
  KernelLaunch launch;
  launch.num_blocks = 4;
  launch.threads_per_block = 128;
  sim.run_until_complete(gpu.run_simple_kernel(
      launch, [&](LaneCtx& lane, std::uint32_t) {
        lane.atomic_add(counter, 0, std::uint64_t{1});
      }));
  EXPECT_EQ(gpu.memory().read(counter, 0), 4u * 128u);
}

TEST(GpuTest, ZeroBlockLaunchIsANoop) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.num_blocks = 0;
  sim.run_until_complete(
      gpu.run_simple_kernel(launch, [](LaneCtx&, std::uint32_t) {}));
  EXPECT_EQ(gpu.stats().kernel_launches, 0u);
}

TEST(GpuTest, ImpossibleLaunchThrows) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.num_blocks = 1;
  launch.threads_per_block = 64;
  launch.shared_bytes_per_block = 1 << 20;  // more than any SM has
  EXPECT_THROW(sim.run_until_complete(gpu.run_kernel(
                   launch, [](BlockCtx&) -> sim::Task<> { co_return; })),
               std::invalid_argument);
}

// A zero warp size would never advance run_threads' warp loop and a zero
// transaction size divides by zero; both are rejected up front.
TEST(GpuTest, ConstructorRejectsConfigsTheWarpModelCannotRun) {
  const auto message = [](SystemConfig config) -> std::string {
    sim::Simulation sim;
    try {
      Gpu gpu(sim, config);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  SystemConfig config = small_config();
  config.gpu.warp_size = 0;
  EXPECT_NE(message(config).find("warp_size"), std::string::npos);
  config = small_config();
  config.gpu.mem_transaction_bytes = 0;
  EXPECT_NE(message(config).find("mem_transaction_bytes"), std::string::npos);
  config = small_config();
  config.gpu.mem_transaction_bytes = 96;  // not a power of two: still valid
  EXPECT_EQ(message(config), "no exception");
}

// Every traced lane access still runs the null, overflow and bounds checks,
// with the exception types and messages of the arena's own checks.
struct Thrown {
  std::string type;
  std::string what;
};

template <class Fn>
Thrown thrown_by(Fn&& fn) {
  try {
    fn();
  } catch (const std::overflow_error& e) {
    return {"overflow_error", e.what()};
  } catch (const std::out_of_range& e) {
    return {"out_of_range", e.what()};
  } catch (const std::logic_error& e) {
    return {"logic_error", e.what()};
  }
  return {"none", ""};
}

TEST(LaneCtxTest, LoadStoreAndAtomicAddKeepEveryCheck) {
  DeviceMemory memory(4096);
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  LaneCtx lane(memory, tracer, 0, 0);
  const DevicePtr<std::uint64_t> null{};
  const DevicePtr<std::uint64_t> valid = memory.allocate<std::uint64_t>(8);
  const DevicePtr<std::uint64_t> outside{4096};
  const std::uint64_t huge = (~std::uint64_t{0} >> 3) + 1;  // 2^61 elements

  const auto expect_all = [&](DevicePtr<std::uint64_t> ptr,
                              std::uint64_t index, const std::string& type,
                              const std::string& what) {
    const std::uint64_t one = 1;
    const Thrown load = thrown_by([&] { (void)lane.load(ptr, index); });
    const Thrown store = thrown_by([&] { lane.store(ptr, index, one); });
    const Thrown atomic =
        thrown_by([&] { (void)lane.atomic_add(ptr, index, one); });
    for (const Thrown& thrown : {load, store, atomic}) {
      EXPECT_EQ(thrown.type, type) << what;
      EXPECT_EQ(thrown.what, what);
    }
  };
  expect_all(null, 0, "logic_error",
             "DevicePtr arithmetic on a null device pointer");
  expect_all(valid, huge, "overflow_error",
             "DevicePtr arithmetic overflows the device address space: "
             "base 0 + " + std::to_string(huge) + " elements of 8 bytes");
  expect_all(outside, 0, "out_of_range",
             "device memory access out of bounds: offset 4096 size 8");
  expect_all(valid, 512, "out_of_range",
             "device memory access out of bounds: offset 4096 size 8");

  // The same lane context still reads and writes in bounds.
  lane.store(valid, 3, std::uint64_t{41});
  EXPECT_EQ(lane.atomic_add(valid, 3, std::uint64_t{1}), 41u);
  EXPECT_EQ(lane.load(valid, 3), 42u);
  EXPECT_EQ(memory.read(valid, 3), 42u);
}

}  // namespace
}  // namespace bigk::gpusim
