// Tests for the host CPU model: cache behaviour, cost accounting, and
// multi-thread contention — the effects behind the data-assembly stage costs.
#include "hostsim/host_cpu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "hostsim/cache_model.hpp"
#include "sim/simulation.hpp"

namespace bigk::hostsim {
namespace {

gpusim::CpuConfig test_config() {
  gpusim::CpuConfig config;
  config.llc_bytes = 64 << 10;  // small cache so tests can evict easily
  return config;
}

TEST(CacheModelTest, RepeatedAccessHits) {
  CacheModel cache(64 << 10, 64, 8);
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));   // same line
  EXPECT_FALSE(cache.access(64));  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheModelTest, LruEvictsOldestWay) {
  CacheModel cache(8 * 64, 64, 8);  // one set, 8 ways
  ASSERT_EQ(cache.sets(), 1u);
  for (std::uint64_t i = 0; i < 8; ++i) cache.access(i * 64);
  EXPECT_TRUE(cache.access(0));        // still resident, now MRU
  EXPECT_FALSE(cache.access(8 * 64));  // evicts line 1 (LRU)
  EXPECT_FALSE(cache.access(1 * 64));  // line 1 is gone
  EXPECT_TRUE(cache.access(0));        // line 0 survived
}

TEST(CacheModelTest, WorkingSetLargerThanCacheThrashes) {
  CacheModel cache(64 << 10, 64, 8);
  const std::uint64_t lines = (256 << 10) / 64;  // 4x capacity
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t l = 0; l < lines; ++l) cache.access(l * 64);
  }
  // Second pass must still miss essentially everywhere (LRU + oversize set).
  EXPECT_GT(cache.misses(), cache.hits());
}

TEST(CacheModelTest, DistinctRegionsDoNotAlias) {
  CacheModel cache(64 << 10, 64, 8);
  EXPECT_FALSE(cache.access(logical_address(1, 0)));
  EXPECT_FALSE(cache.access(logical_address(2, 0)));
  EXPECT_TRUE(cache.access(logical_address(1, 0)));
}

TEST(CacheModelTest, ResetClearsContents) {
  CacheModel cache(64 << 10, 64, 8);
  cache.access(0);
  cache.reset();
  EXPECT_FALSE(cache.access(0));
  EXPECT_EQ(cache.misses(), 1u);
}

// Line and set indices are shifts, so a line size that is not a power of
// two would silently mis-index; zero sizes or ways would divide by zero.
TEST(CacheModelTest, ConstructorRejectsUnindexableGeometry) {
  const auto message = [](std::uint32_t line_bytes,
                          std::uint32_t ways) -> std::string {
    try {
      CacheModel cache(64 << 10, line_bytes, ways);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_NE(message(0, 8).find("cache_line_bytes"), std::string::npos);
  EXPECT_NE(message(48, 8).find("cache_line_bytes"), std::string::npos);
  EXPECT_NE(message(64, 0).find("cache_ways"), std::string::npos);
  EXPECT_EQ(message(64, 8), "no exception");
}

TEST(HostThreadTest, SequentialReadMostlyHits) {
  sim::Simulation sim;
  HostCpu cpu(sim, test_config());
  HostThread thread = cpu.make_thread();
  thread.read(1, 0, 64 << 10);  // 1024 lines, each touched once: all misses
  EXPECT_EQ(thread.cache().misses(), 1024u);
  thread.read(1, 0, 64);  // now resident
  EXPECT_EQ(thread.cache().hits(), 1u);
}

TEST(HostThreadTest, CommitAdvancesTimeByComputeCost) {
  sim::Simulation sim;
  gpusim::CpuConfig config = test_config();
  config.clock_ghz = 1.0;
  config.ipc = 1.0;
  HostCpu cpu(sim, config);
  HostThread thread = cpu.make_thread();
  sim.run_until_complete([](HostThread& t) -> sim::Task<> {
    t.compute(1'000'000);  // 1M cycles at 1GHz = 1 ms
    co_await t.commit();
  }(thread));
  EXPECT_EQ(sim.now(), sim::milliseconds(1));
}

TEST(HostThreadTest, CommitChargesBandwidthForMisses) {
  sim::Simulation sim;
  gpusim::CpuConfig config = test_config();
  config.mem_gbps = 10.0;
  config.cache_hit_cycles = 0.0;
  config.cache_miss_latency = 0;
  HostCpu cpu(sim, config);
  HostThread thread = cpu.make_thread();
  sim.run_until_complete([](HostThread& t) -> sim::Task<> {
    t.read(1, 0, 10'000'000);  // 10 MB of misses at 10 GB/s = 1 ms
    co_await t.commit();
  }(thread));
  EXPECT_GE(sim.now(), sim::milliseconds(1));
  EXPECT_LT(sim.now(), sim::milliseconds(2));
}

TEST(HostThreadTest, ScatteredReadsCostMoreThanSequential) {
  auto run = [](bool scattered) {
    sim::Simulation sim;
    HostCpu cpu(sim, test_config());
    HostThread thread = cpu.make_thread();
    sim::DurationPs elapsed = 0;
    sim.run_until_complete(
        [](HostThread& t, bool sc, sim::Simulation& s,
           sim::DurationPs& out) -> sim::Task<> {
          // Read the same 8 MB twice; sequential rereads partially hit,
          // scattered ones stride across lines and hit nothing.
          for (int pass = 0; pass < 2; ++pass) {
            for (std::uint64_t i = 0; i < 1 << 17; ++i) {
              const std::uint64_t offset =
                  sc ? (i * 7919) % (8 << 20) : i * 64;
              t.read(1, offset, 8);
            }
            co_await t.commit();
          }
          out = s.now();
        }(thread, scattered, sim, elapsed));
    return elapsed;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(HostThreadTest, ThreadsOnDifferentCoresOverlapCompute) {
  sim::Simulation sim;
  gpusim::CpuConfig config = test_config();
  config.clock_ghz = 1.0;
  config.ipc = 1.0;
  HostCpu cpu(sim, config);
  std::vector<HostThread> threads;
  for (int i = 0; i < 4; ++i) threads.push_back(cpu.make_thread());
  for (HostThread& t : threads) {
    sim.spawn([](HostThread& th) -> sim::Task<> {
      th.compute(1'000'000);
      co_await th.commit();
    }(t));
  }
  sim.run();
  EXPECT_EQ(sim.now(), sim::milliseconds(1));  // perfect overlap
}

TEST(HostThreadTest, ThreadsShareMemoryBandwidth) {
  sim::Simulation sim;
  gpusim::CpuConfig config = test_config();
  config.mem_gbps = 10.0;
  config.cache_hit_cycles = 0.0;
  config.cache_miss_latency = 0;
  HostCpu cpu(sim, config);
  std::vector<HostThread> threads;
  for (std::uint32_t i = 0; i < 4; ++i) threads.push_back(cpu.make_thread());
  for (std::uint32_t i = 0; i < 4; ++i) {
    sim.spawn([](HostThread& th, std::uint32_t region) -> sim::Task<> {
      th.read(region + 1, 0, 10'000'000);  // 10 MB of misses each
      co_await th.commit();
    }(threads[i], i));
  }
  sim.run();
  // 40 MB total at 10 GB/s = 4 ms: bandwidth-bound, no 4-way speedup.
  EXPECT_GE(sim.now(), sim::milliseconds(4));
}

TEST(HostThreadTest, OversubscribedCoreSerializes) {
  sim::Simulation sim;
  gpusim::CpuConfig config = test_config();
  config.cores = 1;  // everything pins to one physical core
  config.clock_ghz = 1.0;
  config.ipc = 1.0;
  HostCpu cpu(sim, config);
  HostThread a = cpu.make_thread();
  HostThread b = cpu.make_thread();
  for (HostThread* t : {&a, &b}) {
    sim.spawn([](HostThread& th) -> sim::Task<> {
      th.compute(1'000'000);
      co_await th.commit();
    }(*t));
  }
  sim.run();
  EXPECT_EQ(sim.now(), sim::milliseconds(2));  // serialized on the core
}

TEST(HostThreadTest, StreamingWritesUseBandwidthNotLatency) {
  sim::Simulation sim;
  gpusim::CpuConfig config = test_config();
  config.mem_gbps = 10.0;
  HostCpu cpu(sim, config);
  HostThread thread = cpu.make_thread();
  sim.run_until_complete([](HostThread& t) -> sim::Task<> {
    t.write_stream(10'000'000);
    co_await t.commit();
  }(thread));
  EXPECT_EQ(sim.now(), sim::milliseconds(1));
}


TEST(HostThreadTest, SequentialReadSkipsMissLatency) {
  auto run = [](bool sequential) {
    sim::Simulation sim;
    gpusim::CpuConfig config = test_config();
    config.cache_miss_latency = sim::nanoseconds(50);
    config.mem_gbps = 1000.0;  // make latency the only significant cost
    config.cache_hit_cycles = 0.0;
    HostCpu cpu(sim, config);
    HostThread thread = cpu.make_thread();
    sim.run_until_complete([](HostThread& t, bool seq) -> sim::Task<> {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        if (seq) {
          t.read_sequential(1, i * 64, 8);
        } else {
          t.read(1, i * 64, 8);
        }
      }
      co_await t.commit();
    }(thread, sequential));
    return sim.now();
  };
  // 1000 misses x 50ns of stall only on the random-access path.
  EXPECT_GE(run(false), run(true) + sim::nanoseconds(40'000));
}

}  // namespace
}  // namespace bigk::hostsim
