// Tests for the host CPU model: cache behaviour, cost accounting, and
// multi-thread contention — the effects behind the data-assembly stage costs.
#include "hostsim/host_cpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "hostsim/cache_model.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

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
  // An id wider than the address keeps would alias region 1: it throws.
  EXPECT_EQ(logical_address(kRegionIdLimit - 1, 0) >> 44, kRegionIdLimit - 1);
  EXPECT_THROW(logical_address(1 + kRegionIdLimit, 0), std::out_of_range);
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

// The set-scan LRU that CacheModel's repeat-line fast path must reproduce:
// every access scans its set, takes the first empty way on a miss, and
// otherwise evicts the least recently used one.
class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
               std::uint32_t ways)
      : line_bytes_(line_bytes),
        sets_(std::bit_floor(
            std::max<std::uint64_t>(1, capacity_bytes / line_bytes / ways))),
        ways_(sets_ * ways),
        ways_per_set_(ways) {}

  bool access(std::uint64_t logical_addr) {
    const std::uint64_t line = logical_addr / line_bytes_;
    const std::uint64_t tag = line / sets_;
    Way* set = &ways_[(line % sets_) * ways_per_set_];
    ++tick_;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      if (set[w].valid && set[w].tag == tag) {
        set[w].last_use = tick_;
        ++hits_;
        return true;
      }
    }
    Way* victim = set;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (set[w].last_use < victim->last_use) victim = &set[w];
    }
    *victim = Way{true, tag, tick_};
    ++misses_;
    return false;
  }

  void reset() {
    std::fill(ways_.begin(), ways_.end(), Way{});
    tick_ = hits_ = misses_ = 0;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t sets() const { return sets_; }

 private:
  struct Way {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
  };

  std::uint64_t line_bytes_;
  std::uint64_t sets_;
  std::vector<Way> ways_;  // sets_ * ways_per_set_, row-major by set
  std::uint32_t ways_per_set_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

// A seeded stream of repeated lines, strided scans and set conflicts, with a
// reset(), a copy and a move part-way through: the model must match the
// reference hit for hit on every access.
TEST(CacheModelTest, MatchesTheSetScanReferenceOnEveryAccess) {
  struct Geometry {
    std::uint64_t capacity;
    std::uint32_t line;
    std::uint32_t ways;
  };
  // (1, 1, 1) is one set of 1-byte lines, where every 64-bit value,
  // ~0 included, is a real tag.
  for (const Geometry g : {Geometry{4 << 10, 64, 4}, Geometry{2 << 10, 64, 1},
                           Geometry{64 << 10, 64, 8},
                           Geometry{1 << 10, 32, 16}, Geometry{1, 1, 1}}) {
    SCOPED_TRACE(testing::Message() << g.capacity << " B, " << g.line
                                    << " B lines, " << g.ways << " ways");
    std::mt19937_64 rng(20 + g.ways);
    auto model = std::make_unique<CacheModel>(g.capacity, g.line, g.ways);
    ReferenceLru reference(g.capacity, g.line, g.ways);
    ASSERT_EQ(model->sets(), reference.sets());
    std::uint64_t accesses = 0;
    std::uint64_t last = 0;
    const auto touch = [&](std::uint64_t addr) {
      if (testing::Test::HasFatalFailure()) return;
      last = addr;
      ++accesses;
      const bool hit = model->access(addr);
      ASSERT_EQ(hit, reference.access(addr)) << "access " << accesses;
      ASSERT_EQ(model->hits(), reference.hits()) << "access " << accesses;
      ASSERT_EQ(model->misses(), reference.misses()) << "access " << accesses;
    };
    // A working set of twice the capacity: about half the accesses hit, so
    // the outcome depends on which line each set evicted.
    const auto random_addr = [&] {
      return logical_address(1 + static_cast<std::uint32_t>(rng() % 2),
                             rng() % g.capacity);
    };
    // Asks copies, so that probing every line of a set leaves the models
    // as they were.
    const auto expect_same_residency = [&](std::uint64_t addr) {
      if (testing::Test::HasFatalFailure()) return;
      CacheModel model_copy = *model;
      ReferenceLru reference_copy = reference;
      ASSERT_EQ(model_copy.access(addr), reference_copy.access(addr))
          << "residency of " << addr << " after access " << accesses;
    };
    const std::uint64_t set_stride = model->sets() * g.line;
    touch(~std::uint64_t{0});  // a cold cache holds no line, whatever its tag
    for (int round = 0; round < 3000; ++round) {
      if (round == 1000) {
        model->reset();
        reference.reset();
        touch(last);  // the line touched before the reset is gone
      } else if (round == 1700) {
        model = std::make_unique<CacheModel>(*model);  // original destroyed
      } else if (round == 2300) {
        model = std::make_unique<CacheModel>(std::move(*model));
      }
      switch (rng() % 4) {
        case 0: {  // the same line again, at the same or another byte
          const std::uint64_t repeats = 1 + rng() % 4;
          for (std::uint64_t r = 0; r < repeats; ++r) {
            touch((last & ~std::uint64_t{g.line - 1}) | (rng() % g.line));
          }
          break;
        }
        case 1: {  // a strided scan
          constexpr std::uint64_t kStrides[] = {8, 48, 64, 72, 200, 4096};
          const std::uint64_t stride = kStrides[rng() % 6];
          std::uint64_t addr = random_addr();
          for (std::uint64_t n = 1 + rng() % 40; n > 0; --n) {
            touch(addr);
            addr += stride;
          }
          break;
        }
        case 2: {  // one set: more lines than ways, revisited in random
                   // order with repeats, then partly pushed out by new
                   // lines; which lines stay resident shows the LRU order
          const std::uint64_t base = random_addr();
          const std::uint64_t lines = g.ways + 1 + rng() % 3;
          const std::uint64_t pushed = 1 + rng() % g.ways;
          const auto line = [&](std::uint64_t k) {
            return base + k * set_stride;
          };
          for (std::uint64_t k = 0; k < lines; ++k) touch(line(k));
          for (std::uint64_t n = 0; n < 2 * lines; ++n) {
            const std::uint64_t k = rng() % lines;
            touch(line(k));
            if (rng() % 2 == 0) touch(line(k));
          }
          for (std::uint64_t k = 0; k < pushed; ++k) touch(line(lines + k));
          for (std::uint64_t k = 0; k < lines + pushed; ++k) {
            expect_same_residency(line(k));
          }
          break;
        }
        default:
          touch(random_addr());
      }
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(model->hits(), 0u);
    EXPECT_GT(model->misses(), 0u);
  }
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

// touch() adds a whole call's hits and misses to the registry at once; the
// totals must still equal the cache model's own line-by-line counts.
TEST(HostThreadTest, RegistryCountersMatchTheCacheModel) {
  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  HostCpu cpu(sim, test_config());
  cpu.attach_observability(nullptr, &metrics);
  HostThread thread = cpu.make_thread();
  thread.read(1, 0, 96 << 10);  // larger than the cache: all misses
  thread.read(2, 0, 4096);
  thread.read(2, 0, 4096);  // now resident: all hits
  thread.write(2, 100, 1000);
  thread.read_sequential(1, 40 << 10, 200);
  EXPECT_GT(thread.cache().hits(), 0u);
  EXPECT_GT(thread.cache().misses(), 0u);
  EXPECT_EQ(metrics.counter("hostsim.cache_hits").value(),
            thread.cache().hits());
  EXPECT_EQ(metrics.counter("hostsim.cache_misses").value(),
            thread.cache().misses());
}

// The line-by-line charge HostThread::touch made for every access before the
// one-line case moved inline: hit cycles added one at a time in scan order,
// then the misses' bus bytes and latency.
struct LineByLineTouch {
  LineByLineTouch(const gpusim::CpuConfig& config, std::uint64_t cache_bytes)
      : config(config),
        cache(cache_bytes, config.cache_line_bytes, config.cache_ways) {}

  void touch(std::uint32_t region_id, std::uint64_t offset, std::uint64_t size,
             bool stall_on_miss) {
    if (size == 0) return;
    const std::uint32_t shift = cache.line_shift();
    const std::uint64_t first = offset >> shift;
    const std::uint64_t last = (offset + size - 1) >> shift;
    std::uint64_t line_misses = 0;
    for (std::uint64_t l = first; l <= last; ++l) {
      if (cache.access(logical_address(region_id, l << shift))) {
        cycles += config.cache_hit_cycles;
      } else {
        ++line_misses;
      }
    }
    bus_bytes += line_misses * cache.line_bytes();
    if (stall_on_miss) latency += line_misses * config.cache_miss_latency;
    hits += last - first + 1 - line_misses;
    misses += line_misses;
  }

  gpusim::CpuConfig config;
  CacheModel cache;
  double cycles = 0.0;
  sim::DurationPs latency = 0;
  std::uint64_t bus_bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// Mixed one-line and multi-line reads, prefetched reads and writes, replayed
// through a HostThread and the line-by-line reference: each commit charges
// the same cycles to the bit (the core span's "cycles" arg), the same latency
// (the core span's length on top of those cycles), the same bus bytes, and
// the registry counts the same hits and misses.
TEST(HostThreadTest, OneLineTouchesMatchTheLineByLineCharge) {
  sim::Simulation sim;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  gpusim::CpuConfig config = test_config();
  config.cache_hit_cycles = 1.7;  // not a power of two: rounding shows
  HostCpu cpu(sim, config);
  cpu.attach_observability(&tracer, &metrics);
  HostThread thread = cpu.make_thread();
  LineByLineTouch reference(config, config.llc_bytes);

  std::mt19937_64 rng(29);
  std::uint64_t one_line = 0;
  std::uint64_t multi_line = 0;
  for (int batch = 0; batch < 60; ++batch) {
    for (int n = 0; n < 500; ++n) {
      const std::uint32_t region = 1 + static_cast<std::uint32_t>(rng() % 3);
      // Mostly small accesses near a few hot lines, some of which straddle
      // a line boundary, and some long scans.
      const bool scan = rng() % 8 == 0;
      const std::uint64_t size =
          scan ? 65 + rng() % 700 : std::uint64_t{1} << (rng() % 4);
      const std::uint64_t offset =
          rng() % 2 == 0 ? rng() % 512 : rng() % (256 << 10);
      const std::uint64_t line_bytes = config.cache_line_bytes;
      if (offset / line_bytes == (offset + size - 1) / line_bytes) {
        ++one_line;
      } else {
        ++multi_line;
      }
      switch (rng() % 3) {
        case 0:
          thread.read(region, offset, size);
          reference.touch(region, offset, size, /*stall_on_miss=*/true);
          break;
        case 1:
          thread.read_sequential(region, offset, size);
          reference.touch(region, offset, size, /*stall_on_miss=*/false);
          break;
        default:
          thread.write(region, offset, size);
          reference.touch(region, offset, size, /*stall_on_miss=*/false);
      }
    }
    const std::size_t spans_before = tracer.spans().size();
    sim.run_until_complete(thread.commit());
    const obs::SpanEvent* core = nullptr;
    const obs::SpanEvent* bus = nullptr;
    for (std::size_t i = spans_before; i < tracer.spans().size(); ++i) {
      const obs::SpanEvent& span = tracer.spans()[i];
      (span.args.at(0).key == "cycles" ? core : bus) = &span;
    }
    ASSERT_NE(core, nullptr) << "batch " << batch;
    ASSERT_NE(bus, nullptr) << "batch " << batch;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(core->args.at(0).value),
              std::bit_cast<std::uint64_t>(reference.cycles))
        << "batch " << batch;
    EXPECT_EQ(core->duration(),
              sim::cycles_time(reference.cycles / config.ipc,
                               config.clock_ghz) +
                  reference.latency)
        << "batch " << batch;
    EXPECT_EQ(bus->args.at(0).value,
              static_cast<double>(reference.bus_bytes))
        << "batch " << batch;
    EXPECT_EQ(metrics.counter("hostsim.cache_hits").value(), reference.hits);
    EXPECT_EQ(metrics.counter("hostsim.cache_misses").value(),
              reference.misses);
    reference.cycles = 0.0;
    reference.latency = 0;
    reference.bus_bytes = 0;
  }
  EXPECT_GT(one_line, 4 * multi_line);
  EXPECT_GT(multi_line, 1000u);
  EXPECT_GT(reference.hits, 0u);
  EXPECT_GT(reference.misses, 0u);
}

// A CpuConfig the host model cannot run is rejected when the CPU is built,
// with a message naming the field.
std::string construction_error(const gpusim::CpuConfig& config) {
  sim::Simulation sim;
  try {
    HostCpu cpu(sim, config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

// make_thread pins threads modulo the core count.
TEST(HostCpuTest, RejectsZeroCores) {
  gpusim::CpuConfig config = test_config();
  config.cores = 0;
  EXPECT_NE(construction_error(config).find("cpu.cores"), std::string::npos);
}

// The CPU schemes fan out over hw_threads; zero would run no record.
TEST(HostCpuTest, RejectsZeroHwThreads) {
  gpusim::CpuConfig config = test_config();
  config.hw_threads = 0;
  EXPECT_NE(construction_error(config).find("cpu.hw_threads"),
            std::string::npos);
}

// commit() divides by clock_ghz, ipc and mem_gbps: zero, negative and
// non-finite values would turn into an infinite or negative duration.
void expect_rejects_non_positive(double gpusim::CpuConfig::*field,
                                 const char* name) {
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    gpusim::CpuConfig config = test_config();
    config.*field = bad;
    EXPECT_NE(construction_error(config).find(name), std::string::npos)
        << name << " = " << bad;
  }
  EXPECT_EQ(construction_error(test_config()), "no exception");
}

TEST(HostCpuTest, RejectsBadClock) {
  expect_rejects_non_positive(&gpusim::CpuConfig::clock_ghz, "cpu.clock_ghz");
}

TEST(HostCpuTest, RejectsBadIpc) {
  expect_rejects_non_positive(&gpusim::CpuConfig::ipc, "cpu.ipc");
}

TEST(HostCpuTest, RejectsBadMemoryBandwidth) {
  expect_rejects_non_positive(&gpusim::CpuConfig::mem_gbps, "cpu.mem_gbps");
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
