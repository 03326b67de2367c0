// bigkdur end-to-end integrity at the engine level: a bit flipped at any
// custody point (H2D DMA, resident cache entry, staged write-back) is caught
// by the digest chain and repaired through the existing chunk machinery, so
// the run stays byte-identical and dur.detected == fault.injected. The same
// flips with integrity off provably corrupt the output — the control that
// shows the checks are load-bearing, not decorative.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/chunk_cache.hpp"
#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "cusim/runtime.hpp"
#include "dur/integrity.hpp"
#include "fault/fault.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

constexpr std::size_t site(dur::Site s) {
  return static_cast<std::size_t>(s);
}

// Same toy streaming kernel as the recovery tests: records of 4 elements
// [a, b, pad, out]; out = a + b + bias, pad must survive untouched.
struct ScaleKernel {
  StreamRef<std::uint64_t> data;
  TableRef<std::uint64_t> bias;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t a = ctx.read(data, r * 4);
      const std::uint64_t b = ctx.read(data, r * 4 + 1);
      const std::uint64_t bias_value = ctx.load_table(bias, 0);
      ctx.alu(5);
      ctx.write(data, r * 4 + 3, a + b + bias_value);
    }
  }
};

struct Fixture {
  static constexpr std::uint64_t kRecords = 20'000;

  sim::Simulation sim;
  gpusim::SystemConfig config;
  std::vector<std::uint64_t> host;

  Fixture() {
    config.gpu.global_memory_bytes = 8 << 20;
    host.resize(kRecords * 4);
    for (std::uint64_t r = 0; r < kRecords; ++r) {
      host[r * 4] = r * 3;
      host[r * 4 + 1] = r ^ 5;
      host[r * 4 + 2] = 0xDEAD;
      host[r * 4 + 3] = 0;
    }
  }
};

Options small_options() {
  Options options;
  options.num_blocks = 4;
  options.compute_threads_per_block = 64;
  options.data_buf_bytes = 16 << 10;
  return options;
}

struct RunResult {
  fault::FaultStats fault;
  dur::IntegrityStats dur;
  EngineMetrics engine;
};

/// Runs ScaleKernel with `spec` on the runtime's fault plane (empty =
/// fault-free) and, with `with_integrity`, the dur plane on the engine.
RunResult run_scale(Fixture& fixture, const char* spec, bool with_integrity) {
  fault::FaultPlane plane(/*seed=*/1);
  cusim::Runtime runtime(fixture.sim, fixture.config);
  if (spec != nullptr && spec[0] != '\0') {
    plane.add_all(fault::FaultSpec::parse(spec));
    runtime.set_fault_plane(&plane);
  }
  dur::Integrity integrity;
  if (with_integrity) runtime.set_integrity(&integrity);
  Engine engine(runtime, small_options());
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host), AccessMode::kReadWrite,
      /*elems_per_record=*/4, /*reads_per_record=*/2, /*writes_per_record=*/1);
  TableSet tables;
  auto bias = tables.add<std::uint64_t>(1);
  tables.host_span(bias)[0] = 7;
  ScaleKernel kernel{stream, bias};

  fixture.sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
         ScaleKernel k) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, Fixture::kRecords, device);
        device.release();
      }(runtime, engine, tables, kernel));

  return RunResult{plane.stats(), integrity.stats(), engine.metrics()};
}

/// Golden output: one fault-free, integrity-off run's host bytes.
const std::vector<std::uint64_t>& golden_output() {
  static const std::vector<std::uint64_t> golden = [] {
    Fixture fixture;
    run_scale(fixture, "", /*with_integrity=*/false);
    return fixture.host;
  }();
  return golden;
}

TEST(DurIntegrityTest, CleanRunWithIntegrityIsByteIdentical) {
  Fixture fixture;
  const RunResult result = run_scale(fixture, "", /*with_integrity=*/true);
  EXPECT_EQ(fixture.host, golden_output());
  EXPECT_EQ(result.dur.detected, 0u);
  EXPECT_GT(result.dur.verified, 0u);
  // Every chunk is verified both after its DMA and at write-back seal.
  EXPECT_GT(result.dur.verified_by_site[site(dur::Site::kDma)], 0u);
  EXPECT_GT(result.dur.verified_by_site[site(dur::Site::kWriteback)], 0u);
}

TEST(DurIntegrityTest, DmaBitflipIsDetectedAndRepairedByteIdentical) {
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, "bitflip_dma,nth=3", /*with_integrity=*/true);
  EXPECT_EQ(fixture.host, golden_output())
      << "detected flip must be repaired before compute reads it";
  EXPECT_EQ(result.fault.injected, 1u);
  EXPECT_EQ(result.dur.detected, result.fault.injected);
  EXPECT_EQ(result.dur.detected_by_site[site(dur::Site::kDma)], 1u);
  EXPECT_GE(result.dur.repaired, 1u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
  EXPECT_GE(result.engine.chunk_retries, 1u);
}

TEST(DurIntegrityTest, DmaBitflipCorruptsOutputWithoutIntegrity) {
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, "bitflip_dma,nth=3", /*with_integrity=*/false);
  EXPECT_EQ(result.fault.injected, 1u);
  EXPECT_EQ(result.dur.detected, 0u);
  EXPECT_NE(fixture.host, golden_output())
      << "with integrity off the flipped input must poison the output";
}

TEST(DurIntegrityTest, RepeatedDmaBitflipsAreAllAbsorbed) {
  Fixture fixture;
  const RunResult result = run_scale(fixture, "bitflip_dma,nth=2,every=5,max=3",
                                     /*with_integrity=*/true);
  EXPECT_EQ(fixture.host, golden_output());
  EXPECT_EQ(result.fault.injected, 3u);
  EXPECT_EQ(result.dur.detected, result.fault.injected);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
}

TEST(DurIntegrityTest, WritebackBitflipIsDetectedAndRepairedByteIdentical) {
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, "bitflip_writeback,nth=2", /*with_integrity=*/true);
  EXPECT_EQ(fixture.host, golden_output())
      << "scatter must repair the flipped staged value from the device buffer";
  EXPECT_EQ(result.fault.injected, 1u);
  EXPECT_EQ(result.dur.detected_by_site[site(dur::Site::kWriteback)], 1u);
  EXPECT_GE(result.dur.repaired, 1u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
}

TEST(DurIntegrityTest, WritebackBitflipCorruptsOutputWithoutIntegrity) {
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, "bitflip_writeback,nth=2", /*with_integrity=*/false);
  EXPECT_EQ(result.fault.injected, 1u);
  EXPECT_NE(fixture.host, golden_output())
      << "a flipped staged write must land in host memory unchecked";
}

// --- resident cache entries ------------------------------------------------

// Read-only input stream (cacheable) feeding a read-write output stream:
// out[r] = in0 * 3 + in1; the second launch hits the cache.
struct SumKernel {
  StreamRef<std::uint64_t> in;
  StreamRef<std::uint64_t> out;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t in0 = ctx.read(in, r * 2);
      const std::uint64_t in1 = ctx.read(in, r * 2 + 1);
      ctx.alu(3);
      ctx.write(out, r, in0 * 3 + in1);
    }
  }
};

struct CacheFixture {
  static constexpr std::uint64_t kRecords = 12'000;

  sim::Simulation sim;
  gpusim::SystemConfig config;
  cusim::Runtime runtime;
  std::vector<std::uint64_t> input;
  std::vector<std::uint64_t> output;

  CacheFixture()
      : runtime((config.gpu.global_memory_bytes = 8 << 20, sim), config) {
    input.resize(kRecords * 2);
    output.resize(kRecords);
    for (std::uint64_t r = 0; r < kRecords; ++r) {
      input[r * 2] = r * 7 + 1;
      input[r * 2 + 1] = r ^ 0xC0FFEE;
    }
  }

  EngineMetrics launch(cache::ChunkCache& cache, dur::Integrity* integrity) {
    runtime.set_integrity(integrity);
    Engine engine(runtime, small_options());
    engine.set_chunk_cache(&cache, /*dataset_id=*/1);
    auto in_ref = engine.streaming_map<std::uint64_t>(
        std::span(input), AccessMode::kReadOnly, 2, 2);
    auto out_ref = engine.streaming_map<std::uint64_t>(
        std::span(output), AccessMode::kReadWrite, 1, 0, 1);
    SumKernel kernel{in_ref, out_ref};
    TableSet tables;
    sim.run_until_complete(
        [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
           SumKernel k) -> sim::Task<> {
          DeviceTables device = co_await DeviceTables::upload(rt, tbl);
          co_await eng.launch(k, kRecords, device);
        }(runtime, engine, tables, kernel));
    return engine.metrics();
  }

  void check_output() const {
    for (std::uint64_t r = 0; r < kRecords; ++r) {
      ASSERT_EQ(output[r], (r * 7 + 1) * 3 + (r ^ 0xC0FFEE)) << "record " << r;
    }
  }
};

TEST(DurIntegrityTest, CacheHitsAreVerifiedOnCleanRuns) {
  CacheFixture fixture;
  dur::Integrity integrity;
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  cache.set_integrity(&integrity);

  fixture.launch(cache, &integrity);
  const EngineMetrics warm = fixture.launch(cache, &integrity);
  fixture.check_output();
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(integrity.stats().verified_by_site[site(dur::Site::kCache)],
            warm.cache_hits);
  EXPECT_EQ(integrity.stats().detected, 0u);
}

TEST(DurIntegrityTest, CacheBitflipEvictsTheEntryAndRestagesCleanBytes) {
  CacheFixture fixture;
  fault::FaultPlane plane(/*seed=*/1);
  plane.add_all(fault::FaultSpec::parse("bitflip_cache,nth=1"));
  dur::Integrity integrity;
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  cache.set_integrity(&integrity);
  cache.set_fault(&plane, /*device=*/0);

  const EngineMetrics cold = fixture.launch(cache, &integrity);
  // Second launch: the first quiescent hit gets its bytes flipped; the
  // verify catches it, the entry dies, and the engine restages that chunk.
  const EngineMetrics warm = fixture.launch(cache, &integrity);
  fixture.check_output();
  EXPECT_EQ(plane.stats().injected, 1u);
  EXPECT_EQ(plane.stats().recovered, plane.stats().injected);
  EXPECT_EQ(integrity.stats().detected_by_site[site(dur::Site::kCache)], 1u);
  EXPECT_GE(cache.stats().invalidations, 1u);
  // The corrupted entry read misses; every other chunk still hits.
  EXPECT_GE(warm.cache_misses, 1u);
  EXPECT_LT(warm.cache_misses, cold.cache_misses);
}

TEST(DurIntegrityTest, CacheBitflipCorruptsOutputWithoutIntegrity) {
  CacheFixture fixture;
  fault::FaultPlane plane(/*seed=*/1);
  plane.add_all(fault::FaultSpec::parse("bitflip_cache,nth=1"));
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  cache.set_fault(&plane, /*device=*/0);

  fixture.launch(cache, nullptr);
  const std::vector<std::uint64_t> clean = fixture.output;
  fixture.launch(cache, nullptr);
  // Entries carry no digest, so the flipped resident bytes feed compute
  // unchecked: the warm launch silently diverges and nothing is recovered.
  EXPECT_EQ(plane.stats().injected, 1u);
  EXPECT_EQ(plane.stats().recovered, 0u);
  EXPECT_NE(fixture.output, clean)
      << "with integrity off the flipped cache entry must poison the output";
}

}  // namespace
}  // namespace bigk::core
