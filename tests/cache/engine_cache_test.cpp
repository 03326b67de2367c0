// End-to-end tests for bigkcache wired into the core engine: a second launch
// over the same read-only stream must hit the chunk cache, skip the H2D
// transfer for every hit, and still compute byte-identical results. The
// static-signature tests launch through schemes::launch_app, the launch every
// runner and JobRunner makes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/chunk_cache.hpp"
#include "cache/pinned_pool.hpp"
#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "cusim/runtime.hpp"
#include "schemes/runners.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

// Read-only input stream (cacheable) feeding a read-write output stream
// (never cached): out[r] = in0 * 3 + in1.
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

  Options small_options() const {
    Options options;
    options.num_blocks = 4;
    options.compute_threads_per_block = 64;
    options.data_buf_bytes = 16 << 10;
    return options;
  }

  /// One engine launch; wires `cache`/`pool` in when non-null.
  EngineMetrics launch(cache::ChunkCache* cache, cache::PinnedPool* pool,
                       std::uint64_t dataset = 1) {
    Engine engine(runtime, small_options());
    engine.set_chunk_cache(cache, dataset);
    engine.set_pinned_pool(pool);
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

  /// The fixture's streams as a duck-typed app for schemes::launch_app.
  struct SumApp {
    CacheFixture& fixture;
    TableSet table_set;

    void reset() {}
    std::uint64_t num_records() const { return kRecords; }
    TableSet& tables() { return table_set; }
    std::vector<schemes::StreamDecl> stream_decls() {
      schemes::StreamDecl in;
      in.binding.host_data =
          reinterpret_cast<const std::byte*>(fixture.input.data());
      in.binding.num_elements = fixture.input.size();
      in.binding.elem_size = 8;
      in.binding.mode = AccessMode::kReadOnly;
      in.binding.elems_per_record = 2;
      in.binding.reads_per_record = 2;
      schemes::StreamDecl out;
      out.binding.host_data =
          reinterpret_cast<const std::byte*>(fixture.output.data());
      out.binding.host_out =
          reinterpret_cast<std::byte*>(fixture.output.data());
      out.binding.num_elements = fixture.output.size();
      out.binding.elem_size = 8;
      out.binding.mode = AccessMode::kReadWrite;
      out.binding.elems_per_record = 1;
      out.binding.writes_per_record = 1;
      return {in, out};
    }
    SumKernel kernel() const { return SumKernel{{0}, {1}}; }
  };

  /// One schemes::launch_app of SumApp over `cache` (dataset 1) carrying
  /// the static pattern signature `signature`.
  EngineMetrics launch_app(cache::ChunkCache* cache,
                           std::uint64_t signature) {
    SumApp app{*this, {}};
    schemes::LaunchConfig cfg;
    cfg.engine = small_options();
    cfg.chunk_cache = cache;
    cfg.dataset_id = 1;
    cfg.static_signature = signature;
    EngineMetrics metrics;
    sim.run_until_complete(schemes::launch_app(runtime, app, cfg, &metrics));
    return metrics;
  }

  void check_output() const {
    for (std::uint64_t r = 0; r < kRecords; ++r) {
      ASSERT_EQ(output[r], (r * 7 + 1) * 3 + (r ^ 0xC0FFEE)) << "record " << r;
    }
  }
};

TEST(EngineCacheTest, SecondLaunchHitsAndSkipsTransfers) {
  CacheFixture fixture;
  // Generous partition: every chunk of the input stream fits resident.
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  cache::PinnedPool pool(fixture.runtime);

  const EngineMetrics cold = fixture.launch(&cache, &pool);
  fixture.check_output();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.cache_misses, 0u);
  EXPECT_GT(cache.stats().insertions, 0u)
      << "insert_failures=" << cache.stats().insert_failures;

  const EngineMetrics warm = fixture.launch(&cache, &pool);
  fixture.check_output();
  EXPECT_EQ(warm.cache_misses, 0u)
      << "hits=" << warm.cache_hits
      << " insertions=" << cache.stats().insertions
      << " insert_failures=" << cache.stats().insert_failures
      << " evictions=" << cache.stats().evictions
      << " invalidations=" << cache.stats().invalidations;
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  EXPECT_GT(warm.cache_bytes_saved, 0u);
  // Every hit skips its H2D copy: the warm launch moves strictly fewer bytes.
  EXPECT_LT(warm.data_bytes_sent, cold.data_bytes_sent);
}

TEST(EngineCacheTest, ResultsAreByteIdenticalWithAndWithoutCache) {
  CacheFixture plain;
  plain.launch(nullptr, nullptr);
  const std::vector<std::uint64_t> expected = plain.output;

  CacheFixture cached;
  cache::ChunkCache cache(cached.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  cached.launch(&cache, nullptr);
  EXPECT_EQ(cached.output, expected);
  cached.launch(&cache, nullptr);  // warm pass reads cached device ranges
  EXPECT_EQ(cached.output, expected);
}

TEST(EngineCacheTest, DatasetInvalidationForcesReassembly) {
  CacheFixture fixture;
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  fixture.launch(&cache, nullptr);
  const std::uint64_t resident = cache.resident_bytes(1);
  EXPECT_GT(resident, 0u);

  // The input mutates: the owner invalidates before relaunching.
  for (std::uint64_t r = 0; r < CacheFixture::kRecords; ++r) {
    fixture.input[r * 2] = r * 11 + 5;
  }
  cache.invalidate_dataset(1, fixture.sim.now());
  EXPECT_EQ(cache.resident_bytes(1), 0u);

  const EngineMetrics metrics = fixture.launch(&cache, nullptr);
  EXPECT_EQ(metrics.cache_hits, 0u);
  EXPECT_GT(metrics.cache_misses, 0u);
  for (std::uint64_t r = 0; r < CacheFixture::kRecords; ++r) {
    ASSERT_EQ(fixture.output[r], (r * 11 + 5) * 3 + (r ^ 0xC0FFEE))
        << "record " << r;
  }
}

TEST(EngineCacheTest, DistinctDatasetsDoNotCollide) {
  CacheFixture fixture;
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  fixture.launch(&cache, nullptr, /*dataset=*/1);
  // Same geometry, different dataset id: must miss, not alias dataset 1.
  const EngineMetrics other = fixture.launch(&cache, nullptr, /*dataset=*/2);
  EXPECT_EQ(other.cache_hits, 0u);
  EXPECT_GT(other.cache_misses, 0u);
  EXPECT_GT(cache.resident_bytes(2), 0u);
}

TEST(EngineCacheTest, EqualStaticSignaturesShareCacheEntries) {
  CacheFixture fixture;
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  const EngineMetrics cold = fixture.launch_app(&cache, 0x5157);
  EXPECT_GT(cold.cache_misses, 0u);
  const EngineMetrics warm = fixture.launch_app(&cache, 0x5157);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  fixture.check_output();
}

TEST(EngineCacheTest, DistinctStaticSignaturesShareNoCacheEntries) {
  // Same app, dataset and geometry: only the signature differs, so the
  // second launch must miss every chunk and insert its own entries.
  CacheFixture fixture;
  cache::ChunkCache cache(fixture.runtime.gpu().memory(),
                          cache::ChunkCache::Config{4 << 20});
  const EngineMetrics first = fixture.launch_app(&cache, 0x5157);
  const std::uint64_t first_insertions = cache.stats().insertions;
  EXPECT_GT(first_insertions, 0u);
  const EngineMetrics second = fixture.launch_app(&cache, 0xA11CE);
  EXPECT_EQ(second.cache_hits, 0u);
  EXPECT_EQ(second.cache_misses, first.cache_misses);
  EXPECT_EQ(cache.stats().insertions, 2 * first_insertions);
  EXPECT_EQ(cache.stats().evictions, 0u);
  fixture.check_output();
}

TEST(EngineCacheTest, PinnedPoolReusesAssemblyBuffers) {
  CacheFixture fixture;
  cache::PinnedPool pool(fixture.runtime);
  fixture.launch(nullptr, &pool);
  const cache::PinnedPool::Stats cold = pool.stats();
  EXPECT_GT(cold.fresh_allocations, 0u);
  fixture.launch(nullptr, &pool);
  const cache::PinnedPool::Stats warm = pool.stats();
  // Second launch draws the same slot geometry from the pool: no new backing
  // buffers, every acquire is a reuse.
  EXPECT_EQ(warm.fresh_allocations, cold.fresh_allocations);
  EXPECT_GT(warm.reuses, cold.reuses);
  fixture.check_output();
}

}  // namespace
}  // namespace bigk::core
