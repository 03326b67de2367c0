// Integration tests for the BigKernel engine: functional correctness of the
// full 4(+2)-stage pipeline under every feature combination, plus the
// mechanism checks behind the paper's claims (single launch, transfer
// reduction, pattern recognition, coalesced layout).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/device_tables.hpp"
#include "core/options.hpp"
#include "cusim/runtime.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

// Toy streaming kernel: records of 4 elements [a, b, pad, out];
// out = a + b + bias. Reads are strided (pattern-friendly), control flow is
// independent of stream values.
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

// Irregular variant: the first read hops around pseudo-randomly (but
// data-independently), so no stride pattern exists.
struct IrregularKernel {
  StreamRef<std::uint64_t> data;
  std::uint64_t num_records;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t other = (r * 2654435761u) % num_records;
      const std::uint64_t a = ctx.read(data, other * 4);
      const std::uint64_t b = ctx.read(data, r * 4 + 1);
      ctx.write(data, r * 4 + 3, a ^ b);
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

/// Runs ScaleKernel through the engine and returns (metrics, elapsed).
EngineMetrics run_scale(Fixture& fixture, Options options,
                        sim::TimePs* elapsed = nullptr) {
  cusim::Runtime runtime(fixture.sim, fixture.config);
  Engine engine(runtime, options);
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

  if (elapsed) *elapsed = fixture.sim.now();
  return engine.metrics();
}

void expect_scale_output(const Fixture& fixture) {
  for (std::uint64_t r = 0; r < Fixture::kRecords; ++r) {
    ASSERT_EQ(fixture.host[r * 4 + 3], r * 3 + (r ^ 5) + 7) << "record " << r;
    ASSERT_EQ(fixture.host[r * 4 + 2], 0xDEADu) << "pad clobbered at " << r;
  }
}

TEST(EngineTest, FullPipelineComputesCorrectResults) {
  Fixture fixture;
  run_scale(fixture, small_options());
  expect_scale_output(fixture);
}

TEST(EngineTest, OverlapOnlyModeComputesCorrectResults) {
  Fixture fixture;
  Options options = small_options();
  options.transfer_reduction = false;
  options.coalesced_layout = false;
  run_scale(fixture, options);
  expect_scale_output(fixture);
}

TEST(EngineTest, TransferReductionWithoutCoalescingComputesCorrectResults) {
  Fixture fixture;
  Options options = small_options();
  options.coalesced_layout = false;
  run_scale(fixture, options);
  expect_scale_output(fixture);
}

TEST(EngineTest, PatternRecognitionOffComputesCorrectResults) {
  Fixture fixture;
  Options options = small_options();
  options.pattern_recognition = false;
  run_scale(fixture, options);
  expect_scale_output(fixture);
}

TEST(EngineTest, LocalityAssemblyOffComputesCorrectResults) {
  Fixture fixture;
  Options options = small_options();
  options.locality_assembly = false;
  run_scale(fixture, options);
  expect_scale_output(fixture);
}

TEST(EngineTest, DeepAndShallowRingsAgree) {
  for (std::uint32_t depth : {2u, 3u, 5u}) {
    Fixture fixture;
    Options options = small_options();
    options.buffer_depth = depth;
    run_scale(fixture, options);
    expect_scale_output(fixture);
  }
}

TEST(EngineTest, SingleKernelLaunchForWholeStream) {
  Fixture fixture;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  Engine engine(runtime, small_options());
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host), AccessMode::kReadWrite, 4, 2, 1);
  TableSet tables;
  auto bias = tables.add<std::uint64_t>(1);
  ScaleKernel kernel{stream, bias};
  fixture.sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
         ScaleKernel k) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, Fixture::kRecords, device);
      }(runtime, engine, tables, kernel));
  EXPECT_EQ(runtime.gpu().stats().kernel_launches, 1u);
  EXPECT_GT(engine.metrics().chunks, engine.active_blocks());
}

// The engine is the one accumulator of its metrics: a second launch adds to
// the first instead of replacing it.
TEST(EngineTest, RepeatedLaunchesSumTheirMetrics) {
  Fixture fixture;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  Engine engine(runtime, small_options());
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host), AccessMode::kReadWrite, 4, 2, 1);
  TableSet tables;
  auto bias = tables.add<std::uint64_t>(1);
  tables.host_span(bias)[0] = 7;
  ScaleKernel kernel{stream, bias};
  EngineMetrics first;
  fixture.sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl, ScaleKernel k,
         EngineMetrics* after_first) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, Fixture::kRecords, device);
        *after_first = eng.metrics();
        co_await eng.launch(k, Fixture::kRecords, device);
      }(runtime, engine, tables, kernel, &first));
  expect_scale_output(fixture);

  // Both launches move the same records through the same geometry, so every
  // count doubles exactly; busy time only grows.
  const EngineMetrics& total = engine.metrics();
  ASSERT_GT(first.chunks, 0u);
  EXPECT_EQ(total.chunks, 2 * first.chunks);
  EXPECT_EQ(total.thread_chunks, 2 * first.thread_chunks);
  EXPECT_EQ(total.pattern_hits, 2 * first.pattern_hits);
  EXPECT_EQ(total.addr_bytes_sent, 2 * first.addr_bytes_sent);
  EXPECT_EQ(total.data_bytes_sent, 2 * first.data_bytes_sent);
  EXPECT_EQ(total.write_bytes_sent, 2 * first.write_bytes_sent);
  EXPECT_EQ(total.source_bytes_read, 2 * first.source_bytes_read);
  EXPECT_EQ(total.elements_fetched, 2 * first.elements_fetched);
  EXPECT_EQ(total.elements_written, 2 * first.elements_written);
  for (obs::Stage stage : obs::all_stages()) {
    EXPECT_GT(total.stage_busy(stage), first.stage_busy(stage))
        << obs::stage_name(stage);
  }
}

TEST(EngineTest, TransferReductionShrinksDataTraffic) {
  Fixture full_fixture;
  const EngineMetrics full = run_scale(full_fixture, small_options());
  Fixture fetch_all_fixture;
  Options fetch_all = small_options();
  fetch_all.transfer_reduction = false;
  fetch_all.coalesced_layout = false;
  const EngineMetrics all = run_scale(fetch_all_fixture, fetch_all);
  // The kernel reads 2 of 4 elements: reduced traffic should be ~half.
  EXPECT_LT(full.data_bytes_sent, all.data_bytes_sent * 6 / 10);
  EXPECT_GT(full.data_bytes_sent, all.data_bytes_sent * 4 / 10);
}

TEST(EngineTest, PatternRecognitionShrinksAddressTraffic) {
  // Use realistically sized chunks so the fixed ~tens-of-bytes pattern
  // descriptor amortizes (with 10-record chunks it saves only ~4x).
  Options options = small_options();
  options.data_buf_bytes = 256 << 10;
  Fixture with_fixture;
  const EngineMetrics with_patterns = run_scale(with_fixture, options);
  Fixture without_fixture;
  Options no_patterns = options;
  no_patterns.pattern_recognition = false;
  const EngineMetrics without = run_scale(without_fixture, no_patterns);
  EXPECT_DOUBLE_EQ(with_patterns.pattern_hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(without.pattern_hit_rate(), 0.0);
  // One 8-byte address per access vs a ~32-byte descriptor per thread-chunk.
  EXPECT_LT(with_patterns.addr_bytes_sent, without.addr_bytes_sent / 10);
}

TEST(EngineTest, CoalescedLayoutSpeedsUpComputeStage) {
  Fixture coalesced_fixture;
  sim::TimePs coalesced_elapsed = 0;
  const EngineMetrics coalesced =
      run_scale(coalesced_fixture, small_options(), &coalesced_elapsed);
  Fixture strided_fixture;
  Options strided_options = small_options();
  strided_options.coalesced_layout = false;
  sim::TimePs strided_elapsed = 0;
  const EngineMetrics strided =
      run_scale(strided_fixture, strided_options, &strided_elapsed);
  EXPECT_LT(coalesced.compute_busy(), strided.compute_busy());
}

TEST(EngineTest, IrregularAccessesFindNoPatternButStayCorrect) {
  Fixture fixture;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  Engine engine(runtime, small_options());
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host), AccessMode::kReadWrite, 4, 2, 1);
  TableSet tables;
  IrregularKernel kernel{stream, Fixture::kRecords};
  fixture.sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
         IrregularKernel k) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, Fixture::kRecords, device);
      }(runtime, engine, tables, kernel));
  // The strided second read still patterns; the scrambled first one cannot.
  EXPECT_LT(engine.metrics().pattern_hit_rate(), 0.8);
  for (std::uint64_t r = 0; r < Fixture::kRecords; ++r) {
    const std::uint64_t other = (r * 2654435761u) % Fixture::kRecords;
    ASSERT_EQ(fixture.host[r * 4 + 3],
              (other * 3) ^ (r ^ 5))
        << "record " << r;
  }
}

TEST(EngineTest, ReadProportionIsReflectedInSourceReads) {
  Fixture fixture;
  const EngineMetrics metrics = run_scale(fixture, small_options());
  // 2 of 4 elements fetched exactly once each.
  EXPECT_EQ(metrics.elements_fetched, Fixture::kRecords * 2);
  EXPECT_EQ(metrics.elements_written, Fixture::kRecords);
  EXPECT_EQ(metrics.source_bytes_read, Fixture::kRecords * 2 * 8);
}

TEST(EngineTest, StageBusyTimesAreAllPopulated) {
  Fixture fixture;
  const EngineMetrics metrics = run_scale(fixture, small_options());
  EXPECT_GT(metrics.addr_gen_busy(), 0u);
  EXPECT_GT(metrics.assembly_busy(), 0u);
  EXPECT_GT(metrics.transfer_busy(), 0u);
  EXPECT_GT(metrics.compute_busy(), 0u);
  EXPECT_GT(metrics.writeback_busy(), 0u);
  // Address generation runs a skeleton kernel: it must be the cheap stage.
  EXPECT_LT(metrics.addr_gen_busy(), metrics.compute_busy());
}

TEST(EngineTest, ZeroRecordsCompletesImmediately) {
  Fixture fixture;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  Engine engine(runtime, small_options());
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host), AccessMode::kReadWrite, 4, 2, 1);
  TableSet tables;
  auto bias = tables.add<std::uint64_t>(1);
  ScaleKernel kernel{stream, bias};
  fixture.sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
         ScaleKernel k) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, 0, device);
      }(runtime, engine, tables, kernel));
  EXPECT_EQ(engine.metrics().chunks, 0u);
}

TEST(EngineTest, AutoSizedBuffersFitDeviceMemory) {
  Fixture fixture;
  Options options = small_options();
  options.data_buf_bytes = 0;  // auto-size from free memory
  run_scale(fixture, options);
  expect_scale_output(fixture);
}

TEST(EngineTest, OversizedExplicitBuffersThrow) {
  Fixture fixture;
  Options options = small_options();
  options.data_buf_bytes = 1ull << 30;  // far beyond the 8 MB device
  // Caught by the engine's construction-time validation, before any device
  // allocation happens (tests/core/options_validate_test.cpp covers the
  // diagnostics in detail).
  EXPECT_THROW(run_scale(fixture, options), std::invalid_argument);
}

TEST(EngineTest, LaunchWithoutStreamsThrows) {
  sim::Simulation sim;
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 1 << 20;
  cusim::Runtime runtime(sim, config);
  Engine engine(runtime, small_options());
  TableSet tables;
  DeviceTables device;
  ScaleKernel kernel{};
  EXPECT_THROW(sim.run_until_complete(engine.launch(kernel, 10, device)),
               std::logic_error);
}

TEST(EngineOptionsTest, ValidationRejectsBadShapes) {
  Options bad_threads;
  bad_threads.compute_threads_per_block = 100;  // not a warp multiple
  EXPECT_THROW(bad_threads.validate(), std::invalid_argument);

  Options bad_depth;
  bad_depth.buffer_depth = 1;
  EXPECT_THROW(bad_depth.validate(), std::invalid_argument);

  Options bad_blocks;
  bad_blocks.num_blocks = 0;
  EXPECT_THROW(bad_blocks.validate(), std::invalid_argument);
}

TEST(EngineOptionsTest, PresetsMatchAblationDefinitions) {
  const Options overlap = Options::overlap_only();
  EXPECT_FALSE(overlap.transfer_reduction);
  EXPECT_FALSE(overlap.coalesced_layout);
  const Options reduced = Options::with_transfer_reduction();
  EXPECT_TRUE(reduced.transfer_reduction);
  EXPECT_FALSE(reduced.coalesced_layout);
  const Options full = Options::full();
  EXPECT_TRUE(full.transfer_reduction && full.coalesced_layout);
}

TEST(EngineTest, PinnedFootprintIsTracked) {
  Fixture fixture;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  Engine engine(runtime, small_options());
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host), AccessMode::kReadWrite, 4, 2, 1);
  TableSet tables;
  auto bias = tables.add<std::uint64_t>(1);
  ScaleKernel kernel{stream, bias};
  fixture.sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
         ScaleKernel k) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, Fixture::kRecords, device);
      }(runtime, engine, tables, kernel));
  EXPECT_GT(runtime.pinned_bytes(), 0u);
}

}  // namespace
}  // namespace bigk::core
