// bigkfault end-to-end recovery at the engine level: with a fault plane
// attached to the runtime, injected faults are absorbed (chunk-level H2D
// retry, watchdog-bounded stalls, degraded ring depth) and the launch output
// is byte-identical to a fault-free run — the recovery suite behind the
// fault.recovered == fault.injected contract. Unrecoverable specs abort the
// launch with the matching typed error instead of hanging or corrupting.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/pinned_pool.hpp"
#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "cusim/runtime.hpp"
#include "fault/fault.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

// Same toy streaming kernel as the engine tests: records of 4 elements
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
  EngineMetrics engine;
  sim::TimePs elapsed = 0;
};

/// Runs ScaleKernel with `spec` installed on the runtime's fault plane
/// (empty = fault-free). `use_pinned_pool` attaches an external PinnedPool —
/// the pinned_alloc_fail injection site and the degraded-ring path.
RunResult run_scale(Fixture& fixture, Options options, const char* spec,
                    bool use_pinned_pool = false) {
  fault::FaultPlane plane(/*seed=*/1);
  cusim::Runtime runtime(fixture.sim, fixture.config);
  if (spec != nullptr && spec[0] != '\0') {
    plane.add_all(fault::FaultSpec::parse(spec));
    runtime.set_fault_plane(&plane);
  }
  cache::PinnedPool pool(runtime);
  Engine engine(runtime, options);
  if (use_pinned_pool) engine.set_pinned_pool(&pool);
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

  return RunResult{plane.stats(), engine.metrics(), fixture.sim.now()};
}

/// Golden output: one fault-free run's host bytes.
const std::vector<std::uint64_t>& golden_output() {
  static const std::vector<std::uint64_t> golden = [] {
    Fixture fixture;
    run_scale(fixture, small_options(), "");
    return fixture.host;
  }();
  return golden;
}

void expect_byte_identical(const Fixture& fixture) {
  ASSERT_EQ(fixture.host, golden_output())
      << "recovered run diverged from the fault-free output";
}

TEST(EngineRecoveryTest, DmaErrorRetryIsByteIdentical) {
  Fixture fixture;
  const RunResult result = run_scale(fixture, small_options(), "dma_error,nth=3");
  expect_byte_identical(fixture);
  EXPECT_EQ(result.fault.injected, 1u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
  EXPECT_GE(result.engine.chunk_retries, 1u);
  EXPECT_GT(result.engine.retried_bytes, 0u);
}

TEST(EngineRecoveryTest, RepeatedDmaErrorsAreAllAbsorbed) {
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, small_options(), "dma_error,nth=2,every=7,max=4");
  expect_byte_identical(fixture);
  EXPECT_EQ(result.fault.injected, 4u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
}

TEST(EngineRecoveryTest, EccCorruptionIsRestagedByteIdentical) {
  // ecc_corrupt lands the copy, then trashes device bytes; the retry
  // re-transfers the pinned image, so the corruption never reaches compute.
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, small_options(), "ecc_corrupt,nth=2,every=5,max=3");
  expect_byte_identical(fixture);
  EXPECT_EQ(result.fault.injected, 3u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
  EXPECT_GE(result.engine.chunk_retries, 3u);
}

TEST(EngineRecoveryTest, FiniteStageStallIsAbsorbed) {
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, small_options(), "stage_stall,nth=2,stall_us=50");
  expect_byte_identical(fixture);
  EXPECT_EQ(result.fault.injected, 1u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
  // The absorbed stall costs sim time relative to the fault-free run.
  Fixture baseline;
  const RunResult clean = run_scale(baseline, small_options(), "");
  EXPECT_GT(result.elapsed, clean.elapsed);
}

TEST(EngineRecoveryTest, PinnedAllocFailureDegradesRingByteIdentical) {
  // With a pool attached, the 3rd slot acquisition is block 0's last ring
  // slot (depth 3): the failure rolls that slot back and block 0 runs with a
  // 2-deep ring while every other block keeps 3.
  Fixture fixture;
  const RunResult result = run_scale(fixture, small_options(),
                                     "pinned_alloc_fail,nth=3",
                                     /*use_pinned_pool=*/true);
  expect_byte_identical(fixture);
  EXPECT_EQ(result.fault.injected, 1u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
  EXPECT_EQ(result.fault.degraded, 1u);
  EXPECT_EQ(result.engine.degraded_blocks, 1u);
}

TEST(EngineRecoveryTest, RetryBackoffIsExponentialAndCapped) {
  const sim::DurationPs b = kRetryBackoff;
  EXPECT_EQ(retry_backoff_for(0), b);
  EXPECT_EQ(retry_backoff_for(1), 2 * b);
  EXPECT_EQ(retry_backoff_for(2), 4 * b);
  EXPECT_EQ(retry_backoff_for(3), 8 * b);
  EXPECT_EQ(retry_backoff_for(4), 16 * b);
  // Past the cap the backoff is flat — attempts never overflow the shift.
  EXPECT_EQ(retry_backoff_for(5), 16 * b);
  EXPECT_EQ(retry_backoff_for(1'000'000), 16 * b);
}

TEST(EngineRecoveryTest, CapBoundaryRetriesRecoverByteIdentical) {
  // Exactly max_chunk_retries (4) failures on the first chunk: the retry
  // ladder rides b, 2b, 4b, 8b and the fifth attempt lands, so the launch
  // recovers at the precise boundary past which it would abort.
  Fixture fixture;
  const RunResult result =
      run_scale(fixture, small_options(), "dma_error,nth=1,every=1,max=4");
  expect_byte_identical(fixture);
  EXPECT_EQ(result.fault.injected, 4u);
  EXPECT_EQ(result.fault.recovered, result.fault.injected);
  EXPECT_GE(result.engine.chunk_retries, 4u);
  // The ladder is deterministic: a second seeded run matches to the tick.
  Fixture again;
  const RunResult rerun =
      run_scale(again, small_options(), "dma_error,nth=1,every=1,max=4");
  EXPECT_EQ(rerun.elapsed, result.elapsed);
  EXPECT_EQ(again.host, fixture.host);
}

TEST(EngineRecoveryTest, ExhaustedRetriesAbortWithDmaError) {
  // Every H2D fails, retries included: the supervisor gives up after
  // max_chunk_retries and the launch rethrows DmaError.
  Fixture fixture;
  EXPECT_THROW(run_scale(fixture, small_options(), "dma_error,nth=1,every=1"),
               fault::DmaError);
}

TEST(EngineRecoveryTest, DeviceLostAbortsWithDeviceLostError) {
  Fixture fixture;
  EXPECT_THROW(run_scale(fixture, small_options(), "device_lost,nth=1"),
               fault::DeviceLostError);
}

TEST(EngineRecoveryTest, IndefiniteStallTripsTheWatchdog) {
  // stall with no duration = stalled forever; the stage watchdog converts
  // the hang into TimeoutError instead of deadlocking the simulation.
  Fixture fixture;
  Options options = small_options();
  options.recovery.watchdog_timeout = 5'000'000'000;  // 5 us of sim time
  EXPECT_THROW(run_scale(fixture, options, "stage_stall,nth=1"),
               fault::TimeoutError);
}

}  // namespace
}  // namespace bigk::core
