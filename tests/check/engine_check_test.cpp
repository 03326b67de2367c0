// End-to-end tests of the bigkcheck sanitizers against the real BigKernel
// engine. The healthy pipeline must run clean under every checker; the
// seeded protocol bugs (always-on fault-plane specs such as
// "skip_data_ready_wait") must corrupt results silently without the
// checkers and be precisely diagnosed with them.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/chunk_cache.hpp"
#include "check/options.hpp"
#include "check/report.hpp"
#include "check/sanitizer.hpp"
#include "core/device_tables.hpp"
#include "core/options.hpp"
#include "cusim/runtime.hpp"
#include "fault/fault.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

// Same toy kernel as engine_test: records of 4 elements [a, b, pad, out];
// out = a + b + bias.
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

// Misbehaving kernel: the compute stage sneaks in one read per thread-chunk
// that address generation never produced — the address-coverage bug class.
struct GreedyKernel {
  StreamRef<std::uint64_t> data;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t a = ctx.read(data, r * 4);
      if constexpr (std::is_same_v<Ctx, ComputeCtx>) {
        if (r == rec_begin) (void)ctx.read(data, r * 4 + 1);
      }
      ctx.write(data, r * 4 + 3, a + 1);
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

/// Arms `seeded_bug` (a protocol-bug fault spec; null = none) on a fault
/// plane attached to `runtime`.
void seed_bug(cusim::Runtime& runtime, fault::FaultPlane& plane,
              const char* seeded_bug) {
  if (seeded_bug == nullptr) return;
  plane.add_all(fault::FaultSpec::parse(seeded_bug));
  runtime.set_fault_plane(&plane);
}

/// Runs ScaleKernel through the engine; `sanitizer` (optional) is installed
/// before any engine allocation and fed to the engine for pipeline events.
void run_scale(Fixture& fixture, check::Sanitizer* sanitizer = nullptr,
               const char* seeded_bug = nullptr) {
  fault::FaultPlane plane;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  seed_bug(runtime, plane, seeded_bug);
  if (sanitizer != nullptr) sanitizer->install(runtime.gpu());
  Engine engine(runtime, small_options());
  if (sanitizer != nullptr) engine.set_sanitizer(sanitizer);
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
  // The runtime (and its Gpu) dies with this scope; a caller-owned sanitizer
  // must not keep observing it.
  if (sanitizer != nullptr) sanitizer->uninstall();
}

std::uint64_t count_scale_mismatches(const Fixture& fixture) {
  std::uint64_t mismatches = 0;
  for (std::uint64_t r = 0; r < Fixture::kRecords; ++r) {
    if (fixture.host[r * 4 + 3] != r * 3 + (r ^ 5) + 7) ++mismatches;
  }
  return mismatches;
}

TEST(EngineCheckTest, ExternalSanitizerCollectsNothingOnHealthyRun) {
  Fixture fixture;
  check::Sanitizer sanitizer(check::CheckOptions::all_enabled());
  run_scale(fixture, &sanitizer);
  EXPECT_EQ(sanitizer.reporter().total(), 0u);
  EXPECT_NO_THROW(sanitizer.finalize());
  EXPECT_EQ(count_scale_mismatches(fixture), 0u);
}

TEST(EngineCheckTest, SkippedDataReadyWaitCorruptsResultsSilently) {
  // The seeded bug without the checker: the run "succeeds" while the compute
  // stage consumed staging buffers before the DMA landed.
  Fixture fixture;
  run_scale(fixture, nullptr, "skip_data_ready_wait");
  EXPECT_GT(count_scale_mismatches(fixture), 0u);
}

TEST(EngineCheckTest, SkippedDataReadyWaitIsDiagnosedAsFlagBeforeData) {
  Fixture fixture;
  check::Sanitizer sanitizer(check::CheckOptions::all_enabled());
  run_scale(fixture, &sanitizer, "skip_data_ready_wait");

  ASSERT_GT(sanitizer.reporter().total(), 0u);
  const check::Violation* flag_violation = nullptr;
  for (const check::Violation& violation : sanitizer.reporter().recorded()) {
    if (violation.kind == "flag_before_data") {
      flag_violation = &violation;
      break;
    }
  }
  ASSERT_NE(flag_violation, nullptr) << sanitizer.reporter().summary();
  EXPECT_EQ(flag_violation->checker, "pipecheck");
  // Chunk 0 skips the wait entirely: the first unserved chunk is diagnosed.
  EXPECT_EQ(flag_violation->chunk, 0);
  EXPECT_GE(flag_violation->block, 0);
  EXPECT_LT(flag_violation->block, 4);
  EXPECT_GE(flag_violation->slot, 0);

  try {
    sanitizer.finalize();
    FAIL() << "finalize() must throw on violations";
  } catch (const check::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("flag_before_data"),
              std::string::npos)
        << error.what();
  }
}

TEST(EngineCheckTest, EarlyRingReleaseIsDiagnosedAsSlotOverrun) {
  Fixture fixture;
  check::Sanitizer sanitizer(check::CheckOptions::all_enabled());
  run_scale(fixture, &sanitizer, "early_ring_release");

  const check::Violation* overrun = nullptr;
  for (const check::Violation& violation : sanitizer.reporter().recorded()) {
    if (violation.kind == "slot_overrun") {
      overrun = &violation;
      break;
    }
  }
  ASSERT_NE(overrun, nullptr) << sanitizer.reporter().summary();
  EXPECT_EQ(overrun->checker, "pipecheck");
  EXPECT_GE(overrun->block, 0);
  EXPECT_GE(overrun->chunk, 0);
  EXPECT_GE(overrun->slot, 0);
  EXPECT_NE(overrun->message.find("still in flight"), std::string::npos)
      << overrun->message;
}

TEST(EngineCheckTest, ComputeReadBeyondGeneratedAddressesIsUncovered) {
  Fixture fixture;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  check::Sanitizer sanitizer(check::CheckOptions::parse("pipecheck"));
  sanitizer.install(runtime.gpu());
  Engine engine(runtime, small_options());
  engine.set_sanitizer(&sanitizer);
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host), AccessMode::kReadWrite, 4, 1, 1);
  TableSet tables;
  GreedyKernel kernel{stream};
  // Pipecheck records the read first; then the read, which has no data
  // buffer slot, stops the launch with the named contract error.
  try {
    fixture.sim.run_until_complete(
        [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
           GreedyKernel k) -> sim::Task<> {
          DeviceTables device = co_await DeviceTables::upload(rt, tbl);
          co_await eng.launch(k, Fixture::kRecords, device);
          device.release();
        }(runtime, engine, tables, kernel));
    FAIL() << "expected KernelContractError";
  } catch (const KernelContractError& error) {
    EXPECT_NE(std::string(error.what()).find("data buffer slot overflow"),
              std::string::npos)
        << error.what();
  }

  const check::Violation* uncovered = nullptr;
  for (const check::Violation& violation : sanitizer.reporter().recorded()) {
    if (violation.kind == "uncovered_read") {
      uncovered = &violation;
      break;
    }
  }
  ASSERT_NE(uncovered, nullptr) << sanitizer.reporter().summary();
  EXPECT_EQ(uncovered->stream, 0);
  EXPECT_GE(uncovered->thread, 0);
  EXPECT_GE(uncovered->chunk, 0);
}

// Read-only stream (cacheable) + read-write output, for the cache faults.
struct CachedSumKernel {
  StreamRef<std::uint64_t> in;
  StreamRef<std::uint64_t> out;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t a = ctx.read(in, r * 2);
      const std::uint64_t b = ctx.read(in, r * 2 + 1);
      ctx.write(out, r, a + b);
    }
  }
};

/// One cached launch over a read-only stream with an external sanitizer.
void run_cached_sum(Fixture& fixture, check::Sanitizer& sanitizer,
                    const char* seeded_bug = nullptr) {
  fault::FaultPlane plane;
  cusim::Runtime runtime(fixture.sim, fixture.config);
  seed_bug(runtime, plane, seeded_bug);
  sanitizer.install(runtime.gpu());
  cache::ChunkCache cache(runtime.gpu().memory(),
                          cache::ChunkCache::Config{2 << 20});
  std::vector<std::uint64_t> output(Fixture::kRecords);
  Engine engine(runtime, small_options());
  engine.set_sanitizer(&sanitizer);
  engine.set_chunk_cache(&cache, /*dataset_id=*/1);
  auto in_ref = engine.streaming_map<std::uint64_t>(
      std::span(fixture.host).first(Fixture::kRecords * 2),
      AccessMode::kReadOnly, 2, 2);
  auto out_ref = engine.streaming_map<std::uint64_t>(
      std::span(output), AccessMode::kReadWrite, 1, 0, 1);
  TableSet tables;
  CachedSumKernel kernel{in_ref, out_ref};
  fixture.sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
         CachedSumKernel k) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, Fixture::kRecords, device);
        device.release();
      }(runtime, engine, tables, kernel));
  sanitizer.uninstall();
}

TEST(EngineCheckTest, CachedLaunchRunsCleanUnderAllCheckers) {
  Fixture fixture;
  check::Sanitizer sanitizer(check::CheckOptions::all_enabled());
  run_cached_sum(fixture, sanitizer);
  EXPECT_EQ(sanitizer.reporter().total(), 0u)
      << sanitizer.reporter().summary();
}

TEST(EngineCheckTest, StaleCacheFaultIsDiagnosedAsStaleCacheRead) {
  Fixture fixture;
  check::Sanitizer sanitizer(check::CheckOptions::all_enabled());
  run_cached_sum(fixture, sanitizer, "stale_cache");

  const check::Violation* stale = nullptr;
  for (const check::Violation& violation : sanitizer.reporter().recorded()) {
    if (violation.kind == "stale_cache_read") {
      stale = &violation;
      break;
    }
  }
  ASSERT_NE(stale, nullptr) << sanitizer.reporter().summary();
  EXPECT_EQ(stale->checker, "pipecheck");
  EXPECT_EQ(stale->stream, 0);  // only the read-only stream is cache-served
  EXPECT_GE(stale->allocation, 0);  // the condemned cache entry id
  EXPECT_NE(stale->message.find("reuse-after-invalidation"),
            std::string::npos)
      << stale->message;
}

}  // namespace
}  // namespace bigk::core
