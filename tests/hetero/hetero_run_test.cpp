// End-to-end properties of the bigkhetero co-execution runner: the output
// must be byte-identical to the serial reference across every split ratio
// (the determinism lock from the issue), the dynamic balancer must shift
// work toward the CPU when a seeded stall fault degrades the GPU side, and
// a well-balanced dynamic run must beat the better of its own single-side
// endpoints — the number that justifies co-execution at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/wordcount.hpp"
#include "fault/fault.hpp"
#include "schemes/runners.hpp"

namespace bigk::hetero {
namespace {

gpusim::SystemConfig tiny_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 2 << 20;
  return config;
}

schemes::SchemeConfig tiny_scheme_config() {
  schemes::SchemeConfig sc;
  sc.bigkernel.num_blocks = 4;
  sc.bigkernel.compute_threads_per_block = 64;
  return sc;
}

TEST(HeteroRun, DigestByteIdenticalAcrossStaticRatios) {
  apps::WordCountApp app({.data_bytes = 1 << 19, .seed = 1001});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  const std::uint64_t reference = app.result_digest();
  ASSERT_NE(reference, apps::kFnvBasis);

  for (double ratio : {0.0, 0.25, 0.5, 1.0}) {
    sc.hetero.cpu_ratio = ratio;
    sc.hetero.dynamic = false;
    const auto metrics = run_hetero(tiny_config(), app, sc);
    EXPECT_EQ(app.result_digest(), reference) << "ratio " << ratio;
    EXPECT_EQ(metrics.hetero.cpu_records + metrics.hetero.gpu_records,
              app.num_records())
        << "ratio " << ratio;
  }
}

// K-means is the read-write app: both sides write cluster ids into the
// stream's output column, the CPU side through its own context and the GPU
// side through the engine's write-back, and every record's id must land.
TEST(HeteroRun, KmeansDigestMatchesAcrossRatios) {
  apps::KmeansApp app({.data_bytes = 1 << 19, .seed = 1004});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  const std::uint64_t reference = app.result_digest();
  for (double ratio : {0.0, 0.25, 0.5, 1.0}) {
    sc.hetero.cpu_ratio = ratio;
    sc.hetero.dynamic = false;
    (void)run_hetero(tiny_config(), app, sc);
    EXPECT_EQ(app.result_digest(), reference) << "ratio " << ratio;
  }
  sc.hetero.cpu_ratio = 0.25;
  sc.hetero.dynamic = true;
  const auto metrics = run_hetero(tiny_config(), app, sc);
  EXPECT_EQ(app.result_digest(), reference) << "dynamic";
  EXPECT_GT(metrics.hetero.rounds, 1u);
}

// The variable-length (delimiter-scanned) log is the partition-sensitive
// app: the static split boundary lands mid-stream and must not double- or
// zero-count any record.
TEST(HeteroRun, MastercardDigestMatchesAcrossRatios) {
  apps::MastercardApp app({.data_bytes = 1 << 19, .seed = 1002});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  const std::uint64_t reference = app.result_digest();
  for (double ratio : {0.25, 0.5, 1.0}) {
    sc.hetero.cpu_ratio = ratio;
    const auto metrics = run_hetero(tiny_config(), app, sc);
    (void)metrics;
    EXPECT_EQ(app.result_digest(), reference) << "ratio " << ratio;
  }
}

TEST(HeteroRun, DynamicMatchesReferenceAndCoversAllRecords) {
  apps::WordCountApp app({.data_bytes = 1 << 19, .seed = 1003});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  const std::uint64_t reference = app.result_digest();
  sc.hetero.dynamic = true;
  const auto metrics =
      schemes::run_scheme(schemes::Scheme::kHetero, tiny_config(), app, sc);
  EXPECT_EQ(app.result_digest(), reference);
  EXPECT_EQ(metrics.scheme, schemes::Scheme::kHetero);
  EXPECT_GT(metrics.hetero.rounds, 1u);
  EXPECT_EQ(metrics.hetero.cpu_records + metrics.hetero.gpu_records,
            app.num_records());
}

// A job that fits in one chunk is never re-split: exactly one round, the
// whole job on the side the initial ratio rounds to.
TEST(HeteroRun, SingleChunkJobRunsInOneRound) {
  apps::WordCountApp app({.data_bytes = 1 << 15, .seed = 1004});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  const std::uint64_t reference = app.result_digest();
  sc.hetero.dynamic = true;
  sc.hetero.records_per_chunk = app.num_records();  // one chunk total
  sc.hetero.cpu_ratio = 0.25;                       // rounds to the GPU
  const auto metrics = run_hetero(tiny_config(), app, sc);
  EXPECT_EQ(app.result_digest(), reference);
  EXPECT_EQ(metrics.hetero.rounds, 1u);
  EXPECT_EQ(metrics.hetero.cpu_records, 0u);
  EXPECT_EQ(metrics.hetero.gpu_records, app.num_records());
}

// A stall fault only has injection sites on the engine pipeline, so it
// degrades the GPU side alone; the balancer must observe the slowdown and
// finish with a higher CPU share than the fault-free run — with the same
// bytes in the tables.
TEST(HeteroRun, RunLevelAttributionIsTheEngineStageArgmax) {
  // The run-level attribution is computed once, in RunScaffold::finish, from
  // the engine's stage sums, so a hetero run reports its GPU side's
  // bottleneck.
  apps::WordCountApp app({.data_bytes = 1 << 19, .seed = 1003});
  schemes::SchemeConfig sc = tiny_scheme_config();
  sc.hetero.cpu_ratio = 0.25;
  sc.hetero.dynamic = false;
  const schemes::RunMetrics metrics = run_hetero(tiny_config(), app, sc);
  const auto& busy = metrics.engine.stage_busy_ps;
  const auto argmax = std::max_element(busy.begin(), busy.end());
  ASSERT_GT(*argmax, 0u);
  EXPECT_EQ(metrics.prof.bottleneck, argmax - busy.begin());
  EXPECT_STRNE(metrics.bottleneck_stage_name(), "n/a");
  sim::DurationPs busy_sum = 0;
  for (const sim::DurationPs stage : busy) busy_sum += stage;
  EXPECT_DOUBLE_EQ(metrics.prof.overlap_efficiency,
                   std::max(0.0, 1.0 - static_cast<double>(metrics.total_time) /
                                           static_cast<double>(busy_sum)));
}

TEST(HeteroRun, GpuStallFaultShiftsRatioTowardCpu) {
  schemes::SchemeConfig sc = tiny_scheme_config();
  sc.hetero.dynamic = true;

  apps::WordCountApp app({.data_bytes = 1 << 19, .seed = 1005});
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  const std::uint64_t reference = app.result_digest();

  const auto clean = run_hetero(tiny_config(), app, sc);
  EXPECT_EQ(app.result_digest(), reference);

  fault::FaultPlane plane(1);
  plane.add_all(fault::FaultSpec::parse("stage_stall,nth=1,every=2,stall_us=100"));
  sc.fault_plane = &plane;
  const auto faulted = run_hetero(tiny_config(), app, sc);
  EXPECT_EQ(app.result_digest(), reference);
  EXPECT_GT(faulted.hetero.final_cpu_ratio, clean.hetero.final_cpu_ratio);
  EXPECT_GT(faulted.total_time, clean.total_time);
}

// The reason to co-execute: with both sides contributing, the dynamic split
// finishes sooner than handing the whole job to either side alone. This
// only holds when the two sides have comparable standalone throughput AND
// the host cores are genuinely partitioned — the engine pins one assembly
// thread per block, so the engine is sized to half the cores and the CPU
// side defaults to the remainder. Word Count is the app where the host
// cores are closest to the engine's throughput, so the CPU side's
// contribution is material.
TEST(HeteroRun, DynamicBeatsBestSingleSide) {
  schemes::SchemeConfig sc = tiny_scheme_config();
  sc.bigkernel.num_blocks = 2;  // leave cores for the CPU side
  apps::WordCountApp app({.data_bytes = 1 << 19, .seed = 1006});

  sc.hetero.dynamic = false;
  sc.hetero.cpu_ratio = 1.0;
  const auto cpu_only = run_hetero(tiny_config(), app, sc);
  sc.hetero.cpu_ratio = 0.0;
  const auto gpu_only = run_hetero(tiny_config(), app, sc);

  sc.hetero.dynamic = true;
  sc.hetero.cpu_ratio = 0.25;
  const auto dynamic = run_hetero(tiny_config(), app, sc);

  const auto best_single =
      std::min(cpu_only.total_time, gpu_only.total_time);
  EXPECT_LT(dynamic.total_time, best_single)
      << "cpu-only " << cpu_only.total_time << " gpu-only "
      << gpu_only.total_time << " dynamic " << dynamic.total_time
      << " final ratio " << dynamic.hetero.final_cpu_ratio;
}

// Two identical dynamic runs are byte-identical in time and ratio, faulted
// or not: the balancer sees only simulated durations.
TEST(HeteroRun, DynamicRunsAreDeterministic) {
  schemes::SchemeConfig sc = tiny_scheme_config();
  sc.hetero.dynamic = true;
  apps::WordCountApp app({.data_bytes = 1 << 18, .seed = 1007});
  const auto first = run_hetero(tiny_config(), app, sc);
  const std::uint64_t first_digest = app.result_digest();
  const auto second = run_hetero(tiny_config(), app, sc);
  EXPECT_EQ(first.total_time, second.total_time);
  EXPECT_EQ(first.hetero.final_cpu_ratio, second.hetero.final_cpu_ratio);
  EXPECT_EQ(app.result_digest(), first_digest);
}

}  // namespace
}  // namespace bigk::hetero
