// StageProfiler tests: exact window splitting, argmax/tie semantics and
// overlap efficiency of attribute(busy(), wall), flip counting — plus
// end-to-end integration against a real
// Engine launch, where the profiler must agree with the engine's own stage
// accounting and a seeded stage_stall fault must flip the attributed
// bottleneck to the stalled stage in-window.
#include "obs/prof/attribution.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "cusim/runtime.hpp"
#include "fault/fault.hpp"
#include "schemes/metrics.hpp"
#include "schemes/runners.hpp"
#include "sim/simulation.hpp"

namespace bigk::obs::prof {
namespace {

constexpr sim::DurationPs kWindow = 1'000;

TEST(StageProfiler, RejectsZeroWindow) {
  EXPECT_THROW(StageProfiler(0), std::invalid_argument);
}

TEST(StageProfiler, SplitsIntervalsExactlyAtWindowBoundaries) {
  StageProfiler profiler(kWindow);
  profiler.record(Stage::kTransfer, 500, 2'500);
  EXPECT_EQ(profiler.busy()[stage_index(Stage::kTransfer)], 2'000);
  const auto windows = profiler.windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_EQ(windows[0].begin, 0);
  EXPECT_EQ(windows[0].end, 1'000);
  EXPECT_EQ(windows[0].busy[stage_index(Stage::kTransfer)], 500);
  EXPECT_EQ(windows[1].busy[stage_index(Stage::kTransfer)], 1'000);
  EXPECT_EQ(windows[2].busy[stage_index(Stage::kTransfer)], 500);
}

TEST(StageProfiler, OutOfOrderRecordsStayChronological) {
  StageProfiler profiler(kWindow);
  profiler.record(Stage::kCompute, 5'000, 5'500);
  profiler.record(Stage::kAssembly, 0, 300);
  const auto windows = profiler.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_EQ(windows[0].bottleneck, Stage::kAssembly);
  EXPECT_EQ(windows[1].index, 5u);
  EXPECT_EQ(windows[1].bottleneck, Stage::kCompute);
}

TEST(StageProfiler, BottleneckTiesGoToTheEarlierStage) {
  StageProfiler profiler(kWindow);
  profiler.record(Stage::kAssembly, 0, 400);
  profiler.record(Stage::kCompute, 0, 400);
  EXPECT_EQ(attribute(profiler.busy(), 0).bottleneck, Stage::kAssembly);
  profiler.record(Stage::kCompute, 400, 500);
  EXPECT_EQ(attribute(profiler.busy(), 0).bottleneck, Stage::kCompute);
}

TEST(StageProfiler, OverlapEfficiencyMeasuresPipelining) {
  StageProfiler profiler(kWindow);
  profiler.record(Stage::kTransfer, 0, 1'000);
  profiler.record(Stage::kCompute, 0, 1'000);
  // Two stages fully overlapped over 1000 ps of wall time: 1 - 1000/2000.
  EXPECT_DOUBLE_EQ(attribute(profiler.busy(), 1'000).overlap_efficiency, 0.5);
  // Fully serialized (wall >= total busy) clamps to 0.
  EXPECT_DOUBLE_EQ(attribute(profiler.busy(), 3'000).overlap_efficiency, 0.0);
  // No busy time at all: defined as 0.
  EXPECT_DOUBLE_EQ(
      attribute(StageProfiler(kWindow).busy(), 100).overlap_efficiency, 0.0);
}

TEST(StageProfiler, CountsBottleneckFlips) {
  StageProfiler profiler(kWindow);
  profiler.record(Stage::kCompute, 0, 900);       // window 0: compute
  profiler.record(Stage::kTransfer, 1'000, 1'900);  // window 1: transfer
  profiler.record(Stage::kTransfer, 2'000, 2'900);  // window 2: transfer
  profiler.record(Stage::kCompute, 3'000, 3'900);   // window 3: compute
  EXPECT_EQ(profiler.bottleneck_flips(), 2u);
  EXPECT_EQ(profiler.window_count(), 4u);
}

// ---------------------------------------------------------------------------
// Engine integration: the profiler consumes the same record_stage feed as the
// engine's metrics, so the two accountings must agree to the picosecond, and
// a stage_stall fault must surface as an assembly-bottlenecked window.

// Compute-heavy toy kernel so the clean run's limiting stage is compute, not
// assembly — the stall flip below is then unambiguous.
struct HeavyKernel {
  core::StreamRef<std::uint64_t> data;
  core::TableRef<std::uint64_t> bias;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t a = ctx.read(data, r * 4);
      const std::uint64_t b = ctx.read(data, r * 4 + 1);
      const std::uint64_t bias_value = ctx.load_table(bias, 0);
      ctx.alu(2'000);
      ctx.write(data, r * 4 + 3, a + b + bias_value);
    }
  }
};

constexpr sim::DurationPs kEngineWindow = 50 * sim::kMicrosecond;

struct EngineRun {
  StageProfiler profiler{kEngineWindow};
  core::EngineMetrics metrics;
  sim::TimePs elapsed = 0;
};

EngineRun run_heavy(const char* fault_spec) {
  EngineRun result;
  sim::Simulation simulation;
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 8 << 20;

  constexpr std::uint64_t kRecords = 4'000;
  std::vector<std::uint64_t> host(kRecords * 4);
  for (std::uint64_t r = 0; r < kRecords; ++r) {
    host[r * 4] = r;
    host[r * 4 + 1] = r ^ 5;
  }

  fault::FaultPlane plane(/*seed=*/1);
  cusim::Runtime runtime(simulation, config);
  if (fault_spec != nullptr && fault_spec[0] != '\0') {
    plane.add_all(fault::FaultSpec::parse(fault_spec));
    runtime.set_fault_plane(&plane);
  }

  core::Options options;
  options.num_blocks = 1;  // a stalled assembly leaves nothing else running
  options.compute_threads_per_block = 64;
  options.data_buf_bytes = 16 << 10;
  runtime.set_profiler(&result.profiler);
  core::Engine engine(runtime, options);
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(host), core::AccessMode::kReadWrite, /*elems_per_record=*/4,
      /*reads_per_record=*/2, /*writes_per_record=*/1);
  core::TableSet tables;
  auto bias = tables.add<std::uint64_t>(1);
  tables.host_span(bias)[0] = 7;
  HeavyKernel kernel{stream, bias};

  simulation.run_until_complete(
      [](cusim::Runtime& rt, core::Engine& eng, core::TableSet& tbl,
         HeavyKernel k, std::uint64_t records) -> sim::Task<> {
        core::DeviceTables device =
            co_await core::DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, records, device);
        device.release();
      }(runtime, engine, tables, kernel, kRecords));

  result.metrics = engine.metrics();
  result.elapsed = simulation.now();
  return result;
}

TEST(StageProfilerEngineTest, AgreesWithEngineStageAccounting) {
  const EngineRun run = run_heavy("");
  const StageBusy busy = run.profiler.busy();
  for (const Stage stage : all_stages()) {
    EXPECT_EQ(busy[stage_index(stage)], run.metrics.stage_busy(stage))
        << "profiler diverged from engine metrics for "
        << stage_name(stage);
  }
  EXPECT_GT(run.profiler.window_count(), 1u);
  const Attribution attribution = attribute(busy, run.elapsed);
  EXPECT_EQ(attribution.bottleneck, Stage::kCompute);
  const double overlap = attribution.overlap_efficiency;
  EXPECT_GE(overlap, 0.0);
  EXPECT_LT(overlap, 1.0);
}

TEST(StageProfilerEngineTest, StageStallFlipsBottleneckToAssemblyInWindow) {
  const EngineRun clean = run_heavy("");
  // 500 us stall on the first assembly op: ~10 full 50 us windows in which
  // the single block can only sit in assembly.
  const EngineRun stalled = run_heavy("stage_stall,nth=1,stall_us=500");

  const sim::DurationPs stall = 500 * sim::kMicrosecond;
  const std::size_t assembly = stage_index(Stage::kAssembly);
  EXPECT_GE(stalled.profiler.busy()[assembly],
            clean.profiler.busy()[assembly] + stall * 9 / 10);

  // In-window flip: at least one window is attributed to assembly with the
  // stall filling (nearly) the whole window and compute idle.
  bool found_stall_window = false;
  for (const WindowAttribution& w : stalled.profiler.windows()) {
    if (w.bottleneck == Stage::kAssembly &&
        w.busy[stage_index(Stage::kAssembly)] >= kEngineWindow * 9 / 10 &&
        w.busy[stage_index(Stage::kCompute)] == 0) {
      found_stall_window = true;
      break;
    }
  }
  EXPECT_TRUE(found_stall_window)
      << "no window attributed the stall to assembly";

  // The run still does its compute-bound work after the stall, so the
  // attributed bottleneck must flip at least once across the timeline.
  EXPECT_GE(stalled.profiler.bottleneck_flips(), 1u);
  // Clean attribution is unaffected: compute remains the limiting stage.
  EXPECT_EQ(attribute(clean.profiler.busy(), 0).bottleneck, Stage::kCompute);
}

// Minimal runnable app for exercising run_bigkernel's prof summary; lives at
// namespace scope because local classes cannot carry static members or the
// kernel's member template.
struct ToyApp {
  static constexpr std::uint32_t kElemsPerRecord = 4;
  std::uint64_t records = 8'000;
  std::vector<std::uint64_t> data;
  core::TableSet table_set;

  ToyApp() { data.resize(records * kElemsPerRecord); }
  void reset() {}
  std::uint64_t num_records() const { return records; }
  core::TableSet& tables() { return table_set; }
  bool interleaved_records() const { return true; }

  std::vector<schemes::StreamDecl> stream_decls() {
    schemes::StreamDecl decl;
    decl.binding.host_data = reinterpret_cast<const std::byte*>(data.data());
    decl.binding.host_out = reinterpret_cast<std::byte*>(data.data());
    decl.binding.num_elements = data.size();
    decl.binding.elem_size = 8;
    decl.binding.mode = core::AccessMode::kReadWrite;
    decl.binding.elems_per_record = kElemsPerRecord;
    decl.binding.reads_per_record = 2;
    decl.binding.writes_per_record = 1;
    return {decl};
  }

  struct Kernel {
    core::StreamRef<std::uint64_t> stream{0};
    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t a = ctx.read(stream, r * 4);
        const std::uint64_t b = ctx.read(stream, r * 4 + 1);
        ctx.alu(8);
        ctx.write(stream, r * 4 + 3, a + b);
      }
    }
  };
  Kernel kernel() const { return Kernel{}; }
};

// run_bigkernel computes the same attribution from the engine's stage sums,
// so the bench JSON's prof block matches fig6's slowest-stage ranking by
// construction; with a window configured it also carries the timeline stats.
TEST(StageProfilerEngineTest, RunnerProfSummaryMatchesEngineStageSums) {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 2 << 20;
  schemes::SchemeConfig sc;
  sc.bigkernel.num_blocks = 4;
  sc.bigkernel.compute_threads_per_block = 64;
  sc.prof_window = 100 * sim::kMicrosecond;

  ToyApp app;
  const schemes::RunMetrics metrics = schemes::run_bigkernel(config, app, sc);

  ASSERT_GE(metrics.prof.bottleneck, 0);
  ASSERT_LT(metrics.prof.bottleneck, static_cast<std::int32_t>(kStageCount));
  // The prof bottleneck is the argmax of the engine's stage busy sums — the
  // same sums fig6 ranks — so the two may never disagree.
  sim::DurationPs best = 0;
  std::int32_t argmax = -1;
  for (const Stage stage : all_stages()) {
    const sim::DurationPs busy = metrics.engine.stage_busy(stage);
    if (argmax < 0 || busy > best) {
      best = busy;
      argmax = static_cast<std::int32_t>(stage_index(stage));
    }
  }
  EXPECT_EQ(metrics.prof.bottleneck, argmax);
  EXPECT_GE(metrics.prof.overlap_efficiency, 0.0);
  EXPECT_LT(metrics.prof.overlap_efficiency, 1.0);
  EXPECT_GT(metrics.prof.windows, 0u);
  EXPECT_DOUBLE_EQ(metrics.prof.window_ms, 0.1);
}

}  // namespace
}  // namespace bigk::obs::prof
