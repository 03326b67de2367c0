// Engine pipeline telemetry through the unified obs::Tracer (successor of
// the retired trace::Recorder shim): a real engine run must emit one span
// per (stage, block, chunk) on "engine block <b>" process rows, the per-stage
// busy metrics must show actual pipelining, and a pool device's trace prefix
// must namespace the rows so concurrent engines do not collide.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/device_tables.hpp"
#include "cusim/device_pool.hpp"
#include "cusim/runtime.hpp"
#include "obs/stage.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

struct SumKernel {
  StreamRef<std::uint64_t> s;
  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t b, std::uint64_t e,
                  std::uint64_t stride) const {
    for (std::uint64_t r = b; r < e; r += stride) {
      const auto a = ctx.read(s, r * 4);
      const auto c = ctx.read(s, r * 4 + 1);
      ctx.write(s, r * 4 + 3, a + c);
    }
  }
};

constexpr std::uint64_t kRecords = 10'000;

/// Runs one small engine launch on a runtime with `tracer` attached and
/// returns the engine's chunk count. The runtime is stand-alone, or with
/// `on_pool_device` device 1 of a two-device pool, whose rows carry the
/// "dev1 " prefix.
std::uint64_t run_traced_engine(obs::Tracer* tracer, bool on_pool_device,
                                sim::TimePs* finished,
                                EngineMetrics* metrics_out) {
  sim::Simulation sim;
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 8 << 20;
  std::optional<cusim::Runtime> standalone;
  std::optional<cusim::DevicePool> pool;
  if (on_pool_device) {
    pool.emplace(sim, config, 2);
  } else {
    standalone.emplace(sim, config);
  }
  cusim::Runtime& runtime = on_pool_device ? pool->device(1) : *standalone;
  runtime.attach_observability(tracer, nullptr);

  std::vector<std::uint64_t> host(kRecords * 4);
  for (std::uint64_t i = 0; i < host.size(); ++i) host[i] = i;

  Options options;
  options.num_blocks = 4;
  options.compute_threads_per_block = 64;
  options.data_buf_bytes = 32 << 10;
  Engine engine(runtime, options);

  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(host), AccessMode::kReadWrite, 4, 2, 1);
  SumKernel kernel{stream};
  TableSet tables;

  sim.run_until_complete([](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
                            SumKernel k) -> sim::Task<> {
    DeviceTables device = co_await DeviceTables::upload(rt, tbl);
    co_await eng.launch(k, kRecords, device);
  }(runtime, engine, tables, kernel));

  if (finished != nullptr) *finished = sim.now();
  if (metrics_out != nullptr) *metrics_out = engine.metrics();
  return engine.metrics().chunks;
}

// A real engine run must produce one tracer span per (stage, block, chunk),
// all on "engine block <b>" processes, with non-degenerate intervals.
TEST(EngineTraceTest, EngineEmitsAllStages) {
  obs::Tracer tracer;
  sim::TimePs finished = 0;
  EngineMetrics metrics;
  const std::uint64_t chunks =
      run_traced_engine(&tracer, false, &finished, &metrics);
  ASSERT_GT(chunks, 0u);

  std::map<std::string, std::uint64_t> per_stage;
  for (const obs::SpanEvent& span : tracer.spans()) {
    if (span.category != "engine") continue;
    EXPECT_GE(span.end, span.begin);
    const std::string_view process = tracer.process_name(span.track.pid);
    EXPECT_EQ(process.rfind("engine block ", 0), 0u)
        << "engine span on foreign process " << process;
    ++per_stage[span.name];
  }
  // One span per chunk for each of the five stages (writes present).
  for (obs::Stage stage : obs::all_stages()) {
    EXPECT_EQ(per_stage[obs::stage_name(stage)], chunks)
        << obs::stage_name(stage);
  }
  // The stage pipeline must actually overlap: total span < sum of stages.
  sim::DurationPs stage_sum = 0;
  for (obs::Stage stage : obs::all_stages()) {
    stage_sum += metrics.stage_busy(stage);
  }
  EXPECT_LT(finished, stage_sum);
  // Tracer spans and the metrics breakdown come from the same intervals.
  for (obs::Stage stage : obs::all_stages()) {
    EXPECT_EQ(tracer.named_busy(obs::stage_name(stage)),
              metrics.stage_busy(stage))
        << obs::stage_name(stage);
  }
}

// A pool device's trace prefix must prefix every engine process row, so
// engines driving different devices write to disjoint tracks of one shared
// tracer.
TEST(EngineTraceTest, TraceScopeNamespacesProcessRows) {
  obs::Tracer tracer;
  run_traced_engine(&tracer, true, nullptr, nullptr);
  ASSERT_FALSE(tracer.spans().empty());
  bool saw_engine_row = false;
  for (const obs::SpanEvent& span : tracer.spans()) {
    if (span.category != "engine") continue;
    const std::string_view process = tracer.process_name(span.track.pid);
    EXPECT_EQ(process.rfind("dev1 engine block ", 0), 0u) << process;
    saw_engine_row = true;
  }
  EXPECT_TRUE(saw_engine_row);
}

// The exported Chrome JSON must carry the labelled engine rows end to end.
TEST(EngineTraceTest, ChromeJsonNamesEngineProcesses) {
  obs::Tracer tracer;
  run_traced_engine(&tracer, false, nullptr, nullptr);
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("engine block 0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

}  // namespace
}  // namespace bigk::core
