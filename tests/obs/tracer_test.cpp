// Tests for the unified tracer: stable track registration, the Chrome-
// tracing writer (validated with a real JSON parse), counter accumulation,
// and a full-stack integration run asserting the invariants the timeline
// relies on — spans from every subsystem, no overlap within a thread row,
// and per-stage span durations exactly matching the engine's busy metrics.
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "cusim/runtime.hpp"
#include "json_util.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/stage.hpp"
#include "sim/simulation.hpp"

namespace bigk::obs {
namespace {

TEST(Tracer, RegistrationIsStableAndGetOrCreate) {
  Tracer tracer;
  const std::uint32_t pcie = tracer.process("pcie");
  const std::uint32_t gpu = tracer.process("gpu");
  EXPECT_NE(pcie, gpu);
  EXPECT_EQ(tracer.process("pcie"), pcie);
  EXPECT_EQ(tracer.process_name(pcie), "pcie");

  const TrackId h2d = tracer.thread(pcie, "h2d link");
  const TrackId d2h = tracer.thread(pcie, "d2h link");
  EXPECT_EQ(h2d.pid, pcie);
  EXPECT_NE(h2d.tid, d2h.tid);
  const TrackId again = tracer.track("pcie", "h2d link");
  EXPECT_EQ(again.pid, h2d.pid);
  EXPECT_EQ(again.tid, h2d.tid);
}

TEST(Tracer, NamedBusySumsSpanDurations) {
  Tracer tracer;
  const TrackId t = tracer.track("p", "t");
  tracer.complete(t, "work", 100, 250);
  tracer.complete(t, "work", 300, 400);
  tracer.complete(t, "other", 0, 1000);
  EXPECT_EQ(tracer.named_busy("work"), 250u);
  EXPECT_EQ(tracer.named_busy("other"), 1000u);
  EXPECT_EQ(tracer.named_busy("missing"), 0u);
}

TEST(Tracer, EmptyWritesEmptyArray) {
  Tracer tracer;
  EXPECT_TRUE(tracer.empty());
  std::ostringstream out;
  tracer.write_chrome_json(out);
  EXPECT_EQ(out.str(), "[\n]\n");
}

TEST(Tracer, WriterEmitsMetadataSpansInstantsAndEscapes) {
  Tracer tracer;
  const TrackId t = tracer.track("proc \"A\"", "thread\n1");
  tracer.complete(t, "span", 1'000'000, 3'000'000, "cat",
                  {{"bytes", 42.0}});
  tracer.instant(t, "tick", 2'000'000);
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const testjson::Value doc = testjson::parse(out.str());
  ASSERT_EQ(doc.kind, testjson::Value::Kind::kArray);

  // Metadata first: a process_name and a thread_name record with the
  // original (unescaped-after-parse) names.
  ASSERT_GE(doc.items.size(), 4u);
  EXPECT_EQ(doc.items[0].at("ph").str, "M");
  EXPECT_EQ(doc.items[0].at("name").str, "process_name");
  EXPECT_EQ(doc.items[0].at("args").at("name").str, "proc \"A\"");
  bool thread_meta = false;
  for (const auto& event : doc.items) {
    if (event.at("ph").str == "M" && event.at("name").str == "thread_name" &&
        event.at("args").at("name").str == "thread\n1") {
      thread_meta = true;
    }
  }
  EXPECT_TRUE(thread_meta);

  bool span = false, instant = false;
  for (const auto& event : doc.items) {
    if (event.at("ph").str == "X") {
      span = true;
      EXPECT_EQ(event.at("name").str, "span");
      EXPECT_EQ(event.at("cat").str, "cat");
      EXPECT_NEAR(event.at("ts").number, 1.0, 1e-9);   // 1e6 ps = 1 us
      EXPECT_NEAR(event.at("dur").number, 2.0, 1e-9);
      EXPECT_DOUBLE_EQ(event.at("args").at("bytes").number, 42.0);
    }
    if (event.at("ph").str == "i") instant = true;
  }
  EXPECT_TRUE(span);
  EXPECT_TRUE(instant);
}

TEST(Tracer, CounterSamplesAccumulateSortedByTime) {
  Tracer tracer;
  const std::uint32_t pid = tracer.process("dma");
  tracer.counter_add(pid, "queue depth", 100'000'000, 1.0);
  tracer.counter_add(pid, "queue depth", 300'000'000, -1.0);
  tracer.counter_add(pid, "queue depth", 200'000'000, 1.0);  // out of order
  EXPECT_EQ(tracer.counter_track_count(), 1u);

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const testjson::Value doc = testjson::parse(out.str());
  std::vector<std::pair<double, double>> samples;  // (ts, value)
  for (const auto& event : doc.items) {
    if (event.at("ph").str == "C") {
      samples.emplace_back(event.at("ts").number,
                           event.at("args").at("value").number);
    }
  }
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));
  EXPECT_DOUBLE_EQ(samples[0].second, 1.0);
  EXPECT_DOUBLE_EQ(samples[1].second, 2.0);  // cumulative
  EXPECT_DOUBLE_EQ(samples[2].second, 1.0);
}

// ---------------------------------------------------------------------------
// Full-stack integration
// ---------------------------------------------------------------------------

struct SumKernel {
  core::StreamRef<std::uint64_t> s;
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

class TracedEngineRun : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.gpu.global_memory_bytes = 8 << 20;
    runtime_ = std::make_unique<cusim::Runtime>(sim_, config_);
    runtime_->attach_observability(&tracer_, &metrics_);

    host_.resize(kRecords * 4);
    for (std::uint64_t i = 0; i < host_.size(); ++i) host_[i] = i;

    core::Options options;
    options.num_blocks = 4;
    options.compute_threads_per_block = 64;
    options.data_buf_bytes = 32 << 10;
    engine_ = std::make_unique<core::Engine>(*runtime_, options);

    auto stream = engine_->streaming_map<std::uint64_t>(
        std::span(host_), core::AccessMode::kReadWrite, 4, 2, 1);
    SumKernel kernel{stream};
    core::TableSet tables;

    sim_.run_until_complete(
        [](cusim::Runtime& rt, core::Engine& eng, core::TableSet& tbl,
           SumKernel k) -> sim::Task<> {
          core::DeviceTables device =
              co_await core::DeviceTables::upload(rt, tbl);
          co_await eng.launch(k, kRecords, device);
        }(*runtime_, *engine_, tables, kernel));
  }

  static constexpr std::uint64_t kRecords = 10'000;
  sim::Simulation sim_;
  gpusim::SystemConfig config_;
  std::unique_ptr<cusim::Runtime> runtime_;
  Tracer tracer_;
  MetricsRegistry metrics_;
  std::vector<std::uint64_t> host_;
  std::unique_ptr<core::Engine> engine_;
};

TEST_F(TracedEngineRun, SpansCoverAllSubsystemsWithCounters) {
  std::set<std::string> span_processes;
  for (const SpanEvent& span : tracer_.spans()) {
    span_processes.insert(std::string(tracer_.process_name(span.track.pid)));
  }
  // The four non-engine subsystems, by their registered process names.
  EXPECT_TRUE(span_processes.count("pcie")) << "PCIe link spans missing";
  EXPECT_TRUE(span_processes.count("gpu")) << "SM compute spans missing";
  EXPECT_TRUE(span_processes.count("host")) << "host core/bus spans missing";
  EXPECT_TRUE(span_processes.count("DMA streams")) << "stream op spans missing";
  // Plus one engine process per block.
  std::size_t engine_processes = 0;
  for (const std::string& name : span_processes) {
    if (name.rfind("engine block ", 0) == 0) ++engine_processes;
  }
  EXPECT_EQ(engine_processes, 4u);

  EXPECT_GE(tracer_.counter_track_count(), 3u)
      << "expected queue depth, bytes in flight, and active blocks tracks";
  EXPECT_FALSE(tracer_.instants().empty()) << "data-ready instants missing";

  // Registry counters fed by the same run.
  EXPECT_GT(metrics_.counter("gpusim.h2d_bytes").value(), 0u);
  EXPECT_GT(metrics_.counter("hostsim.cache_misses").value(), 0u);
  EXPECT_EQ(metrics_.counter("gpusim.kernel_launches").value(), 1u);
}

TEST_F(TracedEngineRun, SpansNeverOverlapWithinAThreadRow) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<SpanEvent>>
      by_track;
  for (const SpanEvent& span : tracer_.spans()) {
    EXPECT_LE(span.begin, span.end);
    by_track[{span.track.pid, span.track.tid}].push_back(span);
  }
  for (auto& [track, spans] : by_track) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                return a.begin < b.begin;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].begin, spans[i - 1].end)
          << "overlap on " << tracer_.process_name(track.first) << " tid "
          << track.second << " between \"" << spans[i - 1].name << "\" and \""
          << spans[i].name << "\"";
    }
  }
}

TEST_F(TracedEngineRun, StageSpanDurationsMatchEngineBusyMetrics) {
  const core::EngineMetrics& metrics = engine_->metrics();
  ASSERT_GT(metrics.chunks, 0u);
  for (Stage stage : all_stages()) {
    EXPECT_EQ(tracer_.named_busy(stage_name(stage)), metrics.stage_busy(stage))
        << "stage " << stage_name(stage);
  }
}

TEST_F(TracedEngineRun, ChromeJsonOutputParses) {
  std::ostringstream out;
  tracer_.write_chrome_json(out);
  const testjson::Value doc = testjson::parse(out.str());
  ASSERT_EQ(doc.kind, testjson::Value::Kind::kArray);
  EXPECT_GT(doc.items.size(), 100u);
  std::size_t meta = 0, spans = 0, counters = 0;
  for (const auto& event : doc.items) {
    const std::string& ph = event.at("ph").str;
    if (ph == "M") ++meta;
    if (ph == "X") ++spans;
    if (ph == "C") ++counters;
  }
  EXPECT_GT(meta, 0u);
  EXPECT_EQ(spans, tracer_.spans().size());
  EXPECT_GT(counters, 0u);
}

}  // namespace
}  // namespace bigk::obs
