// Tracer + MetricsRegistry + bigkprof under a 4-engine serve run: four
// device workers share one tracer, one registry, per-device StageProfilers,
// the telemetry daemon's per-window signals, and an armed SLO monitor, all
// at once. The tests lock down the per-job breakdown partition contract, the
// prof/slo export schema, and that each window's completion-rate samples
// count exactly that window's completions.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_util.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/stage.hpp"
#include "obs/tracer.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

TEST(ConcurrentTelemetryTest, FourEngineServeWithFullTelemetryPlane) {
  const auto suite = make_toy_suite(4, 6'000, /*alu_ops=*/64.0);
  std::vector<std::string> names{"toy0", "toy1", "toy2", "toy3"};
  WorkloadConfig workload;
  workload.num_jobs = 24;
  workload.seed = 314;
  workload.mean_gap = 0;

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  ServerConfig config;
  config.system = toy_system();
  config.devices = 4;
  config.policy = Policy::kAppAffinity;
  config.queue_depth = 6;
  config.max_retries = 500;
  config.engine = toy_engine_options();
  config.tracer = &tracer;
  config.metrics = &registry;
  config.metrics_prefix = "tele";
  config.prof_window = sim::DurationPs{100'000'000};  // 100 us
  // An impossible latency bound plus a trivially-true rule: the monitor must
  // fire on the first and never on the second.
  config.slo_spec = "p99_ms <= 0.000001; utilization >= 0";

  const ServeReport report =
      run_server(config, make_workload(names, workload), suite);
  ASSERT_EQ(report.completed, 24u);

  // --- per-job breakdown: an exact partition of [submit, finish] ----------
  for (const JobRecord& job : report.jobs) {
    ASSERT_TRUE(job.completed) << "job " << job.spec.id;
    const JobRecord::Breakdown b = job.breakdown();
    EXPECT_EQ(b.total(), job.latency()) << "job " << job.spec.id;
    EXPECT_GE(b.admission, 0) << "job " << job.spec.id;
    EXPECT_GE(b.queue, 0) << "job " << job.spec.id;
    EXPECT_GE(b.staging, 0) << "job " << job.spec.id;
    EXPECT_GT(b.execution, 0) << "job " << job.spec.id;
    EXPECT_GE(b.writeback, 0) << "job " << job.spec.id;
    if (job.warm) {
      EXPECT_EQ(b.staging, 0) << "warm job " << job.spec.id;
    }
  }

  // --- report-level breakdown means sum to the mean latency ---------------
  const double breakdown_sum_ms =
      report.breakdown_admission_ms + report.breakdown_queue_ms +
      report.breakdown_staging_ms + report.breakdown_execution_ms +
      report.breakdown_writeback_ms;
  EXPECT_NEAR(breakdown_sum_ms, report.breakdown_total_ms,
              report.breakdown_total_ms * 1e-9 + 1e-9);
  double latency_sum_ms = 0.0;
  for (const JobRecord& job : report.jobs) {
    latency_sum_ms += static_cast<double>(job.latency()) / 1e9;
  }
  EXPECT_NEAR(report.breakdown_total_ms, latency_sum_ms / 24.0,
              latency_sum_ms * 1e-9 + 1e-9);

  // --- attribution ---------------------------------------------------------
  EXPECT_GE(report.bottleneck_stage, 0);
  EXPECT_LT(report.bottleneck_stage,
            static_cast<std::int32_t>(obs::kStageCount));
  EXPECT_GE(report.overlap_efficiency, 0.0);
  EXPECT_LT(report.overlap_efficiency, 1.0);
  EXPECT_GE(report.prof_windows, 4u);  // every device ran profiled work
  for (const DeviceReport& device : report.devices) {
    EXPECT_GE(device.bottleneck_stage, 0);
    EXPECT_GE(device.prof_windows, 1u);
  }

  // --- percentiles stay ordered -------------------------------------------
  EXPECT_GT(report.latency_p50, 0);
  EXPECT_LE(report.latency_p50, report.latency_p95);
  EXPECT_LE(report.latency_p95, report.latency_p99);

  // --- SLO monitor ---------------------------------------------------------
  EXPECT_EQ(report.slo_rules, 2u);
  EXPECT_GE(report.slo_violations, 1u);
  const obs::Counter* violations =
      registry.find_counter("tele.slo.violation");
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->value(), report.slo_violations);
  ASSERT_NE(registry.find_counter("tele.slo.violation.p99_ms"), nullptr);
  // The always-true utilization rule never fires.
  EXPECT_EQ(registry.find_counter("tele.slo.violation.utilization"), nullptr);
  bool slo_instant = false;
  for (const auto& instant : tracer.instants()) {
    if (instant.category == "slo") slo_instant = true;
  }
  EXPECT_TRUE(slo_instant) << "SLO violations left no trace instants";

  // --- exported gauges -----------------------------------------------------
  const auto gauge = [&](const std::string& name) {
    const obs::Gauge* g = registry.find_gauge(name);
    EXPECT_NE(g, nullptr) << "missing gauge " << name;
    return g != nullptr ? g->value() : -1.0;
  };
  EXPECT_GE(gauge("tele.prof.bottleneck_stage"), 0.0);
  EXPECT_GE(gauge("tele.prof.overlap_efficiency"), 0.0);
  EXPECT_GE(gauge("tele.prof.windows"), 4.0);
  gauge("tele.prof.bottleneck_flips");
  gauge("tele.breakdown.admission_ms");
  gauge("tele.breakdown.queue_ms");
  gauge("tele.breakdown.staging_ms");
  gauge("tele.breakdown.execution_ms");
  gauge("tele.breakdown.writeback_ms");
  EXPECT_NEAR(gauge("tele.breakdown.total_ms"), report.breakdown_total_ms,
              1e-12);
  EXPECT_EQ(gauge("tele.slo.rules"), 2.0);
  EXPECT_GE(gauge("tele.slo.violations"), 1.0);
  for (std::uint32_t d = 0; d < 4; ++d) {
    gauge("tele.dev" + std::to_string(d) + ".bottleneck_stage");
  }

  EXPECT_FALSE(tracer.spans().empty());
}

TEST(ConcurrentTelemetryTest, JobsPerSecondSamplesCountTheirWindowsCompletions) {
  const auto suite = make_toy_suite(2, 2'000);
  WorkloadConfig workload;
  workload.num_jobs = 40;
  workload.seed = 11;
  workload.mean_gap = sim::microseconds(30);

  obs::Tracer tracer;
  ServerConfig config;
  config.system = toy_system();
  config.devices = 2;
  config.engine = toy_engine_options();
  config.tracer = &tracer;
  config.prof_window = sim::microseconds(50);
  const ServeReport report =
      run_server(config, make_workload({"toy0", "toy1"}, workload), suite);
  ASSERT_EQ(report.completed, 40u);

  std::stringstream chrome;
  tracer.write_chrome_json(chrome);
  const testjson::Value events = testjson::Parser(chrome.str()).parse();
  std::map<double, std::string> process_names;
  for (const testjson::Value& event : events.items) {
    if (event.at("ph").str == "M" && event.at("name").str == "process_name") {
      process_names[event.at("pid").number] =
          event.at("args").at("name").str;
    }
  }
  // The serve process counts every completion, and each device's process
  // the ones on that device: a sample at t covers the window (t - W, t].
  const double window_s = static_cast<double>(config.prof_window) * 1e-12;
  std::map<std::string, std::uint64_t> samples;
  std::uint64_t sampled_serve_jobs = 0;
  for (const testjson::Value& event : events.items) {
    if (event.at("ph").str != "C" || event.at("name").str != "prof.jobs_per_s") {
      continue;
    }
    const std::string& process = process_names.at(event.at("pid").number);
    const auto tick = static_cast<sim::TimePs>(
        std::llround(event.at("ts").number * 1e6));
    std::uint64_t finished = 0;
    for (const JobRecord& job : report.jobs) {
      const bool on_process =
          process == "serve" || process == "dev" + std::to_string(job.device);
      if (job.finish_time <= tick &&
          job.finish_time + config.prof_window > tick && on_process) {
        ++finished;
      }
    }
    EXPECT_NEAR(event.at("args").at("value").number * window_s,
                static_cast<double>(finished), 1e-9)
        << process << " at " << tick << " ps";
    ++samples[process];
    if (process == "serve") sampled_serve_jobs += finished;
  }
  EXPECT_EQ(samples.size(), 3u);  // serve, dev0 and dev1
  EXPECT_GT(samples["serve"], 4u);
  // Every job but those that finished after the last tick was counted once.
  EXPECT_GT(sampled_serve_jobs, 30u);
}

}  // namespace
}  // namespace bigk::serve
