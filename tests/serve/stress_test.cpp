// Serving-layer stress: a saturating mixed workload over a 4-device pool
// with admission pressure, affinity placement, full bigkcheck sanitizers,
// and live telemetry — everything on at once; the asan-ubsan preset of
// scripts/ci.sh runs it instrumented.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include "serve/job.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

TEST(ServeStressTest, SaturatedPoolUnderCheckersAndTelemetry) {
  const auto suite = make_toy_suite(4, 6'000, /*alu_ops=*/64.0);
  std::vector<std::string> names{"toy0", "toy1", "toy2", "toy3"};
  WorkloadConfig workload;
  workload.num_jobs = 24;
  workload.seed = 314;
  workload.mean_gap = 0;  // all 24 jobs arrive at t=0: a saturating burst
  workload.deadline = sim::DurationPs{400'000'000'000};  // 400 ms SLO

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  ServerConfig config;
  config.system = toy_system();
  config.devices = 4;
  config.policy = Policy::kAppAffinity;
  config.queue_depth = 6;  // real admission pressure
  config.max_retries = 500;
  config.engine = toy_engine_options();
  config.check = check::CheckOptions::all_enabled();
  config.tracer = &tracer;
  config.metrics = &registry;

  const ServeReport report =
      run_server(config, make_workload(names, workload), suite);

  EXPECT_EQ(report.completed, 24u);  // retries absorb the pressure
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_GT(report.rejections, 0u);
  EXPECT_LE(report.peak_queue_depth, 6u);
  EXPECT_GT(report.warm_hits, 0u);
  EXPECT_FALSE(tracer.spans().empty());
  EXPECT_GT(registry.size(), 0u);
  std::uint64_t device_jobs = 0;
  for (const DeviceReport& device : report.devices) device_jobs += device.jobs;
  EXPECT_EQ(device_jobs, 24u);
}

}  // namespace
}  // namespace bigk::serve
