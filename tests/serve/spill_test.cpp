// bigkhetero serve spill-over: when the device pool saturates past the spill
// depth — or loses a device to quarantine — whole jobs run on the host cores
// instead of queueing for a device. Every spilled job must complete with the
// correct results (ToyRunner::run_cpu verifies them), nothing may drop or
// fail, and the spill accounting must stay out of the per-device buckets.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics_registry.hpp"
#include "serve/job.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

ServerConfig spill_server(std::uint32_t devices, std::uint32_t queue_depth,
                          std::uint32_t spill_depth) {
  ServerConfig config;
  config.system = toy_system();
  config.devices = devices;
  config.policy = Policy::kRoundRobin;
  config.queue_depth = queue_depth;
  config.retry_after = sim::DurationPs{100'000'000};  // 0.1 ms
  config.max_retries = 100'000;
  config.engine = toy_engine_options();
  config.hetero.spill_enabled = true;
  config.hetero.spill_depth = spill_depth;
  return config;
}

std::vector<JobSpec> batch_workload(std::uint32_t num_jobs,
                                    std::uint32_t num_apps,
                                    std::uint64_t seed = 7) {
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < num_apps; ++i) {
    names.push_back("toy" + std::to_string(i));
  }
  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.seed = seed;
  workload.mean_gap = 0;  // batch arrival saturates the pool at t=0
  return make_workload(names, workload);
}

TEST(ServeSpillTest, SaturatedPoolSpillsAndEveryJobCompletes) {
  const auto suite = make_toy_suite(3, 4'000);
  const auto specs = batch_workload(12, 3);
  const ServeReport report =
      run_server(spill_server(1, 16, /*spill_depth=*/2), specs, suite);

  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_GT(report.spills, 0u);
  EXPECT_EQ(report.cpu_completed, report.spills);
  std::uint64_t cpu_marked = 0;
  std::uint64_t device_jobs = 0;
  for (const JobRecord& record : report.jobs) {
    EXPECT_TRUE(record.completed);
    if (record.cpu_executed) {
      ++cpu_marked;
      EXPECT_GE(record.finish_time, record.start_time);
    }
  }
  for (const DeviceReport& device : report.devices) device_jobs += device.jobs;
  EXPECT_EQ(cpu_marked, report.spills);
  // Spilled jobs never land in a device bucket.
  EXPECT_EQ(device_jobs + report.spills, 12u);
}

TEST(ServeSpillTest, SpillDisabledKeepsLegacyBehavior) {
  const auto suite = make_toy_suite(3, 4'000);
  const auto specs = batch_workload(12, 3);
  ServerConfig config = spill_server(1, 16, 2);
  config.hetero.spill_enabled = false;
  const ServeReport report = run_server(config, specs, suite);
  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.spills, 0u);
  EXPECT_EQ(report.cpu_completed, 0u);
  for (const JobRecord& record : report.jobs) {
    EXPECT_FALSE(record.cpu_executed);
  }
}

// Quarantine spill: the only device dies on its first DMA and stays down
// longer than the workload; with spill enabled the redispatch path routes
// every stranded job to the host cores instead of failing it.
TEST(ServeSpillTest, QuarantinedDeviceSpillsInsteadOfFailing) {
  const auto suite = make_toy_suite(2, 4'000);
  const auto specs = batch_workload(8, 2);
  ServerConfig config = spill_server(1, 8, 64);
  config.fault_spec = "device_lost,nth=1,device=0,down_us=100000";
  const ServeReport report = run_server(config, specs, suite);

  EXPECT_GT(report.quarantines, 0u);
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_EQ(report.completed, 8u);
  EXPECT_GT(report.spills, 0u);
  std::uint64_t redispatched_to_cpu = 0;
  for (const JobRecord& record : report.jobs) {
    EXPECT_TRUE(record.completed);
    if (record.cpu_executed && record.redispatches > 0) {
      ++redispatched_to_cpu;
    }
  }
  EXPECT_GT(redispatched_to_cpu, 0u);
}

TEST(ServeSpillTest, ReportAndMetricsCarrySpillCounters) {
  obs::MetricsRegistry metrics;
  const auto suite = make_toy_suite(2, 4'000);
  const auto specs = batch_workload(10, 2);
  ServerConfig config = spill_server(1, 16, 2);
  config.metrics = &metrics;
  config.metrics_prefix = "serve.test";
  const ServeReport report = run_server(config, specs, suite);
  ASSERT_GT(report.spills, 0u);

  const obs::Gauge* spills_gauge =
      metrics.find_gauge("serve.test.hetero.spills");
  ASSERT_NE(spills_gauge, nullptr);
  EXPECT_EQ(spills_gauge->value(), static_cast<double>(report.spills));
}

// Same config + workload => byte-identical spill decisions.
TEST(ServeSpillTest, SpillPathIsDeterministic) {
  const auto suite = make_toy_suite(2, 4'000);
  const auto specs = batch_workload(10, 2);
  const ServeReport first =
      run_server(spill_server(1, 16, 2), specs, suite);
  const ServeReport second =
      run_server(spill_server(1, 16, 2), specs, suite);
  EXPECT_EQ(first.spills, second.spills);
  EXPECT_EQ(first.makespan, second.makespan);
  ASSERT_EQ(first.jobs.size(), second.jobs.size());
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_EQ(first.jobs[i].cpu_executed, second.jobs[i].cpu_executed);
    EXPECT_EQ(first.jobs[i].finish_time, second.jobs[i].finish_time);
  }
}

}  // namespace
}  // namespace bigk::serve
