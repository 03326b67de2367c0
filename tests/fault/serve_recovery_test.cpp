// bigkfault end-to-end recovery at the serving layer: a device lost
// mid-workload is quarantined (cache dropped, in-flight and queued jobs
// redispatched), the probe daemon reinstates it after the outage, and the
// workload still completes with zero jobs shed to the failure — plus the
// degenerate single-device outage, where clients ride escalating no-device
// rejections until the device comes back.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/job.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

ServerConfig toy_server(std::uint32_t devices, std::uint32_t queue_depth) {
  ServerConfig config;
  config.system = toy_system();
  config.devices = devices;
  config.policy = Policy::kRoundRobin;
  config.queue_depth = queue_depth;
  config.retry_after = sim::DurationPs{1'000'000'000};  // 1 ms
  config.max_retries = 200;
  config.engine = toy_engine_options();
  return config;
}

std::vector<JobSpec> toy_workload(std::uint32_t num_jobs,
                                  std::uint32_t num_apps) {
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < num_apps; ++i) {
    names.push_back("toy" + std::to_string(i));
  }
  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.seed = 7;
  return make_workload(names, workload);
}

TEST(ServeRecoveryTest, DeviceLostMidWorkloadIsQuarantinedAndReinstated) {
  const auto suite = make_toy_suite(3, 6'000);
  const auto specs = toy_workload(12, 3);
  ServerConfig config = toy_server(4, 12);
  // Device 0 dies on its first DMA, with a 1 us outage and a 50 us probe
  // period so it is reinstated while the workload is still running.
  config.fault_spec = "device_lost,nth=1,device=0,down_us=1";
  config.probe_interval = sim::DurationPs{50'000'000};  // 50 us
  const ServeReport report = run_server(config, specs, suite);

  // The acceptance bar: every job finishes, none are shed or abandoned
  // because of the failure, and the fault books balance.
  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_EQ(report.fault_injected, 1u);
  EXPECT_EQ(report.fault_recovered, report.fault_injected);
  EXPECT_EQ(report.quarantines, 1u);
  EXPECT_EQ(report.reinstatements, 1u);
  // At minimum the job that was running on device 0 moved elsewhere.
  EXPECT_GE(report.redispatches, 1u);
  for (const JobRecord& record : report.jobs) {
    EXPECT_TRUE(record.completed) << "job " << record.spec.id;
    EXPECT_FALSE(record.failed);
  }
  std::uint64_t device_jobs = 0;
  for (const DeviceReport& device : report.devices) device_jobs += device.jobs;
  EXPECT_EQ(device_jobs, 12u);
}

TEST(ServeRecoveryTest, ConsecutiveDmaFailuresQuarantineWithoutLosingJobs) {
  const auto suite = make_toy_suite(3, 6'000);
  const auto specs = toy_workload(12, 3);
  ServerConfig config = toy_server(4, 12);
  // Device 0's DMA engine is broken for good: every op fails, the engine's
  // retries exhaust, and each job on it aborts with DmaError. Two such
  // failures in a row trip the quarantine; the other three devices absorb
  // the redispatches.
  config.fault_spec = "dma_error,nth=1,every=1,device=0";
  const ServeReport report = run_server(config, specs, suite);

  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_GE(report.quarantines, 1u);
  EXPECT_GE(report.redispatches, 2u);
  EXPECT_GT(report.fault_injected, 0u);
}

TEST(ServeRecoveryTest, SoleDeviceOutageShedsToNoDeviceRejections) {
  const auto suite = make_toy_suite(2, 6'000);
  const auto specs = toy_workload(8, 2);
  ServerConfig config = toy_server(1, /*queue_depth=*/1);
  config.fault_spec = "device_lost,nth=1,down_ms=1";
  const ServeReport report = run_server(config, specs, suite);

  // The job in flight when the only device died has nowhere to go: it is
  // the one failure the outage costs.
  EXPECT_EQ(report.failed_jobs, 1u);
  EXPECT_EQ(report.completed, 7u);
  EXPECT_EQ(report.dropped, 0u);
  // While the pool is empty, submissions are refused as no-device (not
  // queue-full) and clients ride the escalating retry-after.
  EXPECT_GT(report.rejections_no_device, 0u);
  EXPECT_EQ(report.quarantines, 1u);
  EXPECT_EQ(report.reinstatements, 1u);
  EXPECT_EQ(report.fault_recovered, report.fault_injected);
}

TEST(ServeRecoveryTest, SilentFaultPlaneKeepsScheduleByteIdentical) {
  // A plane whose specs never fire must not perturb the simulation: same
  // makespan, same completion order as no plane at all.
  const auto suite = make_toy_suite(3, 6'000);
  const auto specs = toy_workload(8, 3);
  const ServeReport clean = run_server(toy_server(2, 8), specs, suite);
  ServerConfig config = toy_server(2, 8);
  config.fault_spec = "dma_error,nth=1000000";
  const ServeReport silent = run_server(config, specs, suite);

  EXPECT_EQ(silent.fault_injected, 0u);
  EXPECT_EQ(silent.makespan, clean.makespan);
  EXPECT_EQ(silent.completion_order, clean.completion_order);
  EXPECT_EQ(silent.completed, clean.completed);
}

TEST(ServeRecoveryTest, MalformedFaultSpecIsRejectedUpFront) {
  const auto suite = make_toy_suite(1, 1'000);
  const auto specs = toy_workload(1, 1);
  ServerConfig config = toy_server(1, 1);
  config.fault_spec = "warp_drive_failure,nth=1";
  EXPECT_THROW(run_server(config, specs, suite), std::invalid_argument);
}

}  // namespace
}  // namespace bigk::serve
