// bigkdur flap damping for the scheduler's device health: a quarantined
// device must pass `reinstate_after` consecutive clean probes before it
// re-enters the pool, so a flapping device — one whose outage clears and
// re-trips between probes — stays quarantined instead of bouncing jobs.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/job.hpp"
#include "serve/server.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

/// A two-device scheduler with flap damping `reinstate_after`.
Scheduler damped(std::uint32_t reinstate_after) {
  return Scheduler(Policy::kRoundRobin, 2, Scheduler::kNoJobLimit,
                   reinstate_after);
}

TEST(HealthFlapTest, ZeroReinstateThresholdIsRejected) {
  EXPECT_THROW(damped(0), std::invalid_argument);
}

TEST(HealthFlapTest, LegacySingleProbeReinstatesByDefault) {
  Scheduler scheduler(Policy::kRoundRobin, 2);
  ASSERT_TRUE(scheduler.on_failure(0, /*fatal=*/true));
  EXPECT_TRUE(scheduler.on_probe(0, true));
  EXPECT_FALSE(scheduler.quarantined(0));
  EXPECT_EQ(scheduler.reinstatements(), 1u);
}

TEST(HealthFlapTest, ReinstatementWaitsForConsecutiveCleanProbes) {
  Scheduler scheduler = damped(3);
  ASSERT_TRUE(scheduler.on_failure(0, /*fatal=*/true));
  EXPECT_FALSE(scheduler.on_probe(0, true));
  EXPECT_FALSE(scheduler.on_probe(0, true));
  EXPECT_TRUE(scheduler.quarantined(0));
  EXPECT_TRUE(scheduler.on_probe(0, true));  // third clean probe completes it
  EXPECT_FALSE(scheduler.quarantined(0));
  EXPECT_EQ(scheduler.reinstatements(), 1u);
}

TEST(HealthFlapTest, FailedProbeResetsTheCleanStreak) {
  Scheduler scheduler = damped(3);
  ASSERT_TRUE(scheduler.on_failure(0, /*fatal=*/true));
  // A flapping device: two clean probes, a relapse, two clean probes, a
  // relapse — it must never re-enter the pool.
  for (int cycle = 0; cycle < 4; ++cycle) {
    EXPECT_FALSE(scheduler.on_probe(0, true));
    EXPECT_FALSE(scheduler.on_probe(0, true));
    EXPECT_FALSE(scheduler.on_probe(0, false));
    EXPECT_TRUE(scheduler.quarantined(0));
  }
  EXPECT_EQ(scheduler.reinstatements(), 0u);
  // Once the flapping stops, three clean probes in a row reinstate.
  EXPECT_FALSE(scheduler.on_probe(0, true));
  EXPECT_FALSE(scheduler.on_probe(0, true));
  EXPECT_TRUE(scheduler.on_probe(0, true));
  EXPECT_EQ(scheduler.reinstatements(), 1u);
}

TEST(HealthFlapTest, ProbesOnHealthyDevicesAreNoops) {
  Scheduler scheduler = damped(2);
  EXPECT_FALSE(scheduler.on_probe(1, true));
  EXPECT_FALSE(scheduler.on_probe(1, false));
  EXPECT_EQ(scheduler.reinstatements(), 0u);
  EXPECT_FALSE(scheduler.quarantined(1));
}

TEST(HealthFlapTest, DampedServerStillReinstatesAndCompletes) {
  // End to end: with reinstate_after=3 the lost device rides three 50 us
  // probe rounds before re-entering the pool; the workload still completes
  // with the fault books balanced.
  const auto suite = test::make_toy_suite(3, 6'000);
  WorkloadConfig workload;
  workload.num_jobs = 12;
  workload.seed = 7;
  const auto specs = make_workload({"toy0", "toy1", "toy2"}, workload);

  ServerConfig config;
  config.system = test::toy_system();
  config.devices = 4;
  config.policy = Policy::kRoundRobin;
  config.queue_depth = 12;
  config.retry_after = sim::DurationPs{1'000'000'000};  // 1 ms
  config.max_retries = 200;
  config.engine = test::toy_engine_options();
  config.fault_spec = "device_lost,nth=1,device=0,down_us=1";
  config.probe_interval = sim::DurationPs{50'000'000};  // 50 us
  config.reinstate_after = 3;
  const ServeReport report = run_server(config, specs, suite);

  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_EQ(report.quarantines, 1u);
  EXPECT_EQ(report.reinstatements, 1u);
  EXPECT_EQ(report.fault_recovered, report.fault_injected);
}

}  // namespace
}  // namespace bigk::serve
