#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace bigk::serve {
namespace {

TEST(PolicyTest, NamesRoundTrip) {
  EXPECT_EQ(policy_from_name("round-robin"), Policy::kRoundRobin);
  EXPECT_EQ(policy_from_name("least-bytes"), Policy::kLeastOutstandingBytes);
  EXPECT_EQ(policy_from_name("app-affinity"), Policy::kAppAffinity);
  EXPECT_STREQ(policy_name(Policy::kRoundRobin), "round-robin");
  EXPECT_STREQ(policy_name(Policy::kLeastOutstandingBytes), "least-bytes");
  EXPECT_STREQ(policy_name(Policy::kAppAffinity), "app-affinity");
}

TEST(PolicyTest, UnknownNameListsValidPolicies) {
  try {
    policy_from_name("fifo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("fifo"), std::string::npos);
    EXPECT_NE(message.find("round-robin"), std::string::npos);
    EXPECT_NE(message.find("least-bytes"), std::string::npos);
    EXPECT_NE(message.find("app-affinity"), std::string::npos);
  }
}

TEST(SchedulerTest, RoundRobinRotates) {
  Scheduler scheduler(Policy::kRoundRobin, 3);
  EXPECT_EQ(scheduler.pick_device("a", 10), 0u);
  EXPECT_EQ(scheduler.pick_device("b", 10), 1u);
  EXPECT_EQ(scheduler.pick_device("c", 10), 2u);
  EXPECT_EQ(scheduler.pick_device("d", 10), 0u);
}

TEST(SchedulerTest, LeastBytesPicksShortestBacklog) {
  Scheduler scheduler(Policy::kLeastOutstandingBytes, 3);
  scheduler.on_dispatch(0, "a", 100);
  scheduler.on_dispatch(1, "b", 10);
  scheduler.on_dispatch(2, "c", 50);
  EXPECT_EQ(scheduler.pick_device("d", 5), 1u);
  scheduler.on_dispatch(1, "d", 200);
  EXPECT_EQ(scheduler.pick_device("e", 5), 2u);
  // Completion shrinks the backlog and changes the pick.
  scheduler.on_complete(0, 100);
  EXPECT_EQ(scheduler.pick_device("f", 5), 0u);
  // Ties break toward the lowest device index.
  Scheduler fresh(Policy::kLeastOutstandingBytes, 2);
  EXPECT_EQ(fresh.pick_device("a", 5), 0u);
}

TEST(SchedulerTest, AppAffinityPrefersResidentDataset) {
  Scheduler scheduler(Policy::kAppAffinity, 3);
  // Cold start: no resident datasets, falls back to least bytes (device 0).
  EXPECT_EQ(scheduler.pick_device("a", 10), 0u);
  scheduler.on_dispatch(0, "a", 10);
  EXPECT_EQ(scheduler.pick_device("b", 10), 1u);
  scheduler.on_dispatch(1, "b", 10);
  // "a" is resident on device 0: affinity wins even though device 2 is idle.
  EXPECT_EQ(scheduler.pick_device("a", 10), 0u);
  scheduler.on_dispatch(0, "a", 10);
  EXPECT_EQ(scheduler.resident_app(0), "a");
  // An unseen app lands on the emptiest device.
  EXPECT_EQ(scheduler.pick_device("c", 10), 2u);
}

TEST(SchedulerTest, AffinityTiesBreakByBacklogAmongWarmDevices) {
  Scheduler scheduler(Policy::kAppAffinity, 3);
  scheduler.on_dispatch(0, "a", 100);
  scheduler.on_dispatch(1, "a", 10);
  scheduler.on_dispatch(2, "b", 8);
  // Both 0 and 1 hold "a"; the lighter backlog wins. Device 1's lead over
  // the emptiest device (10 vs 8) is within the job's own 5 bytes, so the
  // warm detour is worth it.
  EXPECT_EQ(scheduler.pick_device("a", 5), 1u);
}

TEST(SchedulerTest, AffinitySpillsWhenWarmBacklogOutweighsStagingSaving) {
  Scheduler scheduler(Policy::kAppAffinity, 3);
  scheduler.on_dispatch(0, "a", 100);
  scheduler.on_dispatch(1, "a", 110);
  scheduler.on_dispatch(2, "b", 8);
  // The best warm device (0, backlog 100) leads the emptiest device (2,
  // backlog 8) by far more than the 5 input bytes a warm hit could save:
  // head-of-line blocking behind the warm device would cost more than cold
  // staging, so the job spills to the emptiest device.
  EXPECT_EQ(scheduler.pick_device("a", 5), 2u);
}

TEST(SchedulerTest, EveryPolicySkipsAQuarantinedDeviceUntilReinstated) {
  for (const Policy policy : {Policy::kRoundRobin,
                              Policy::kLeastOutstandingBytes,
                              Policy::kAppAffinity}) {
    SCOPED_TRACE(policy_name(policy));
    Scheduler scheduler(policy, 2);
    // Device 1 carries the backlog, so every policy would pick device 0.
    scheduler.on_dispatch(1, "b", 100);
    ASSERT_TRUE(scheduler.on_failure(0, /*fatal=*/true));
    EXPECT_FALSE(scheduler.placeable(0));
    EXPECT_EQ(scheduler.pick_device("a", 10), 1u);
    EXPECT_EQ(scheduler.pick_device("a", 10, /*redispatch=*/true), 1u);
    ASSERT_TRUE(scheduler.on_failure(1, /*fatal=*/true));
    EXPECT_FALSE(scheduler.any_placeable());
    EXPECT_FALSE(scheduler.can_dispatch());
    EXPECT_EQ(scheduler.pick_device("a", 10, /*redispatch=*/true), 2u);
    ASSERT_TRUE(scheduler.on_probe(0, /*clean=*/true));
    EXPECT_EQ(scheduler.pick_device("a", 10), 0u);
    EXPECT_EQ(scheduler.quarantines(), 2u);
    EXPECT_EQ(scheduler.reinstatements(), 1u);
  }
}

TEST(SchedulerTest, TwoFailuresInARowQuarantine) {
  Scheduler scheduler(Policy::kRoundRobin, 2);
  EXPECT_FALSE(scheduler.on_failure(0));
  scheduler.on_success(0);  // resets the streak
  EXPECT_FALSE(scheduler.on_failure(0));
  EXPECT_TRUE(scheduler.on_failure(0));
  EXPECT_TRUE(scheduler.quarantined(0));
  EXPECT_FALSE(scheduler.on_failure(0));  // already quarantined
  EXPECT_EQ(scheduler.quarantines(), 1u);
}

TEST(SchedulerTest, DispatchAppliesTheJobLimitAndRedispatchIgnoresIt) {
  Scheduler scheduler(Policy::kLeastOutstandingBytes, 3, /*job_limit=*/1);
  scheduler.on_dispatch(0, "a", 10);
  scheduler.on_dispatch(1, "b", 100);
  // Device 0 has the least backlog but holds its one job.
  EXPECT_TRUE(scheduler.can_dispatch());
  EXPECT_EQ(scheduler.pick_device("c", 10), 2u);
  scheduler.on_dispatch(2, "c", 10);
  EXPECT_FALSE(scheduler.can_dispatch());
  EXPECT_EQ(scheduler.pick_device("d", 10), 3u);
  // A redispatch takes the least backlog whatever the device holds.
  EXPECT_EQ(scheduler.pick_device("d", 10, /*redispatch=*/true), 0u);
  scheduler.on_complete(0, 10);
  EXPECT_TRUE(scheduler.can_dispatch());
  EXPECT_EQ(scheduler.pick_device("d", 10), 0u);
  // Without a limit a device takes any number of jobs.
  Scheduler unbounded(Policy::kRoundRobin, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(unbounded.pick_device("a", 1), 0u);
    unbounded.on_dispatch(0, "a", 1);
  }
  EXPECT_TRUE(unbounded.can_dispatch());
  EXPECT_THROW(Scheduler(Policy::kRoundRobin, 1).on_complete(0, 1),
               std::logic_error);
}

TEST(SchedulerTest, ScalingWakesParksAndFailsOver) {
  Scheduler scheduler(Policy::kRoundRobin, 4);
  scheduler.park_from(1);  // the autoscaler's floor: device 0 active
  EXPECT_EQ(scheduler.active_devices(), 1u);
  EXPECT_FALSE(scheduler.placeable(1));
  ASSERT_TRUE(scheduler.on_failure(1, /*fatal=*/true));  // while parked
  // A wake takes the lowest-index parked device, preferring a healthy one.
  EXPECT_EQ(scheduler.scale(+1).woken, 2u);
  EXPECT_EQ(scheduler.scale(+1).woken, 3u);
  EXPECT_EQ(scheduler.scale(+1).woken, 1u);  // only the quarantined one left
  const Scheduler::Scaling none = scheduler.scale(+1);
  EXPECT_EQ(none.woken, 4u);
  EXPECT_EQ(none.parked, 4u);
  EXPECT_EQ(none.failover, 4u);
  EXPECT_EQ(scheduler.active_devices(), 4u);
  // A park takes the highest-index active device.
  EXPECT_EQ(scheduler.scale(-1).parked, 3u);
  EXPECT_EQ(scheduler.scale(-1).parked, 2u);
  // Device 0's loss leaves nothing placeable: the lowest-index healthy
  // parked device wakes in failover, without a step.
  ASSERT_TRUE(scheduler.on_failure(0, /*fatal=*/true));
  const Scheduler::Scaling failover = scheduler.scale(0);
  EXPECT_EQ(failover.woken, 4u);
  EXPECT_EQ(failover.failover, 2u);
  EXPECT_EQ(scheduler.active_devices(), 3u);
  // A park that empties the placeable set fails over within the step, and
  // the count the step ends with is what the min/max see.
  const Scheduler::Scaling bounce = scheduler.scale(-1);
  EXPECT_EQ(bounce.parked, 2u);
  EXPECT_EQ(bounce.failover, 2u);
  EXPECT_EQ(scheduler.active_devices(), 3u);
  EXPECT_EQ(scheduler.min_active_devices(), 1u);
  EXPECT_EQ(scheduler.max_active_devices(), 4u);
  Scheduler pool(Policy::kRoundRobin, 3);
  ASSERT_TRUE(pool.on_failure(0, /*fatal=*/true));
  ASSERT_TRUE(pool.on_failure(1, /*fatal=*/true));
  EXPECT_EQ(pool.scale(-1).failover, 2u);
  EXPECT_EQ(pool.min_active_devices(), 3u);
}

TEST(SchedulerTest, RejectsZeroDevices) {
  EXPECT_THROW(Scheduler(Policy::kRoundRobin, 0), std::invalid_argument);
}

}  // namespace
}  // namespace bigk::serve
