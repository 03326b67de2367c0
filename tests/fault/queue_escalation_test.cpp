// bigkfault satellite: per-client escalating retry-after in the admission
// queue — doubling to the 8x cap, streak reset on accept, and the
// rejection-cause breakdown used by the shedding reports.
#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bigk::serve {
namespace {

constexpr sim::DurationPs kBase = sim::DurationPs{1'000};

TEST(QueueEscalationTest, HintDoublesPerClientUpToDefaultCap) {
  JobQueue queue(1, kBase);
  ASSERT_TRUE(queue.try_admit(99).accepted);  // fill the queue
  std::vector<sim::DurationPs> hints;
  for (int i = 0; i < 6; ++i) {
    const JobQueue::Admission a = queue.try_admit(7);
    EXPECT_FALSE(a.accepted);
    EXPECT_EQ(a.cause, RejectCause::kQueueFull);
    hints.push_back(a.retry_after);
  }
  // base, 2x, 4x, 8x, then pinned at the cap of 8x.
  EXPECT_EQ(hints, (std::vector<sim::DurationPs>{
                       kBase, 2 * kBase, 4 * kBase, 8 * kBase, 8 * kBase,
                       8 * kBase}));
}

TEST(QueueEscalationTest, StreaksAreIndependentPerClient) {
  JobQueue queue(1, kBase);
  ASSERT_TRUE(queue.try_admit(99).accepted);
  EXPECT_EQ(queue.try_admit(1).retry_after, kBase);
  EXPECT_EQ(queue.try_admit(1).retry_after, 2 * kBase);
  // A different client starts from the base regardless of client 1's streak.
  EXPECT_EQ(queue.try_admit(2).retry_after, kBase);
  EXPECT_EQ(queue.try_admit(1).retry_after, 4 * kBase);
}

TEST(QueueEscalationTest, AcceptanceResetsTheStreak) {
  JobQueue queue(1, kBase);
  ASSERT_TRUE(queue.try_admit(99).accepted);
  EXPECT_EQ(queue.try_admit(7).retry_after, kBase);
  EXPECT_EQ(queue.try_admit(7).retry_after, 2 * kBase);
  queue.release();
  ASSERT_TRUE(queue.try_admit(7).accepted);
  queue.release();
  ASSERT_TRUE(queue.try_admit(99).accepted);
  // Fresh streak after the acceptance: back to the base hint.
  EXPECT_EQ(queue.try_admit(7).retry_after, kBase);
}

TEST(QueueEscalationTest, RejectionCausesAreBrokenDown) {
  JobQueue queue(1, kBase);
  ASSERT_TRUE(queue.try_admit(99).accepted);
  queue.try_admit(1);                        // queue_full
  queue.reject(RejectCause::kNoDevice, 2);   // pool-wide quarantine path
  queue.reject(RejectCause::kNoDevice, 2);
  EXPECT_EQ(queue.rejected(), 3u);
  EXPECT_EQ(queue.rejected(RejectCause::kQueueFull), 1u);
  EXPECT_EQ(queue.rejected(RejectCause::kNoDevice), 2u);
}

TEST(QueueEscalationTest, NoDeviceRejectionsShareTheClientStreak) {
  JobQueue queue(1, kBase);
  // Caller-decided rejections escalate the same per-client streak that
  // queue-full rejections use.
  EXPECT_EQ(queue.reject(RejectCause::kNoDevice, 5), kBase);
  EXPECT_EQ(queue.reject(RejectCause::kNoDevice, 5), 2 * kBase);
  ASSERT_TRUE(queue.try_admit(5).accepted);
  EXPECT_EQ(queue.reject(RejectCause::kNoDevice, 5), kBase);
}

}  // namespace
}  // namespace bigk::serve
