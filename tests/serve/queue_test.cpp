#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bigk::serve {
namespace {

TEST(JobQueueTest, AdmitsUpToDepthThenRejectsWithRetryAfter) {
  JobQueue queue(3, sim::DurationPs{500});
  for (int i = 0; i < 3; ++i) {
    const JobQueue::Admission admission = queue.try_admit();
    EXPECT_TRUE(admission.accepted);
    EXPECT_EQ(admission.retry_after, 0u);
  }
  EXPECT_EQ(queue.outstanding(), 3u);

  const JobQueue::Admission rejected = queue.try_admit();
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.retry_after, sim::DurationPs{500});
  EXPECT_EQ(queue.rejected(), 1u);
  EXPECT_EQ(queue.outstanding(), 3u);
}

TEST(JobQueueTest, ReleaseFreesASlot) {
  JobQueue queue(1, sim::DurationPs{10});
  EXPECT_TRUE(queue.try_admit().accepted);
  EXPECT_FALSE(queue.try_admit().accepted);
  queue.release();
  EXPECT_EQ(queue.outstanding(), 0u);
  EXPECT_TRUE(queue.try_admit().accepted);
  EXPECT_EQ(queue.outstanding(), 1u);
  EXPECT_EQ(queue.rejected(), 1u);
}

TEST(JobQueueTest, TracksPeakDepth) {
  JobQueue queue(4, sim::DurationPs{10});
  queue.try_admit();
  queue.try_admit();
  queue.try_admit();
  queue.release();
  queue.release();
  queue.try_admit();
  EXPECT_EQ(queue.peak_depth(), 3u);
  EXPECT_EQ(queue.outstanding(), 2u);
}

TEST(JobQueueTest, TenantQuotaIsCheckedBeforeDepth) {
  // Tenant 0 may hold one job, tenant 1 any number; the pool holds one.
  JobQueue queue(1, sim::DurationPs{10}, {1, 0});
  ASSERT_TRUE(queue.try_admit(1, 0).accepted);
  // The pool is full too, but tenant 0's quota is what turns it away, even
  // with nothing placeable.
  EXPECT_EQ(queue.try_admit(2, 0).cause, RejectCause::kTenantQuota);
  EXPECT_EQ(queue.try_admit(2, 0, /*placeable=*/false).cause,
            RejectCause::kTenantQuota);
  EXPECT_EQ(queue.try_admit(3, 1).cause, RejectCause::kQueueFull);
  EXPECT_EQ(queue.rejected(RejectCause::kTenantQuota), 2u);
  EXPECT_EQ(queue.rejected(RejectCause::kQueueFull), 1u);
}

TEST(JobQueueTest, NothingPlaceableIsRejectedAsNoDevice) {
  JobQueue queue(4, sim::DurationPs{10});
  const JobQueue::Admission admission =
      queue.try_admit(1, 0, /*placeable=*/false);
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.cause, RejectCause::kNoDevice);
  EXPECT_EQ(admission.retry_after, sim::DurationPs{10});
  EXPECT_EQ(queue.outstanding(), 0u);
  EXPECT_EQ(queue.rejected(RejectCause::kNoDevice), 1u);
}

TEST(JobQueueTest, ReleaseFreesThePoolAndTheTenantSlot) {
  JobQueue queue(1, sim::DurationPs{10}, {1, 0});
  ASSERT_TRUE(queue.try_admit(1, 0).accepted);
  queue.release(0);
  EXPECT_EQ(queue.outstanding(), 0u);
  // Tenant 0 is under its quota again, and the pool slot is free.
  ASSERT_TRUE(queue.try_admit(1, 0).accepted);
  queue.release(0);
  ASSERT_TRUE(queue.try_admit(2, 1).accepted);
  // Tenant 0 holds no job to release.
  EXPECT_THROW(queue.release(0), std::logic_error);
}

TEST(JobQueueTest, DepthSumAndCountFollowAdmitsAndReleases) {
  JobQueue queue(2, sim::DurationPs{10});
  queue.try_admit();  // depth 1
  queue.try_admit();  // depth 2
  queue.try_admit();  // rejected: no sample
  queue.release();    // depth 1
  queue.try_admit();  // depth 2
  EXPECT_EQ(queue.depth_samples(), 4u);
  EXPECT_EQ(queue.depth_sum(), 1u + 2u + 1u + 2u);
}

TEST(JobQueueTest, RejectsInvalidUse) {
  EXPECT_THROW(JobQueue(0, sim::DurationPs{1}), std::invalid_argument);
  EXPECT_THROW(JobQueue(1, sim::DurationPs{1}, {}), std::invalid_argument);
  JobQueue queue(1, sim::DurationPs{1});
  EXPECT_THROW(queue.release(), std::logic_error);
}

}  // namespace
}  // namespace bigk::serve
