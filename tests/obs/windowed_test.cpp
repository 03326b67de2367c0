// Unit tests for the sliding-window statistics: bucket accounting, window
// expiry, rate math, and lifetime totals.
#include "obs/prof/windowed.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/time.hpp"

namespace bigk::obs {
namespace {

constexpr sim::DurationPs kWindow = 8'000;  // 8 buckets x 1000 ps

TEST(WindowedStats, RejectsZeroWindowAndBuckets) {
  EXPECT_THROW(WindowedStats(0), std::invalid_argument);
  EXPECT_THROW(WindowedStats(1'000, 0), std::invalid_argument);
}

// A window shorter than its bucket count would leave each bucket no width.
// WindowedStats(4, 8) used to clamp the width to 1 ps, so its trailing window
// covered 8 ps and counted both events of t=0 and t=7.
TEST(WindowedStats, RejectsAWindowShorterThanItsBuckets) {
  EXPECT_THROW(WindowedStats(4, 8), std::invalid_argument);
  EXPECT_THROW(WindowedStats(7), std::invalid_argument);
  EXPECT_NO_THROW(WindowedStats(8));
}

// A window that is not a whole number of bucket widths covers only the
// whole buckets, and the rates divide by that span: a 10 ps window of 8
// buckets has 1 ps buckets and covers 8 ps.
TEST(WindowedStats, RatesDivideByTheSpanTheBucketsCover) {
  WindowedStats stats(10, 8);
  for (sim::TimePs t = 0; t < 8; ++t) stats.add(t, 3.0);
  EXPECT_EQ(stats.events(7), 8u);
  EXPECT_DOUBLE_EQ(stats.rate_per_s(7), 8.0 * 1e12 / 8.0);
  EXPECT_DOUBLE_EQ(stats.sum_per_s(7), 24.0 * 1e12 / 8.0);
}

TEST(WindowedStats, CountsEventsWithinWindow) {
  WindowedStats stats(kWindow, 8);
  stats.add(0, 10.0);
  stats.add(500, 5.0);    // same first bucket
  stats.add(3'000, 2.0);  // fourth bucket
  EXPECT_EQ(stats.events(3'000), 3u);
  EXPECT_DOUBLE_EQ(stats.sum(3'000), 17.0);
}

TEST(WindowedStats, OldBucketsExpire) {
  WindowedStats stats(kWindow, 8);
  stats.add(0, 10.0);
  stats.add(9'000, 1.0);  // > one full window later: bucket 0 is out of range
  EXPECT_EQ(stats.events(9'000), 1u);
  EXPECT_DOUBLE_EQ(stats.sum(9'000), 1.0);
}

TEST(WindowedStats, RatesScaleByWindow) {
  WindowedStats stats(sim::DurationPs{1'000'000'000'000}, 10);  // 1 s window
  stats.add(0, 100.0);
  stats.add(1, 100.0);
  EXPECT_DOUBLE_EQ(stats.rate_per_s(10), 2.0);      // 2 events / 1 s
  EXPECT_DOUBLE_EQ(stats.sum_per_s(10), 200.0);     // 200 units / 1 s
}

TEST(WindowedStats, QueryAtLaterTimeDropsStaleBuckets) {
  WindowedStats stats(kWindow, 8);
  stats.add(0, 4.0);
  // Query without new adds: the window slides forward and leaves bucket 0.
  EXPECT_DOUBLE_EQ(stats.sum(0), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(7'999), 4.0);  // bucket 7, bucket 0 still live
  EXPECT_DOUBLE_EQ(stats.sum(8'000), 0.0);  // bucket 8, bucket 0 expired
}

}  // namespace
}  // namespace bigk::obs
