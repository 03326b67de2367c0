// bigkfault satellite: chunk-cache behaviour across a device reset (serve
// quarantining a device after a device_lost fault). invalidate_all with
// device_reset drops every entry — the arena contents are no longer
// trustworthy — and the pipeline checker condemns any surviving lease so a
// read through it is flagged as read_after_device_reset.
#include <gtest/gtest.h>

#include <cstdint>

#include "cache/chunk_cache.hpp"
#include "check/options.hpp"
#include "check/pipecheck.hpp"
#include "check/report.hpp"
#include "gpusim/device_memory.hpp"

namespace bigk::cache {
namespace {

CacheKey key_for(std::uint64_t chunk, std::uint64_t dataset = 1) {
  CacheKey key;
  key.dataset = dataset;
  key.stream = 0;
  key.range_begin = 0;
  key.range_end = 1000;
  key.chunk = chunk;
  key.layout = 0;
  key.signature = 0x5EED ^ chunk;
  return key;
}

struct ResetFixture {
  gpusim::DeviceMemory memory{1 << 20};
  ChunkCache cache{memory, ChunkCache::Config{64 << 10, 256}};

  std::uint64_t put(const CacheKey& key, std::uint64_t bytes,
                    sim::TimePs now = 0) {
    const auto lease = cache.insert(key, bytes, now);
    EXPECT_TRUE(lease.has_value());
    cache.unpin(lease->entry);
    return lease->entry;
  }
};

TEST(CacheDeviceResetTest, DropsEveryEntryAcrossDatasets) {
  ResetFixture fx;
  fx.put(key_for(0, 1), 4096);
  fx.put(key_for(1, 1), 4096);
  fx.put(key_for(0, 2), 4096);
  ASSERT_EQ(fx.cache.entry_count(), 3u);

  fx.cache.invalidate_all(10, /*device_reset=*/true);

  EXPECT_EQ(fx.cache.entry_count(), 0u);
  EXPECT_EQ(fx.cache.bytes_used(), 0u);
  EXPECT_EQ(fx.cache.resident_bytes(1), 0u);
  EXPECT_EQ(fx.cache.resident_bytes(2), 0u);
  EXPECT_EQ(fx.cache.stats().invalidations, 3u);
  // Post-reset lookups miss and the caller restages from host memory.
  EXPECT_FALSE(fx.cache.lookup(key_for(0, 1), 11).has_value());
  EXPECT_FALSE(fx.cache.lookup(key_for(0, 2), 11).has_value());
}

TEST(CacheDeviceResetTest, CacheIsReusableAfterReset) {
  ResetFixture fx;
  fx.put(key_for(0), 4096);
  fx.cache.invalidate_all(10, /*device_reset=*/true);
  // The partition survives the reset; fresh images insert and hit again.
  fx.put(key_for(0), 4096, 11);
  EXPECT_TRUE(fx.cache.lookup(key_for(0), 12).has_value());
}

TEST(CacheDeviceResetTest, PinnedEntryTurnsZombieAndReclaimsAtUnpin) {
  ResetFixture fx;
  const auto pinned = fx.cache.insert(key_for(0), 4096, 0);
  ASSERT_TRUE(pinned.has_value());

  fx.cache.invalidate_all(1, /*device_reset=*/true);

  // Removed from the index immediately: lookups miss even before the unpin.
  EXPECT_FALSE(fx.cache.lookup(key_for(0), 2).has_value());
  EXPECT_EQ(fx.cache.resident_bytes(1), 0u);
  // Storage is reclaimed at the last unpin, not before.
  EXPECT_GT(fx.cache.bytes_used(), 0u);
  fx.cache.unpin(pinned->entry);
  EXPECT_EQ(fx.cache.bytes_used(), 0u);
}

TEST(CacheDeviceResetTest, CheckerFlagsReadThroughSurvivingLease) {
  ResetFixture fx;
  check::CheckOptions options = check::CheckOptions::all_enabled();
  check::Reporter reporter{options};
  check::PipelineChecker checker{reporter};
  checker.begin_launch(2, 2, 2, 1);
  fx.cache.set_checker(&checker);

  // A compute stage holds a cache hit when the device is reset under it.
  const auto lease = fx.cache.insert(key_for(0), 4096, 0);
  ASSERT_TRUE(lease.has_value());
  checker.on_slot_acquire(0, 0);
  checker.on_addr_counts(0, 0, 0, {4, 4});
  checker.on_cache_slot(0, 0, 0, lease->entry, /*hit=*/true);
  checker.on_compute_begin(0, 0, 1);

  fx.cache.invalidate_all(5, /*device_reset=*/true);
  checker.on_compute_read(0, 0, 0, 0, 0);

  ASSERT_EQ(reporter.total(), 1u);
  const check::Violation& violation = reporter.recorded().front();
  EXPECT_EQ(violation.checker, "pipecheck");
  EXPECT_EQ(violation.kind, "read_after_device_reset");
  EXPECT_EQ(violation.block, 0);
  EXPECT_EQ(violation.chunk, 0);
  EXPECT_EQ(violation.allocation, lease->entry);
  fx.cache.set_checker(nullptr);
  fx.cache.unpin(lease->entry);
}

TEST(CacheDeviceResetTest, PlainInvalidateAllStaysStaleCacheRead) {
  ResetFixture fx;
  check::CheckOptions options = check::CheckOptions::all_enabled();
  check::Reporter reporter{options};
  check::PipelineChecker checker{reporter};
  checker.begin_launch(2, 2, 2, 1);
  fx.cache.set_checker(&checker);

  const auto lease = fx.cache.insert(key_for(0), 4096, 0);
  ASSERT_TRUE(lease.has_value());
  checker.on_slot_acquire(0, 0);
  checker.on_addr_counts(0, 0, 0, {4, 4});
  checker.on_cache_slot(0, 0, 0, lease->entry, /*hit=*/true);
  checker.on_compute_begin(0, 0, 1);

  // Without device_reset the drop is an ordinary invalidation: same entries
  // gone, but the read is classified as a stale read, not a reset read.
  fx.cache.invalidate_all(5, /*device_reset=*/false);
  checker.on_compute_read(0, 0, 0, 0, 0);

  ASSERT_EQ(reporter.total(), 1u);
  EXPECT_EQ(reporter.recorded().front().kind, "stale_cache_read");
  fx.cache.set_checker(nullptr);
  fx.cache.unpin(lease->entry);
}

}  // namespace
}  // namespace bigk::cache
