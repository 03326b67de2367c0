// Unit tests for the bigkcache chunk cache: key lookup, pinning, cost-aware
// eviction and admission under arena pressure, invalidation, and the
// sub-allocator's capacity accounting.
#include "cache/chunk_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "gpusim/device_memory.hpp"

namespace bigk::cache {
namespace {

CacheKey key_for(std::uint64_t chunk, std::uint64_t dataset = 1,
                 std::uint32_t stream = 0) {
  CacheKey key;
  key.dataset = dataset;
  key.stream = stream;
  key.range_begin = 0;
  key.range_end = 1000;
  key.chunk = chunk;
  key.layout = 0;
  key.signature = 0x5EED ^ chunk;
  return key;
}

struct CacheFixture {
  gpusim::DeviceMemory memory{1 << 20};

  ChunkCache make(std::uint64_t capacity, std::uint64_t stale_ticks = 256) {
    return ChunkCache(memory, ChunkCache::Config{capacity, stale_ticks});
  }

  /// A lookup that misses: it advances the cache's aging tick, so with
  /// stale_ticks = 0 every entry used before it becomes evictable.
  static void tick(ChunkCache& cache) {
    EXPECT_FALSE(cache.lookup(key_for(999), 0).has_value());
  }

  /// Insert-and-unpin: the steady state of an entry after its chunk retires.
  static std::uint64_t put(ChunkCache& cache, const CacheKey& key,
                           std::uint64_t bytes, sim::TimePs now = 0) {
    const auto lease = cache.insert(key, bytes, now);
    EXPECT_TRUE(lease.has_value());
    cache.unpin(lease->entry);
    return lease->entry;
  }
};

TEST(ChunkCacheTest, MissThenInsertThenHit) {
  CacheFixture fx;
  ChunkCache cache = fx.make(64 << 10);
  EXPECT_FALSE(cache.lookup(key_for(0), 0).has_value());
  const std::uint64_t entry = CacheFixture::put(cache, key_for(0), 4096);

  const auto hit = cache.lookup(key_for(0), 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry, entry);
  EXPECT_EQ(hit->bytes, 4096u);
  cache.unpin(hit->entry);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().bytes_saved, 4096u);
  EXPECT_EQ(cache.resident_bytes(1), 4096u);
}

TEST(ChunkCacheTest, DistinctKeyFieldsDoNotAlias) {
  CacheFixture fx;
  ChunkCache cache = fx.make(64 << 10);
  CacheFixture::put(cache, key_for(0), 1024);
  EXPECT_FALSE(cache.lookup(key_for(1), 0).has_value());           // chunk
  EXPECT_FALSE(cache.lookup(key_for(0, 2), 0).has_value());        // dataset
  EXPECT_FALSE(cache.lookup(key_for(0, 1, 1), 0).has_value());     // stream
  CacheKey tweaked = key_for(0);
  tweaked.signature ^= 1;
  EXPECT_FALSE(cache.lookup(tweaked, 0).has_value());              // signature
}

TEST(ChunkCacheTest, OversizedInsertFailsWithoutEvicting) {
  CacheFixture fx;
  ChunkCache cache = fx.make(8 << 10);
  CacheFixture::put(cache, key_for(0), 1024);
  EXPECT_FALSE(cache.insert(key_for(9), 16 << 10, 0).has_value());
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.lookup(key_for(0), 0).has_value());
}

TEST(ChunkCacheTest, PinnedEntriesAreNeverEvicted) {
  CacheFixture fx;
  // Room for exactly two 4 KiB entries; stale_ticks = 0 and one tick so
  // every unpinned entry is evictable.
  ChunkCache cache = fx.make(8 << 10, 0);
  const auto a = cache.insert(key_for(0), 4096, 0);  // stays pinned
  ASSERT_TRUE(a.has_value());
  CacheFixture::put(cache, key_for(1), 4096);
  CacheFixture::tick(cache);
  // A third insert must evict the unpinned entry 1, never the pinned 0.
  const auto c = cache.insert(key_for(2), 4096, 1);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(cache.lookup(key_for(0), 2).has_value());
  EXPECT_FALSE(cache.lookup(key_for(1), 2).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ChunkCacheTest, AllPinnedInsertFailsInsteadOfEvicting) {
  CacheFixture fx;
  // Both entries are stale after the tick: only their pins refuse the insert.
  ChunkCache cache = fx.make(8 << 10, 0);
  ASSERT_TRUE(cache.insert(key_for(0), 4096, 0).has_value());
  ASSERT_TRUE(cache.insert(key_for(1), 4096, 0).has_value());
  CacheFixture::tick(cache);
  EXPECT_FALSE(cache.insert(key_for(2), 4096, 0).has_value());
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ChunkCacheTest, CostAwareKeepsProvenEarnersOverZeros) {
  CacheFixture fx;
  // stale_ticks = 0: pure cost ranking, every unpinned entry evictable.
  ChunkCache cache = fx.make(12 << 10, 0);
  CacheFixture::put(cache, key_for(0), 4096);
  CacheFixture::put(cache, key_for(1), 4096);
  CacheFixture::put(cache, key_for(2), 4096);
  // Entry 0 earns savings (oldest but proven); 1 and 2 never hit.
  cache.unpin(cache.lookup(key_for(0), 1)->entry);
  // Pure recency would now evict entry 0; cost-aware keeps the proven
  // earner and evicts the least-earning, oldest zero-savings entry (1).
  CacheFixture::put(cache, key_for(3), 4096, 3);
  EXPECT_TRUE(cache.lookup(key_for(0), 4).has_value());
  EXPECT_FALSE(cache.lookup(key_for(1), 4).has_value());
  EXPECT_TRUE(cache.lookup(key_for(2), 4).has_value());
}

TEST(ChunkCacheTest, CostAwareAdmissionProtectsFreshResidents) {
  CacheFixture fx;
  ChunkCache cache = fx.make(8 << 10);
  CacheFixture::put(cache, key_for(0), 4096);
  CacheFixture::put(cache, key_for(1), 4096);
  // Both residents are fresh and unproven: a new unproven image may not
  // displace them — the insert is refused, not admitted by churn.
  EXPECT_FALSE(cache.insert(key_for(2), 4096, 1).has_value());
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.lookup(key_for(0), 2).has_value());
}

TEST(ChunkCacheTest, CostAwareEvictsStaleEntriesForNewCandidates) {
  CacheFixture fx;
  // Tight admission window so disuse ages quickly.
  ChunkCache cache = fx.make(8 << 10, /*stale_ticks=*/4);
  CacheFixture::put(cache, key_for(0), 4096);
  CacheFixture::put(cache, key_for(1), 4096);
  // Traffic keeps entry 1 hot while entry 0 goes untouched past the window.
  for (int i = 0; i < 6; ++i) cache.unpin(cache.lookup(key_for(1), i)->entry);
  const auto lease = cache.insert(key_for(2), 4096, 9);
  ASSERT_TRUE(lease.has_value());
  cache.unpin(lease->entry);
  EXPECT_FALSE(cache.lookup(key_for(0), 10).has_value());  // stale: evicted
  EXPECT_TRUE(cache.lookup(key_for(1), 10).has_value());
  EXPECT_TRUE(cache.lookup(key_for(2), 10).has_value());
}

TEST(ChunkCacheTest, CostAwareIsScanResistantWhereLruThrashes) {
  // A repeated sequential scan of 6 chunks through a 4-entry partition:
  // LRU would evict each chunk just before its reuse (0 hits ever);
  // cost-aware admission keeps the first 4 chunks resident and serves them
  // every pass.
  CacheFixture fx;
  ChunkCache cache = fx.make(16 << 10);
  std::uint64_t hits = 0;
  sim::TimePs now = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t chunk = 0; chunk < 6; ++chunk) {
      if (const auto hit = cache.lookup(key_for(chunk), ++now)) {
        ++hits;
        cache.unpin(hit->entry);
        continue;
      }
      if (const auto lease = cache.insert(key_for(chunk), 4096, now)) {
        cache.unpin(lease->entry);
      }
    }
  }
  // 3 warm passes x 4 resident chunks.
  EXPECT_EQ(hits, 12u);
}

TEST(ChunkCacheTest, InvalidateWhilePinnedDefersReclaimToUnpin) {
  CacheFixture fx;
  ChunkCache cache = fx.make(8 << 10);
  const auto lease = cache.insert(key_for(0), 4096, 0);  // pinned
  ASSERT_TRUE(lease.has_value());
  cache.invalidate_entry(lease->entry, 1);
  // Gone from the index immediately...
  EXPECT_FALSE(cache.lookup(key_for(0), 2).has_value());
  EXPECT_EQ(cache.resident_bytes(1), 0u);
  // ...but the storage outlives the in-flight pin: a full-capacity insert
  // only fits after the unpin releases the zombie range.
  EXPECT_FALSE(cache.insert(key_for(1), 8 << 10, 3).has_value());
  cache.unpin(lease->entry);
  EXPECT_TRUE(cache.insert(key_for(1), 8 << 10, 4).has_value());
}

TEST(ChunkCacheTest, InvalidateDatasetDropsOnlyThatDataset) {
  CacheFixture fx;
  ChunkCache cache = fx.make(64 << 10);
  CacheFixture::put(cache, key_for(0, 1), 4096);
  CacheFixture::put(cache, key_for(0, 2), 4096);
  cache.invalidate_dataset(1, 0);
  EXPECT_FALSE(cache.lookup(key_for(0, 1), 1).has_value());
  EXPECT_TRUE(cache.lookup(key_for(0, 2), 1).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ChunkCacheTest, ReinsertUnderSameKeyReplacesTheOldImage) {
  CacheFixture fx;
  ChunkCache cache = fx.make(64 << 10);
  CacheFixture::put(cache, key_for(0), 4096);
  const auto fresh = cache.insert(key_for(0), 8192, 1);
  ASSERT_TRUE(fresh.has_value());
  cache.unpin(fresh->entry);
  const auto hit = cache.lookup(key_for(0), 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bytes, 8192u);
  EXPECT_EQ(cache.resident_bytes(1), 8192u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ChunkCacheTest, EvictionFreesSpaceForCoalescedReuse) {
  CacheFixture fx;
  ChunkCache cache = fx.make(16 << 10, 0);
  for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
    CacheFixture::put(cache, key_for(chunk), 4096);
  }
  CacheFixture::tick(cache);
  // One 16 KiB entry needs the whole partition: every resident entry must be
  // evicted and the freed ranges coalesced back into a single span.
  const auto big = cache.insert(key_for(9), 16 << 10, 1);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(cache.stats().evictions, 4u);
}

TEST(ChunkCacheTest, CapacityMustBeNonZero) {
  CacheFixture fx;
  EXPECT_THROW(fx.make(0), std::invalid_argument);
}

}  // namespace
}  // namespace bigk::cache
