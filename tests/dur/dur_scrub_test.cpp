// bigkdur cache scrub daemon: budgeted re-verification of quiescent resident
// ChunkCache entries against their insert-time digests — clean entries
// survive, corrupted entries are evicted so the next lookup restages clean
// bytes, and pinned / undigested entries are left to their owners.
#include "cache/chunk_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dur/integrity.hpp"
#include "fault/fault.hpp"
#include "gpusim/device_memory.hpp"
#include "sim/hash.hpp"

namespace bigk::cache {
namespace {

constexpr std::size_t site(dur::Site s) {
  return static_cast<std::size_t>(s);
}

CacheKey key_for(std::uint64_t chunk) {
  CacheKey key;
  key.dataset = 1;
  key.stream = 0;
  key.range_begin = 0;
  key.range_end = 1000;
  key.chunk = chunk;
  key.layout = 0;
  key.signature = 0x5EED ^ chunk;
  return key;
}

struct ScrubFixture {
  gpusim::DeviceMemory memory{1 << 20};
  dur::Integrity integrity;
  ChunkCache cache{memory, ChunkCache::Config{64 << 10}};

  ScrubFixture() { cache.set_integrity(&integrity); }

  /// Insert-and-unpin an entry whose device bytes match its recorded digest
  /// — the steady state the engine leaves behind after a verified DMA.
  ChunkCache::Lease put_digested(std::uint64_t chunk, std::uint64_t bytes,
                                 std::uint8_t fill, sim::TimePs now = 0) {
    std::vector<std::byte> image(bytes);
    for (std::uint64_t i = 0; i < bytes; ++i) {
      image[i] = static_cast<std::byte>(fill + i);
    }
    const std::uint64_t digest =
        sim::digest_bytes({image.data(), image.size()});
    const auto lease = cache.insert(key_for(chunk), bytes, now, digest);
    EXPECT_TRUE(lease.has_value());
    auto dev = memory.bytes_mut(lease->dev_base, bytes);
    std::copy(image.begin(), image.end(), dev.begin());
    cache.unpin(lease->entry);
    return *lease;
  }
};

TEST(DurScrubTest, CleanPassChecksEverythingAndEvictsNothing) {
  ScrubFixture fx;
  fx.put_digested(0, 4096, 0x11);
  fx.put_digested(1, 4096, 0x22);
  fx.put_digested(2, 4096, 0x33);

  const ChunkCache::ScrubResult result = fx.cache.scrub(10, /*now=*/1);
  EXPECT_EQ(result.checked, 3u);
  EXPECT_EQ(result.evicted, 0u);
  EXPECT_EQ(fx.integrity.stats().scrubbed, 3u);
  EXPECT_EQ(fx.integrity.stats().scrub_evictions, 0u);
  EXPECT_EQ(fx.integrity.stats().verified_by_site[site(dur::Site::kScrub)],
            3u);
  EXPECT_EQ(fx.cache.entry_count(), 3u);
}

TEST(DurScrubTest, CorruptedEntryIsEvictedAndMissesAfterwards) {
  ScrubFixture fx;
  fx.put_digested(0, 4096, 0x11);
  const ChunkCache::Lease victim = fx.put_digested(1, 4096, 0x22);
  fx.memory.bytes_mut(victim.dev_base, 1)[0] ^= std::byte{0x01};

  const ChunkCache::ScrubResult result = fx.cache.scrub(10, /*now=*/1);
  EXPECT_EQ(result.checked, 2u);
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_EQ(fx.cache.stats().evictions, 1u);
  EXPECT_EQ(fx.integrity.stats().detected_by_site[site(dur::Site::kScrub)],
            1u);
  EXPECT_EQ(fx.integrity.stats().scrub_evictions, 1u);
  // The condemned entry misses (the engine would restage clean bytes); the
  // clean neighbour still hits.
  EXPECT_FALSE(fx.cache.lookup(key_for(1), 2).has_value());
  const auto hit = fx.cache.lookup(key_for(0), 2);
  ASSERT_TRUE(hit.has_value());
  fx.cache.unpin(hit->entry);
}

TEST(DurScrubTest, PinnedAndUndigestedEntriesAreSkipped) {
  ScrubFixture fx;
  // Still pinned: mid-DMA from the scrubber's point of view.
  const auto pinned = fx.cache.insert(key_for(0), 4096, 0, 123);
  ASSERT_TRUE(pinned.has_value());
  // No digest recorded (integrity was off when this image was inserted).
  const auto undigested = fx.cache.insert(key_for(1), 4096, 0);
  ASSERT_TRUE(undigested.has_value());
  fx.cache.unpin(undigested->entry);
  fx.put_digested(2, 4096, 0x33);

  const ChunkCache::ScrubResult result = fx.cache.scrub(10, /*now=*/1);
  EXPECT_EQ(result.checked, 1u);
  EXPECT_EQ(result.evicted, 0u);
  EXPECT_EQ(fx.cache.entry_count(), 3u);
  fx.cache.unpin(pinned->entry);
}

TEST(DurScrubTest, BudgetedCursorCoversAllEntriesAcrossPasses) {
  ScrubFixture fx;
  fx.put_digested(0, 4096, 0x11);
  fx.put_digested(1, 4096, 0x22);
  const ChunkCache::Lease victim = fx.put_digested(2, 4096, 0x33);
  fx.memory.bytes_mut(victim.dev_base, 1)[0] ^= std::byte{0x01};

  // One entry per pass: the round-robin cursor must still reach the
  // corrupted third entry, and exactly once.
  std::uint64_t evicted = 0;
  for (int pass = 0; pass < 3; ++pass) {
    evicted += fx.cache.scrub(1, /*now=*/pass).evicted;
  }
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(fx.integrity.stats().scrubbed, 3u);
  // The cursor wrapped: another full cycle revisits the survivors.
  fx.cache.scrub(1, /*now=*/4);
  EXPECT_EQ(fx.integrity.stats().scrubbed, 4u);
}

TEST(DurScrubTest, ScrubDetectsAnInjectedBitflip) {
  ScrubFixture fx;
  fault::FaultPlane plane(/*seed=*/1);
  plane.add_all(fault::FaultSpec::parse("bitflip_cache,nth=1"));
  fx.cache.set_fault(&plane, /*device=*/0);
  fx.put_digested(0, 4096, 0x11);

  // The scrub visit is itself a bitflip_cache injection point: the flip
  // fires, the digest catches it, and the eviction counts as recovery.
  const ChunkCache::ScrubResult result = fx.cache.scrub(10, /*now=*/1);
  EXPECT_EQ(result.checked, 1u);
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_EQ(plane.stats().injected, 1u);
  EXPECT_EQ(plane.stats().recovered, plane.stats().injected);
}

TEST(DurScrubTest, ScrubIsANoopWithoutIntegrity) {
  gpusim::DeviceMemory memory{1 << 20};
  ChunkCache cache(memory, ChunkCache::Config{64 << 10});
  const auto lease = cache.insert(key_for(0), 4096, 0, /*checksum=*/123);
  ASSERT_TRUE(lease.has_value());
  cache.unpin(lease->entry);

  const ChunkCache::ScrubResult result = cache.scrub(10, /*now=*/1);
  EXPECT_EQ(result.checked, 0u);
  EXPECT_EQ(result.evicted, 0u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

}  // namespace
}  // namespace bigk::cache
