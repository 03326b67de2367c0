// bigkcache: a device-resident chunk cache over the staging pipeline.
//
// The engine re-assembles and re-transfers the same chunk images on every
// launch, even when a repeat job of the same app lands on a device whose
// arena still holds them. The chunk cache carves a partition out of the
// device arena and retains assembled ring-slot contents after their chunk
// retires, keyed by (dataset, stream, chunk range, layout, pattern
// signature); on a hit the assembly and DMA stages are skipped and the
// compute stage reads the cached device range directly.
//
// Protocol:
//   * lookup() pins the entry on a hit; the engine unpins at slot release,
//     so an entry backing an in-flight chunk can never be evicted.
//   * On a miss the engine assembles as usual, then insert() allocates an
//     entry (evicting under pressure, see Eviction) and the H2D DMA targets the
//     entry's device range directly — no device-to-device copy; the entry is
//     born pinned and the engine unpins it at slot release.
//   * invalidate_dataset() / invalidate_entry() drop entries whose source
//     bytes mutated; a still-pinned entry turns zombie (removed from the
//     index immediately, storage reclaimed at the last unpin) and the
//     pipeline checker is told so a read after the invalidation is flagged
//     as stale_cache_read.
//
// Eviction is cost-aware with admission control: a resident entry is only
// evictable for a new, unproven image after it has gone Config::stale_ticks
// of cache traffic without a use; among stale entries the one with the least
// accumulated PCIe savings (hits x bytes) goes first, then the oldest. This
// makes the cache scan-resistant: a sequential chunk scan bigger than the
// partition keeps a stable resident prefix that serves every later pass,
// instead of the LRU pathology of evicting each chunk moments before its
// reuse.
//
// Everything is deterministic: ordered containers, monotonic entry ids, and
// a recency tick instead of wall clocks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "cache/key.hpp"
#include "check/pipecheck.hpp"
#include "dur/integrity.hpp"
#include "fault/fault.hpp"
#include "gpusim/device_memory.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/time.hpp"

namespace bigk::cache {

class ChunkCache {
 public:
  struct Config {
    /// Partition carved from the device arena at construction.
    std::uint64_t capacity_bytes = 0;
    /// Admission window: a resident entry is evictable for a new, unproven
    /// image only after it has gone this many ticks of cache traffic
    /// (lookups + insertions) without a use. 0 = pure cost ranking: every
    /// unpinned entry not used at the current tick is evictable.
    std::uint64_t stale_ticks = 256;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t insert_failures = 0;  // no unpinned victim / oversized
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    /// PCIe H2D bytes avoided by hits (the assembled image per hit).
    std::uint64_t bytes_saved = 0;
  };

  /// Result of lookup()/insert(): a pinned device range the engine may DMA
  /// into (insert) or read directly (hit). `entry` feeds unpin().
  struct Lease {
    std::uint64_t entry = 0;
    std::uint64_t dev_base = 0;  // absolute device offset
    std::uint64_t bytes = 0;
  };

  /// Reserves the partition from `memory`; throws gpusim::OutOfDeviceMemory
  /// when the arena cannot spare `config.capacity_bytes`.
  ChunkCache(gpusim::DeviceMemory& memory, Config config);
  ~ChunkCache();

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// Registers the live counters (`cache.<name>.hits` etc.) and the
  /// per-device trace track ("<name> cache" process: hit/insert/evict
  /// instants plus a resident-bytes counter series). Both sinks optional.
  void attach_observability(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                            const std::string& name);

  /// Pipeline checker notified of invalidations/evictions (so it can prove
  /// a cached read is never stale). The engine installs it per launch;
  /// nullptr detaches.
  void set_checker(check::PipelineChecker* checker) noexcept {
    checker_ = checker;
  }

  /// bigkdur integrity plane (externally owned; nullptr = integrity off).
  /// With integrity on, a lookup hit on a quiescent (unpinned) entry first
  /// re-digests the entry's device bytes against the checksum recorded at
  /// insert; a mismatch invalidates the entry and the lookup misses, so the
  /// engine re-assembles and re-transfers clean bytes. Entries still pinned
  /// by an in-flight chunk are skipped — their bytes are covered by the
  /// owner's post-DMA verification.
  void set_integrity(dur::Integrity* integrity) noexcept {
    integrity_ = integrity;
  }

  /// Fault plane + device id for the fault.bitflip_cache injection point:
  /// resident entry bytes are flipped at lookup-hit / scrub-visit time.
  void set_fault(fault::FaultPlane* fault, std::uint32_t device) noexcept {
    fault_ = fault;
    device_ = device;
  }

  /// Hit: pins the entry and returns its lease. Miss: counts it and returns
  /// nullopt (the caller assembles, then offers the image via insert()).
  std::optional<Lease> lookup(const CacheKey& key, sim::TimePs now);

  /// Allocates a pinned entry of `bytes` for `key`, evicting stale unpinned
  /// entries under pressure. Returns nullopt when the image
  /// cannot fit (oversized, or everything else is pinned); the caller then
  /// falls back to the ring slot's own buffer. `checksum` is the bigkdur
  /// digest of the image about to be DMA'd into the entry (0 = integrity
  /// off; hits and scrubs skip verification).
  std::optional<Lease> insert(const CacheKey& key, std::uint64_t bytes,
                              sim::TimePs now, std::uint64_t checksum = 0);

  struct ScrubResult {
    std::uint64_t checked = 0;
    std::uint64_t evicted = 0;
  };

  /// bigkdur cache scrub: re-verifies up to `max_entries` quiescent resident
  /// entries (round-robin cursor across calls) against their insert-time
  /// checksums and evicts mismatches, notifying the pipeline checker so a
  /// later read through a surviving lease is flagged as scrubbed_entry_read.
  /// No-op with integrity off.
  ScrubResult scrub(std::uint64_t max_entries, sim::TimePs now);

  /// Releases the pin taken by lookup()/insert(). A zombie entry (one
  /// invalidated while pinned) is reclaimed at its last unpin.
  void unpin(std::uint64_t entry);

  /// Drops every entry of `dataset` (input mutated in place).
  void invalidate_dataset(std::uint64_t dataset, sim::TimePs now);
  /// Drops one entry by id (arena reclaim, fault injection); no-op when the
  /// id is unknown or already invalidated.
  void invalidate_entry(std::uint64_t entry, sim::TimePs now);
  /// Drops every entry. With `device_reset` (serve quarantining the device
  /// after a fault) the checker is told on_cache_device_reset instead of a
  /// plain invalidation, so a read through a surviving lease is flagged as
  /// read_after_device_reset; subsequent lookups miss and restage.
  void invalidate_all(sim::TimePs now, bool device_reset = false);

  /// Live bytes cached for `dataset` — the scheduler's warm-benefit
  /// estimate (what an affinity hit would actually save on PCIe).
  std::uint64_t resident_bytes(std::uint64_t dataset) const;

  const Stats& stats() const noexcept { return stats_; }
  std::uint64_t capacity_bytes() const noexcept { return capacity_; }
  std::uint64_t bytes_used() const noexcept { return used_; }
  std::uint64_t entry_count() const noexcept { return entries_.size(); }
  double hit_rate() const noexcept {
    const std::uint64_t total = stats_.hits + stats_.misses;
    return total == 0 ? 0.0 : static_cast<double>(stats_.hits) /
                                  static_cast<double>(total);
  }

 private:
  struct Entry {
    CacheKey key;
    std::uint64_t offset = 0;  // absolute device offset
    std::uint64_t bytes = 0;
    std::uint32_t pins = 0;
    bool zombie = false;  // invalidated while pinned
    std::uint64_t hits = 0;
    std::uint64_t saved_bytes = 0;  // accumulated PCIe savings
    std::uint64_t last_use = 0;     // recency tick
    std::uint64_t checksum = 0;     // bigkdur insert-time digest (0 = off)
  };

  /// First-fit from the partition free list (256-byte aligned, neighbours
  /// coalesced on free — the same discipline as the arena allocator).
  std::optional<std::uint64_t> allocate(std::uint64_t bytes);
  void free_range(std::uint64_t offset, std::uint64_t bytes);

  void invalidate_entry_impl(std::uint64_t entry, sim::TimePs now,
                             bool device_reset);

  /// fault.bitflip_cache trial: flips one device byte of `entry`.
  void maybe_corrupt(const Entry& entry, sim::TimePs now);
  /// Re-digests the entry's device bytes against its insert-time checksum.
  bool verify_entry(const Entry& entry) const;

  /// Eviction victim among unpinned, stale live entries; entries_.end()
  /// when there is none.
  std::map<std::uint64_t, Entry>::iterator pick_victim();
  void evict(std::map<std::uint64_t, Entry>::iterator victim,
             sim::TimePs now);
  void reclaim(Entry& entry);
  void trace_instant(const char* name, sim::TimePs now);
  void trace_usage(sim::TimePs now);

  gpusim::DeviceMemory& memory_;
  Config config_;
  std::uint64_t capacity_ = 0;
  std::uint64_t partition_base_ = 0;
  std::uint64_t used_ = 0;
  std::uint64_t next_entry_ = 1;
  std::uint64_t tick_ = 0;

  std::map<CacheKey, std::uint64_t> index_;     // key -> entry id
  std::map<std::uint64_t, Entry> entries_;      // entry id -> entry
  std::map<std::uint64_t, std::uint64_t> free_;  // offset -> size

  Stats stats_;
  check::PipelineChecker* checker_ = nullptr;
  dur::Integrity* integrity_ = nullptr;  // externally owned, optional
  fault::FaultPlane* fault_ = nullptr;   // externally owned, optional
  std::uint32_t device_ = 0;
  std::uint64_t scrub_cursor_ = 0;  // next entry id the scrubber visits
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  obs::TrackId trace_events_{};
  obs::Counter* ctr_hits_ = nullptr;
  obs::Counter* ctr_misses_ = nullptr;
  obs::Counter* ctr_evictions_ = nullptr;
  obs::Counter* ctr_bytes_saved_ = nullptr;
  obs::Counter* ctr_insertions_ = nullptr;
  obs::Counter* ctr_insert_failures_ = nullptr;
  obs::Counter* ctr_invalidations_ = nullptr;
};

}  // namespace bigk::cache
