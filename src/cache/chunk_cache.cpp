#include "cache/chunk_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/hash.hpp"

namespace bigk::cache {

namespace {
constexpr std::uint64_t kAlign = 256;  // match the arena allocator

constexpr std::uint64_t align_up(std::uint64_t bytes) {
  return (bytes + kAlign - 1) / kAlign * kAlign;
}
}  // namespace

ChunkCache::ChunkCache(gpusim::DeviceMemory& memory, Config config)
    : memory_(memory), config_(config), capacity_(config.capacity_bytes) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ChunkCache needs a non-zero capacity");
  }
  partition_base_ = memory_.allocate_bytes(capacity_);
  free_[partition_base_] = capacity_;
}

ChunkCache::~ChunkCache() { memory_.free_offset(partition_base_); }

void ChunkCache::attach_observability(obs::MetricsRegistry* metrics,
                                      obs::Tracer* tracer,
                                      const std::string& name) {
  if (metrics != nullptr) {
    ctr_hits_ = &metrics->counter("cache." + name + ".hits");
    ctr_misses_ = &metrics->counter("cache." + name + ".misses");
    ctr_evictions_ = &metrics->counter("cache." + name + ".evictions");
    ctr_bytes_saved_ = &metrics->counter("cache." + name + ".bytes_saved");
    ctr_insertions_ = &metrics->counter("cache." + name + ".insertions");
    ctr_insert_failures_ =
        &metrics->counter("cache." + name + ".insert_failures");
    ctr_invalidations_ =
        &metrics->counter("cache." + name + ".invalidations");
  }
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    trace_pid_ = tracer_->process(name + " cache");
    trace_events_ = tracer_->thread(trace_pid_, "events");
  }
}

std::optional<ChunkCache::Lease> ChunkCache::lookup(const CacheKey& key,
                                                    sim::TimePs now) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++tick_;  // misses advance the aging clock: dead entries go stale
    ++stats_.misses;
    if (ctr_misses_ != nullptr) ctr_misses_->add();
    return std::nullopt;
  }
  Entry& entry = entries_.at(it->second);
  if (entry.pins == 0) {
    // Quiescent entry: the bitflip_cache injection point, then the bigkdur
    // re-verification. (A pinned entry may still be mid-DMA — its bytes are
    // covered by the inserting chunk's post-DMA verification instead.)
    maybe_corrupt(entry, now);
    if (integrity_ != nullptr && entry.checksum != 0 &&
        !verify_entry(entry)) {
      integrity_->note_detected(dur::Site::kCache, device_, now);
      if (fault_ != nullptr) {
        // Invalidate-and-miss is the recovery: the engine re-assembles and
        // re-transfers the chunk, landing clean bytes.
        fault_->on_recovered(fault::FaultKind::kBitflipCache);
      }
      const std::uint64_t id = it->second;
      invalidate_entry(id, now);
      ++tick_;
      ++stats_.misses;
      if (ctr_misses_ != nullptr) ctr_misses_->add();
      return std::nullopt;
    }
    if (integrity_ != nullptr && entry.checksum != 0) {
      integrity_->note_verified(dur::Site::kCache);
    }
  }
  ++entry.pins;
  ++entry.hits;
  entry.saved_bytes += entry.bytes;
  entry.last_use = ++tick_;
  ++stats_.hits;
  stats_.bytes_saved += entry.bytes;
  if (ctr_hits_ != nullptr) ctr_hits_->add();
  if (ctr_bytes_saved_ != nullptr) ctr_bytes_saved_->add(entry.bytes);
  trace_instant("cache hit", now);
  return Lease{it->second, entry.offset, entry.bytes};
}

std::optional<ChunkCache::Lease> ChunkCache::insert(const CacheKey& key,
                                                    std::uint64_t bytes,
                                                    sim::TimePs now,
                                                    std::uint64_t checksum) {
  if (bytes == 0 || align_up(bytes) > capacity_) {
    ++stats_.insert_failures;
    if (ctr_insert_failures_ != nullptr) ctr_insert_failures_->add();
    return std::nullopt;
  }
  // A re-insert under an existing key replaces the old image (its bytes may
  // differ when the dataset owner forgot to invalidate — the fresh image is
  // the correct one either way).
  if (const auto existing = index_.find(key); existing != index_.end()) {
    invalidate_entry(existing->second, now);
  }
  std::optional<std::uint64_t> offset = allocate(bytes);
  while (!offset.has_value()) {
    const auto victim = pick_victim();
    if (victim == entries_.end()) {
      ++stats_.insert_failures;
      if (ctr_insert_failures_ != nullptr) ctr_insert_failures_->add();
      return std::nullopt;
    }
    evict(victim, now);
    offset = allocate(bytes);
  }
  const std::uint64_t id = next_entry_++;
  Entry entry;
  entry.key = key;
  entry.offset = *offset;
  entry.bytes = bytes;
  entry.pins = 1;  // born pinned; the engine unpins at slot release
  entry.last_use = ++tick_;
  entry.checksum = checksum;
  entries_.emplace(id, entry);
  index_[key] = id;
  ++stats_.insertions;
  if (ctr_insertions_ != nullptr) ctr_insertions_->add();
  trace_instant("cache insert", now);
  trace_usage(now);
  return Lease{id, *offset, bytes};
}

void ChunkCache::unpin(std::uint64_t entry_id) {
  const auto it = entries_.find(entry_id);
  if (it == entries_.end() || it->second.pins == 0) return;
  Entry& entry = it->second;
  --entry.pins;
  if (entry.zombie && entry.pins == 0) {
    reclaim(entry);
    entries_.erase(it);
  }
}

void ChunkCache::invalidate_dataset(std::uint64_t dataset, sim::TimePs now) {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, entry] : entries_) {
    if (entry.key.dataset == dataset && !entry.zombie) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) invalidate_entry(id, now);
}

void ChunkCache::invalidate_all(sim::TimePs now, bool device_reset) {
  std::vector<std::uint64_t> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    if (!entry.zombie) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    invalidate_entry_impl(id, now, device_reset);
  }
}

void ChunkCache::invalidate_entry(std::uint64_t entry_id, sim::TimePs now) {
  invalidate_entry_impl(entry_id, now, /*device_reset=*/false);
}

void ChunkCache::invalidate_entry_impl(std::uint64_t entry_id, sim::TimePs now,
                                       bool device_reset) {
  const auto it = entries_.find(entry_id);
  if (it == entries_.end() || it->second.zombie) return;
  Entry& entry = it->second;
  index_.erase(entry.key);
  ++stats_.invalidations;
  if (ctr_invalidations_ != nullptr) ctr_invalidations_->add();
  if (checker_ != nullptr) {
    if (device_reset) {
      checker_->on_cache_device_reset(entry_id);
    } else {
      checker_->on_cache_invalidate(entry_id);
    }
  }
  trace_instant(device_reset ? "cache device reset" : "cache invalidate", now);
  if (entry.pins > 0) {
    // Still backing an in-flight chunk: drop it from the index now, reclaim
    // the storage at the last unpin. The checker flags any read after this
    // point as stale_cache_read.
    entry.zombie = true;
    return;
  }
  reclaim(entry);
  entries_.erase(it);
  trace_usage(now);
}

void ChunkCache::maybe_corrupt(const Entry& entry, sim::TimePs now) {
  if (fault_ == nullptr || entry.bytes == 0 ||
      !fault_->should_inject(fault::FaultKind::kBitflipCache, device_, now)) {
    return;
  }
  auto span = memory_.bytes_mut(entry.offset, entry.bytes);
  span[entry.bytes / 2] ^= std::byte{0x01};
}

bool ChunkCache::verify_entry(const Entry& entry) const {
  return sim::digest_bytes(memory_.bytes(entry.offset, entry.bytes)) ==
         entry.checksum;
}

ChunkCache::ScrubResult ChunkCache::scrub(std::uint64_t max_entries,
                                          sim::TimePs now) {
  ScrubResult result;
  if (integrity_ == nullptr || max_entries == 0 || entries_.empty()) {
    return result;
  }
  // Budgeted round-robin: resume from the cursor, wrap once, never visit an
  // entry twice per pass.
  std::vector<std::uint64_t> ids;
  ids.reserve(std::min<std::size_t>(max_entries, entries_.size()));
  for (auto it = entries_.lower_bound(scrub_cursor_);
       it != entries_.end() && ids.size() < max_entries; ++it) {
    ids.push_back(it->first);
  }
  for (auto it = entries_.begin();
       it != entries_.end() && ids.size() < max_entries &&
       it->first < scrub_cursor_;
       ++it) {
    ids.push_back(it->first);
  }
  if (!ids.empty()) scrub_cursor_ = ids.back() + 1;
  for (const std::uint64_t id : ids) {
    const auto it = entries_.find(id);
    if (it == entries_.end()) continue;
    Entry& entry = it->second;
    // Pinned entries may be mid-DMA (covered by their owner's post-DMA
    // verification); zombies are already condemned.
    if (entry.pins > 0 || entry.zombie || entry.checksum == 0) continue;
    ++result.checked;
    maybe_corrupt(entry, now);
    if (verify_entry(entry)) {
      integrity_->note_verified(dur::Site::kScrub);
      continue;
    }
    integrity_->note_detected(dur::Site::kScrub, device_, now);
    if (fault_ != nullptr) {
      // Evict-on-mismatch is the recovery: the next lookup misses and the
      // engine restages clean bytes.
      fault_->on_recovered(fault::FaultKind::kBitflipCache);
    }
    index_.erase(entry.key);
    if (checker_ != nullptr) checker_->on_cache_scrub_evict(id);
    reclaim(entry);
    ++stats_.evictions;
    if (ctr_evictions_ != nullptr) ctr_evictions_->add();
    trace_instant("cache scrub evict", now);
    entries_.erase(it);
    trace_usage(now);
    ++result.evicted;
  }
  integrity_->note_scrub(result.checked, result.evicted);
  return result;
}

std::uint64_t ChunkCache::resident_bytes(std::uint64_t dataset) const {
  std::uint64_t total = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.key.dataset == dataset && !entry.zombie) total += entry.bytes;
  }
  return total;
}

std::optional<std::uint64_t> ChunkCache::allocate(std::uint64_t bytes) {
  const std::uint64_t need = align_up(bytes);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < need) continue;
    const std::uint64_t offset = it->first;
    const std::uint64_t remaining = it->second - need;
    free_.erase(it);
    if (remaining > 0) free_[offset + need] = remaining;
    used_ += need;
    return offset;
  }
  return std::nullopt;
}

void ChunkCache::free_range(std::uint64_t offset, std::uint64_t bytes) {
  std::uint64_t size = align_up(bytes);
  used_ -= size;
  auto next = free_.upper_bound(offset);
  if (next != free_.end() && offset + size == next->first) {
    size += next->second;
    next = free_.erase(next);
  }
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      prev->second += size;
      return;
    }
  }
  free_[offset] = size;
}

std::map<std::uint64_t, ChunkCache::Entry>::iterator
ChunkCache::pick_victim() {
  auto best = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const Entry& entry = it->second;
    if (entry.pins > 0 || entry.zombie) continue;
    if (tick_ - entry.last_use <= config_.stale_ticks) {
      // Admission control: a new, unproven image may not displace an entry
      // that is still earning its seat. Without this, a chunk scan larger
      // than the partition churns every slot and evicts each image moments
      // before its reuse (0 hits forever); with it, the first images to
      // arrive stay resident and serve every later pass, and only entries
      // that go `stale_ticks` of cache traffic without a use yield their
      // space to new candidates.
      continue;
    }
    if (best == entries_.end()) {
      best = it;
      continue;
    }
    // Among stale entries: least accumulated PCIe savings first — an entry
    // that served hits proved its worth and outlives one that never did —
    // then oldest last use.
    const Entry& leader = best->second;
    if (entry.saved_bytes < leader.saved_bytes ||
        (entry.saved_bytes == leader.saved_bytes &&
         entry.last_use < leader.last_use)) {
      best = it;
    }
  }
  return best;
}

void ChunkCache::evict(std::map<std::uint64_t, Entry>::iterator victim,
                       sim::TimePs now) {
  Entry& entry = victim->second;
  index_.erase(entry.key);
  if (checker_ != nullptr) checker_->on_cache_evict(victim->first);
  reclaim(entry);
  ++stats_.evictions;
  if (ctr_evictions_ != nullptr) ctr_evictions_->add();
  trace_instant("cache evict", now);
  entries_.erase(victim);
  trace_usage(now);
}

void ChunkCache::reclaim(Entry& entry) {
  free_range(entry.offset, entry.bytes);
}

void ChunkCache::trace_instant(const char* name, sim::TimePs now) {
  if (tracer_ != nullptr) tracer_->instant(trace_events_, name, now, "cache");
}

void ChunkCache::trace_usage(sim::TimePs now) {
  if (tracer_ != nullptr) {
    tracer_->counter_set(trace_pid_, "resident bytes", now,
                         static_cast<double>(used_));
  }
}

}  // namespace bigk::cache
