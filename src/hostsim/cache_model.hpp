// Set-associative LRU cache model for the simulated CPU's last-level cache.
//
// The data-assembly stage of BigKernel is a gather loop whose cost is
// dominated by whether source reads hit in cache (§IV.B, Fig. 6); this model
// makes that effect measurable. Addresses are *logical* (region id in the
// high bits, offset in the low bits) so behaviour is independent of host
// ASLR and runs are reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace bigk::hostsim {

/// A logical address keeps the low 44 bits of the offset and, above them,
/// this many bits of the region id.
constexpr std::uint32_t kRegionIdBits = 20;
/// One past the largest region id logical_address can encode.
constexpr std::uint32_t kRegionIdLimit = std::uint32_t{1} << kRegionIdBits;

namespace detail {
[[noreturn, gnu::cold, gnu::noinline]] void throw_region_id_overflow(
    std::uint32_t region_id);
}  // namespace detail

/// Throws std::out_of_range, naming kRegionIdLimit, for a region id that
/// logical_address cannot encode: a wider id would alias another region's
/// lines.
constexpr void check_region_id(std::uint32_t region_id) {
  if (region_id >= kRegionIdLimit) [[unlikely]] {
    detail::throw_region_id_overflow(region_id);
  }
}

/// Builds a deterministic logical address from a registered region id and a
/// byte offset within that region; the id must pass check_region_id.
constexpr std::uint64_t logical_address(std::uint32_t region_id,
                                        std::uint64_t offset) {
  check_region_id(region_id);
  return (std::uint64_t{region_id} << 44) | (offset & ((1ull << 44) - 1));
}

/// Each set keeps its resident tags most recent first, in one 8-byte slot per
/// way, and counts how many slots it has filled. A hit rotates its tag to
/// the front; a miss inserts at the front and, in a full set, drops the last
/// (least recent) tag. The resident lines are those of a set scan that takes
/// an empty way first and otherwise evicts the least recently used one, so
/// the hits and misses are the same. A slot at or past its set's fill count
/// is never read, and the slots start uninitialised, so a page of slots is
/// faulted in only when a set on it first takes a tag.
class CacheModel {
 public:
  /// `capacity_bytes` is rounded down to a power-of-two set count. Throws
  /// std::invalid_argument unless `line_bytes` is a power of two, `ways` is
  /// nonzero and `capacity_bytes` holds at least `ways` lines.
  CacheModel(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
             std::uint32_t ways);
  /// Copies each set's filled slots only.
  CacheModel(const CacheModel& other);
  CacheModel& operator=(const CacheModel& other);
  CacheModel(CacheModel&&) noexcept = default;
  CacheModel& operator=(CacheModel&&) noexcept = default;

  /// Touches the line containing `logical_addr`; returns true on hit.
  bool access(std::uint64_t logical_addr) {
    // A repeat of the last line touched: that line is still at the front of
    // its set, so this is the hit the set scan would find, and it moves
    // nothing.
    const std::uint64_t line = logical_addr >> line_shift_;
    if (line == last_line_ && has_last_) {
      ++hits_;
      return true;
    }
    return access_set(line);
  }

  /// Empties every set; the slots keep their bytes but are no longer read.
  void reset();

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint32_t line_bytes() const noexcept { return line_bytes_; }
  /// log2(line_bytes()): a line index is `logical_addr >> line_shift()`.
  std::uint32_t line_shift() const noexcept { return line_shift_; }
  std::uint64_t sets() const noexcept { return set_mask_ + 1; }

 private:
  std::uint32_t line_bytes_;
  std::uint32_t line_shift_;
  std::uint32_t ways_;
  std::uint64_t set_mask_;
  std::uint32_t set_shift_;  // log2(sets()): a tag is `line >> set_shift_`
  /// The move-to-front scan behind access().
  bool access_set(std::uint64_t line);

  /// sets * ways tag slots, row-major by set, most recent first; only the
  /// first fill_[set] slots of a set hold tags.
  std::unique_ptr<std::uint64_t[]> tags_;
  std::vector<std::uint32_t> fill_;  // filled slots per set, at most ways
  // The last line touched, at the front of its set while has_last_ holds.
  std::uint64_t last_line_ = 0;
  bool has_last_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bigk::hostsim
