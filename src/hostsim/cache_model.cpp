#include "hostsim/cache_model.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace bigk::hostsim {

CacheModel::CacheModel(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
                       std::uint32_t ways)
    : line_bytes_(line_bytes), ways_(ways) {
  if (!std::has_single_bit(line_bytes)) {
    throw std::invalid_argument(
        "cpu.cache_line_bytes must be a power of two, got " +
        std::to_string(line_bytes));
  }
  if (ways == 0) {
    throw std::invalid_argument("cpu.cache_ways must be > 0");
  }
  if (capacity_bytes / line_bytes < ways) {
    throw std::invalid_argument(
        "cpu.llc_bytes gives this thread a " + std::to_string(capacity_bytes) +
        "-byte cache share, fewer than cpu.cache_ways = " +
        std::to_string(ways) + " lines of cpu.cache_line_bytes = " +
        std::to_string(line_bytes) + " bytes");
  }
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
  // A power of two for cheap indexing.
  const std::uint64_t sets = std::bit_floor(capacity_bytes / line_bytes / ways);
  set_mask_ = sets - 1;
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
  tags_ = std::make_unique_for_overwrite<std::uint64_t[]>(sets * ways_);
  fill_.assign(sets, 0);
}

CacheModel::CacheModel(const CacheModel& other)
    : line_bytes_(other.line_bytes_),
      line_shift_(other.line_shift_),
      ways_(other.ways_),
      set_mask_(other.set_mask_),
      set_shift_(other.set_shift_),
      tags_(std::make_unique_for_overwrite<std::uint64_t[]>(other.fill_.size() *
                                                            other.ways_)),
      fill_(other.fill_),
      last_line_(other.last_line_),
      has_last_(other.has_last_),
      hits_(other.hits_),
      misses_(other.misses_) {
  for (std::size_t set = 0; set < fill_.size(); ++set) {
    const std::uint64_t* from = &other.tags_[set * ways_];
    std::copy(from, from + fill_[set], &tags_[set * ways_]);
  }
}

CacheModel& CacheModel::operator=(const CacheModel& other) {
  if (this != &other) *this = CacheModel(other);
  return *this;
}

bool CacheModel::access_set(std::uint64_t line) {
  const std::uint64_t set = line & set_mask_;
  const std::uint64_t tag = line >> set_shift_;
  std::uint64_t* base = &tags_[set * ways_];
  std::uint32_t& fill = fill_[set];
  last_line_ = line;
  has_last_ = true;

  // One pass rotates the set: each slot takes the tag before it, until the
  // slot that held `tag` takes the one before it and `tag` is at the front.
  std::uint64_t carry = tag;
  for (std::uint32_t w = 0; w < fill; ++w) {
    const std::uint64_t resident = base[w];
    base[w] = carry;
    if (resident == tag) {
      ++hits_;
      return true;
    }
    carry = resident;
  }
  // A miss: every tag moved back one slot, and `carry` is the least recent
  // one, which a full set drops.
  if (fill < ways_) base[fill++] = carry;
  ++misses_;
  return false;
}

namespace detail {
static_assert(kRegionIdBits == 20, "the message below names the limit");
void throw_region_id_overflow(std::uint32_t region_id) {
  throw std::out_of_range("host cache region id " + std::to_string(region_id) +
                          " is not below the logical-address limit 2^20");
}
}  // namespace detail

void CacheModel::reset() {
  std::fill(fill_.begin(), fill_.end(), 0);
  has_last_ = false;
  hits_ = misses_ = 0;
}

}  // namespace bigk::hostsim
