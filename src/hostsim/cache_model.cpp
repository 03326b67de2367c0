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
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
  std::uint64_t sets =
      std::max<std::uint64_t>(1, capacity_bytes / line_bytes / ways);
  sets = std::bit_floor(sets);  // power of two for cheap indexing
  set_mask_ = sets - 1;
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
  lines_.resize(sets * ways_);
}

bool CacheModel::access_set(std::uint64_t line) {
  const std::uint64_t set = line & set_mask_;
  const std::uint64_t tag = line >> set_shift_;
  Way* base = &lines_[set * ways_];
  ++tick_;
  last_line_ = line;
  has_last_ = true;

  // The victim stays a pointer here: a pointer alone is one conditional
  // move per way, where an index compiles to an unpredictable branch.
  Way* victim = base;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w].tag == tag && base[w].last_use != 0) {
      base[w].last_use = tick_;
      last_way_ = set * ways_ + w;
      ++hits_;
      return true;
    }
    if (base[w].last_use < victim->last_use) victim = &base[w];
  }
  victim->tag = tag;
  victim->last_use = tick_;
  last_way_ = static_cast<std::size_t>(victim - lines_.data());
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
  std::fill(lines_.begin(), lines_.end(), Way{});
  has_last_ = false;
  tick_ = hits_ = misses_ = 0;
}

}  // namespace bigk::hostsim
