#include "gpusim/device_memory.hpp"

namespace bigk::gpusim {

namespace detail {

void throw_null_arithmetic() {
  throw std::logic_error("DevicePtr arithmetic on a null device pointer");
}

void throw_address_overflow(std::uint64_t base, std::uint64_t elements,
                            std::uint64_t element_bytes) {
  throw std::overflow_error(
      "DevicePtr arithmetic overflows the device address space: base " +
      std::to_string(base) + " + " + std::to_string(elements) +
      " elements of " + std::to_string(element_bytes) + " bytes");
}

void throw_out_of_bounds(std::uint64_t offset, std::uint64_t n) {
  throw std::out_of_range("device memory access out of bounds: offset " +
                          std::to_string(offset) + " size " +
                          std::to_string(n));
}

}  // namespace detail

namespace {
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}
}  // namespace

std::uint64_t DeviceMemory::allocate_bytes(std::uint64_t bytes) {
  const std::uint64_t requested = bytes == 0 ? 1 : bytes;
  const std::uint64_t size = align_up(requested, kAlignment);
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    const auto [offset, block_size] = *it;
    if (block_size < size) continue;
    free_blocks_.erase(it);
    if (block_size > size) {
      free_blocks_[offset + size] = block_size - size;
    }
    live_allocs_[offset] = size;
    used_ += size;
    if (observer_ != nullptr) observer_->on_alloc(offset, requested, size);
    return offset;
  }
  throw OutOfDeviceMemory(size, arena_.size());
}

void DeviceMemory::free_offset(std::uint64_t offset) {
  auto alloc = live_allocs_.find(offset);
  if (alloc == live_allocs_.end()) {
    // Diagnose instead of corrupting the free list: an offset inside a free
    // block is a double free (or a free of never-allocated space); the
    // interior of a live allocation or a point past the arena is a foreign
    // offset.
    auto after = free_blocks_.upper_bound(offset);
    if (after != free_blocks_.begin()) {
      const auto& [free_base, free_size] = *std::prev(after);
      if (offset >= free_base && offset < free_base + free_size) {
        if (observer_ != nullptr) {
          observer_->on_bad_free(offset, /*is_double_free=*/true);
        }
        throw DoubleFree("double free of device offset " +
                         std::to_string(offset) +
                         ": lies in free space (already freed or never "
                         "allocated)");
      }
    }
    if (observer_ != nullptr) {
      observer_->on_bad_free(offset, /*is_double_free=*/false);
    }
    auto owner = live_allocs_.upper_bound(offset);
    if (owner != live_allocs_.begin()) {
      const auto& [base, size] = *std::prev(owner);
      if (offset > base && offset < base + size) {
        throw InvalidFree("free of device offset " + std::to_string(offset) +
                          ": interior of the live allocation at base " +
                          std::to_string(base) + " (size " +
                          std::to_string(size) + ")");
      }
    }
    throw InvalidFree("free of device offset " + std::to_string(offset) +
                      ": not an allocation base");
  }
  std::uint64_t size = alloc->second;
  if (observer_ != nullptr) observer_->on_free(offset, size);
  live_allocs_.erase(alloc);
  used_ -= size;

  // Coalesce with the following free block.
  auto next = free_blocks_.lower_bound(offset);
  if (next != free_blocks_.end() && offset + size == next->first) {
    size += next->second;
    next = free_blocks_.erase(next);
  }
  // Coalesce with the preceding free block.
  if (next != free_blocks_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      prev->second += size;
      return;
    }
  }
  free_blocks_[offset] = size;
}

}  // namespace bigk::gpusim
