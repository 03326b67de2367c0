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

std::uint64_t DeviceMemory::allocate_bytes(std::uint64_t bytes) {
  const std::uint64_t requested = bytes == 0 ? 1 : bytes;
  const std::uint64_t size = FreeList::aligned(requested);
  const std::optional<std::uint64_t> offset = free_list_.allocate(size);
  if (!offset.has_value()) throw OutOfDeviceMemory(size, arena_.size());
  live_allocs_[*offset] = size;
  if (observer_ != nullptr) observer_->on_alloc(*offset, requested, size);
  return *offset;
}

void DeviceMemory::free_offset(std::uint64_t offset) {
  auto alloc = live_allocs_.find(offset);
  if (alloc == live_allocs_.end()) {
    // Diagnose instead of corrupting the free list: an offset inside a free
    // block is a double free (or a free of never-allocated space); the
    // interior of a live allocation or a point past the arena is a foreign
    // offset.
    if (free_list_.is_free(offset)) {
      if (observer_ != nullptr) {
        observer_->on_bad_free(offset, /*is_double_free=*/true);
      }
      throw DoubleFree("double free of device offset " +
                       std::to_string(offset) +
                       ": lies in free space (already freed or never "
                       "allocated)");
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
  const std::uint64_t size = alloc->second;
  if (observer_ != nullptr) observer_->on_free(offset, size);
  live_allocs_.erase(alloc);
  free_list_.release(offset, size);
}

}  // namespace bigk::gpusim
