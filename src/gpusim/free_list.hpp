// First-fit free list over one address range: blocks are 256-byte aligned,
// like cudaMalloc's, and a released block merges with its free neighbours.
// The device arena (DeviceMemory) and each chunk-cache partition allocate
// from one; each keeps its own failure handling on top.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>

namespace bigk::gpusim {

class FreeList {
 public:
  static constexpr std::uint64_t kAlignment = 256;

  /// `bytes` rounded up to the block alignment.
  static constexpr std::uint64_t aligned(std::uint64_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

  FreeList() = default;
  /// The range [base, base + size), all free.
  FreeList(std::uint64_t base, std::uint64_t size) { free_[base] = size; }

  /// Takes the lowest free block of aligned(bytes) or more and returns its
  /// offset; std::nullopt when no free block is large enough.
  std::optional<std::uint64_t> allocate(std::uint64_t bytes) {
    const std::uint64_t size = aligned(bytes);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      const auto [offset, block_size] = *it;
      if (block_size < size) continue;
      free_.erase(it);
      if (block_size > size) free_[offset + size] = block_size - size;
      used_ += size;
      return offset;
    }
    return std::nullopt;
  }

  /// Returns the block of aligned(bytes) at `offset`, which allocate()
  /// handed out, merging it with the free blocks on either side.
  void release(std::uint64_t offset, std::uint64_t bytes) {
    std::uint64_t size = aligned(bytes);
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

  /// `offset` lies inside a free block.
  bool is_free(std::uint64_t offset) const {
    const auto after = free_.upper_bound(offset);
    if (after == free_.begin()) return false;
    const auto& [base, size] = *std::prev(after);
    return offset < base + size;
  }

  /// Bytes in allocated blocks, alignment padding included.
  std::uint64_t used() const noexcept { return used_; }

 private:
  std::map<std::uint64_t, std::uint64_t> free_;  // offset -> size
  std::uint64_t used_ = 0;
};

}  // namespace bigk::gpusim
