// Simulated GPU global memory: a byte arena with a first-fit free-list
// allocator and typed, bounds-checked access via DevicePtr<T>.
//
// DevicePtr<T> plays the role of a CUDA device pointer: it is not
// dereferenceable on the host; the runtime (cusim) and simulated GPU threads
// (gpusim::LaneCtx) read and write through DeviceMemory.
//
// Every allocation, free, and byte access can additionally be mirrored to a
// MemoryObserver — the hook the check:: device-memory sanitizer installs to
// keep shadow state (bounds, liveness, initialized bytes) without slowing
// the unchecked path.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/free_list.hpp"

namespace bigk::gpusim {

class OutOfDeviceMemory : public std::runtime_error {
 public:
  explicit OutOfDeviceMemory(std::uint64_t requested, std::uint64_t capacity)
      : std::runtime_error("device memory exhausted: requested " +
                           std::to_string(requested) + " bytes, capacity " +
                           std::to_string(capacity)) {}
};

/// free() of an offset that lies in already-freed (or never-allocated) space.
class DoubleFree : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// free() of an offset that is not an allocation base: the interior of a live
/// allocation, or a point outside the arena entirely.
class InvalidFree : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {
// The throws of the checked access path. Building their messages takes
// std::to_string calls, so they live out of line, where they cost nothing
// until they fire; the checks that guard them stay inline in every access.
[[noreturn, gnu::cold, gnu::noinline]] void throw_null_arithmetic();
[[noreturn, gnu::cold, gnu::noinline]] void throw_address_overflow(
    std::uint64_t base, std::uint64_t elements, std::uint64_t element_bytes);
[[noreturn, gnu::cold, gnu::noinline]] void throw_out_of_bounds(
    std::uint64_t offset, std::uint64_t n);
}  // namespace detail

template <class T>
struct DevicePtr {
  static constexpr std::uint64_t kNull = ~std::uint64_t{0};

  std::uint64_t byte_offset = kNull;

  bool is_null() const noexcept { return byte_offset == kNull; }

  /// Element arithmetic, like pointer arithmetic on T*. Arithmetic on a null
  /// pointer or past the 64-bit device address space throws instead of
  /// silently wrapping around ~0.
  DevicePtr operator+(std::uint64_t elements) const {
    return DevicePtr{element_address(elements)};
  }

  /// Byte address of element `i` (the "device address" the paper's address
  /// buffers carry).
  std::uint64_t element_address(std::uint64_t i) const {
    if (is_null()) detail::throw_null_arithmetic();
    if (i != 0 && i > (kNull - 1 - byte_offset) / sizeof(T)) {
      detail::throw_address_overflow(byte_offset, i, sizeof(T));
    }
    return byte_offset + i * sizeof(T);
  }

  /// Reinterpret as a different element type (offset is byte-exact).
  template <class U>
  DevicePtr<U> cast() const noexcept {
    return DevicePtr<U>{byte_offset};
  }

  friend bool operator==(DevicePtr, DevicePtr) = default;
};

/// Category of an observed arena access.
enum class MemAccess : std::uint8_t {
  kKernelRead,   // typed load by a simulated GPU lane (or host runtime read)
  kKernelWrite,  // typed store
  kCopyIn,       // raw bytes landing from an H2D copy
  kCopyOut,      // raw bytes leaving via a D2H copy
};

/// Mirror of every allocator and access event; implemented by the
/// check::MemChecker device-memory sanitizer. All hooks fire *before* the
/// operation takes effect (and before the allocator throws on a bad free).
class MemoryObserver {
 public:
  virtual ~MemoryObserver() = default;
  /// `requested` is the caller's byte count, `aligned` the padded block size
  /// actually reserved — accesses into the padding are out of bounds.
  virtual void on_alloc(std::uint64_t offset, std::uint64_t requested,
                        std::uint64_t aligned) = 0;
  virtual void on_free(std::uint64_t offset, std::uint64_t aligned) = 0;
  /// A free the allocator rejects; `is_double_free` distinguishes
  /// freed-or-never-allocated space from a foreign/interior offset.
  virtual void on_bad_free(std::uint64_t offset, bool is_double_free) = 0;
  virtual void on_access(MemAccess kind, std::uint64_t offset,
                         std::uint64_t bytes, std::uint32_t align) = 0;
};

class DeviceMemory {
 public:
  explicit DeviceMemory(std::uint64_t capacity_bytes)
      : arena_(capacity_bytes), free_list_(0, capacity_bytes) {}

  std::uint64_t capacity() const noexcept { return arena_.size(); }
  std::uint64_t used() const noexcept { return free_list_.used(); }
  std::uint64_t free_bytes() const noexcept {
    return arena_.size() - free_list_.used();
  }

  /// Installs (or with nullptr removes) the access observer.
  void set_observer(MemoryObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Live allocations (offset -> aligned size), e.g. for an observer
  /// installed after allocations were already made.
  const std::map<std::uint64_t, std::uint64_t>& live_allocations()
      const noexcept {
    return live_allocs_;
  }

  /// Allocates `count` elements of T, 256-byte aligned like cudaMalloc.
  template <class T>
  DevicePtr<T> allocate(std::uint64_t count) {
    return DevicePtr<T>{allocate_bytes(count * sizeof(T))};
  }

  /// First-fit allocation of raw bytes; throws OutOfDeviceMemory on failure.
  std::uint64_t allocate_bytes(std::uint64_t bytes);

  template <class T>
  void free(DevicePtr<T> ptr) {
    free_offset(ptr.byte_offset);
  }

  /// Frees an allocation made by allocate_bytes. Throws DoubleFree when
  /// `offset` points into already-free space and InvalidFree when it is not
  /// an allocation base (both derive from std::invalid_argument).
  void free_offset(std::uint64_t offset);

  template <class T>
  T read(DevicePtr<T> ptr, std::uint64_t index = 0) const {
    const std::uint64_t addr = ptr.element_address(index);
    if (observer_ != nullptr) {
      observer_->on_access(MemAccess::kKernelRead, addr, sizeof(T),
                           sizeof(T));
    }
    T value;
    std::memcpy(&value, checked(addr, sizeof(T)), sizeof(T));
    return value;
  }

  template <class T>
  void write(DevicePtr<T> ptr, std::uint64_t index, const T& value) {
    const std::uint64_t addr = ptr.element_address(index);
    if (observer_ != nullptr) {
      observer_->on_access(MemAccess::kKernelWrite, addr, sizeof(T),
                           sizeof(T));
    }
    std::memcpy(checked_mut(addr, sizeof(T)), &value, sizeof(T));
  }

  /// Raw byte views for host<->device copies; bounds-checked. The returned
  /// spans are what DMA copies read/write, so the observer sees them as
  /// copy-out/copy-in traffic.
  std::span<const std::byte> bytes(std::uint64_t offset,
                                   std::uint64_t n) const {
    if (observer_ != nullptr) {
      observer_->on_access(MemAccess::kCopyOut, offset, n, 1);
    }
    return {static_cast<const std::byte*>(checked(offset, n)), n};
  }
  std::span<std::byte> bytes_mut(std::uint64_t offset, std::uint64_t n) {
    if (observer_ != nullptr) {
      observer_->on_access(MemAccess::kCopyIn, offset, n, 1);
    }
    return {static_cast<std::byte*>(checked_mut(offset, n)), n};
  }

 private:
  const void* checked(std::uint64_t offset, std::uint64_t n) const {
    if (offset + n > arena_.size() || offset + n < offset) {
      detail::throw_out_of_bounds(offset, n);
    }
    return arena_.data() + offset;
  }
  void* checked_mut(std::uint64_t offset, std::uint64_t n) {
    return const_cast<void*>(checked(offset, n));
  }

  std::vector<std::byte> arena_;
  FreeList free_list_;
  std::map<std::uint64_t, std::uint64_t> live_allocs_;  // offset -> size
  MemoryObserver* observer_ = nullptr;
};

}  // namespace bigk::gpusim
