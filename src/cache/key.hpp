// Cache keys for assembled chunk contents.
//
// A cached slot is only reusable when the *exact same bytes in the exact
// same layout* would be assembled again. The key therefore covers everything
// that determines the assembled image:
//   * dataset: caller-assigned identity of the mapped stream contents (the
//     serving layer hashes the app name — same app, same generated dataset).
//     The cache never hashes stream bytes itself; invalidate_dataset() is
//     the caller's obligation when it mutates a dataset in place.
//   * stream: the stream's index within the kernel's mapped-stream list.
//   * range_begin / range_end: the block's record range.
//   * chunk: the chunk index within that range.
//   * layout: the core::DataLayout the bytes were assembled into.
//   * signature: an FNV-1a hash (sim/hash.hpp) over the launch geometry
//     (computation threads, per-thread slot capacity, records per
//     thread-chunk) and the generated address stream of every thread, so a
//     kernel that generates different addresses — or the same addresses
//     under different geometry — never aliases a stale image.
#pragma once

#include <compare>
#include <cstdint>

namespace bigk::cache {

struct CacheKey {
  std::uint64_t dataset = 0;
  std::uint32_t stream = 0;
  std::uint64_t range_begin = 0;
  std::uint64_t range_end = 0;
  std::uint64_t chunk = 0;
  std::uint8_t layout = 0;
  std::uint64_t signature = 0;

  auto operator<=>(const CacheKey&) const = default;
};

}  // namespace bigk::cache
