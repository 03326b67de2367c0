// The simulator's two deterministic 64-bit hashes, one copy each:
//   FNV-1a      digests and identities: bigkdur chunk checksums, chunk-cache
//               and bigkstatic pattern signatures, serve's dataset ids and
//               the apps' result digests;
//   splitmix64  seeded draws: the apps' datasets, the fault plane's
//               probability triggers, arrival processes and bigkstatic's
//               branch perturbation.
// Both fold 64-bit words little-endian, byte by byte, so every digest, key
// and dataset is the same on every host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace bigk::sim {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds a 64-bit word into an FNV-1a hash, least significant byte first.
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xff)) * kFnvPrime;
  }
  return hash;
}

/// Incremental FNV-1a digest over words and byte spans.
class Digest {
 public:
  void mix(std::uint64_t value) noexcept { state_ = fnv1a(state_, value); }
  void mix_bytes(std::span<const std::byte> bytes) noexcept {
    for (const std::byte byte : bytes) {
      state_ = (state_ ^ std::to_integer<std::uint64_t>(byte)) * kFnvPrime;
    }
  }
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = kFnvBasis;
};

/// One-shot FNV-1a digest of a byte span.
inline std::uint64_t digest_bytes(std::span<const std::byte> bytes) {
  Digest digest;
  digest.mix_bytes(bytes);
  return digest.value();
}

/// splitmix64's increment (the golden ratio in 64 bits).
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

/// The splitmix64 step of state `x`; also a stateless mixer of seed keys.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The top 53 bits of `bits` as a double in [0, 1).
constexpr double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Seeded splitmix64 sequence.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    return splitmix64(std::exchange(state_, state_ + kSplitMixGamma));
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return unit_interval(next()); }

 private:
  std::uint64_t state_;
};

}  // namespace bigk::sim
