// Access-pattern recognition for the prefetch address-generation stage
// (§IV.A).
//
// Each address-generation thread first collects a handful of addresses in a
// small private buffer and tries to explain them as a base address plus a
// short cyclic sequence of strides (e.g. the K-means thread touching
// x, y, z of consecutive 48-byte particles produces strides [8, 8, 32]).
// If every subsequent address confirms the pattern, only the pattern
// descriptor crosses PCIe instead of one address per access — the paper's
// biggest win for character-granularity streams (Table II).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace bigk::core {

/// A recognized pattern: addresses are
///   base + sum of strides[0..k) cycled, for count addresses.
struct StridePattern {
  std::uint64_t base = 0;
  std::vector<std::int64_t> strides;  // cycle of length >= 1
  std::uint64_t count = 0;

  /// Wire size of the descriptor when sent to the CPU instead of addresses:
  /// base + count + stride cycle.
  std::uint64_t descriptor_bytes() const noexcept {
    return 16 + 8 * strides.size();
  }

  /// The i-th address of the pattern.
  std::uint64_t address_at(std::uint64_t i) const;
};

/// Online detector mirroring the paper's scheme: probe, hypothesize, verify.
class PatternDetector {
 public:
  /// `probe_window`: number of addresses collected in the private temporary
  /// buffer before a pattern is hypothesized (the paper's private temporary
  /// buffer of a few tens of bytes; 48 addresses lets cycles as long as a
  /// 23-field record — Opinion Finder — be hypothesized).
  /// `max_cycle`: longest stride cycle considered.
  explicit PatternDetector(std::uint32_t probe_window = 48,
                           std::uint32_t max_cycle = 32)
      : probe_window_(probe_window), max_cycle_(max_cycle) {}

  enum class State : std::uint8_t {
    kProbing,     // still filling the temporary buffer
    kVerifying,   // pattern hypothesized, checking further addresses
    kBroken,      // verification failed: raw addresses must be sent
  };

  State state() const noexcept { return state_; }

  /// Feeds the next generated address. Returns false exactly when this
  /// address broke a hypothesized pattern (the paper then restarts address
  /// generation without pattern matching).
  bool feed(std::uint64_t address);

  /// Number of addresses fed so far.
  std::uint64_t count() const noexcept { return count_; }

  /// The confirmed pattern covering every address fed, if the detector is
  /// still in (or reached) a consistent state; nullopt if broken or if too
  /// few addresses arrived to hypothesize one... except that a short,
  /// still-probing sequence is returned as an exact pattern when it happens
  /// to be consistent, mirroring "all addresses adhered".
  std::optional<StridePattern> pattern() const;

  void reset();

 private:
  bool hypothesize();

  std::uint32_t probe_window_;
  std::uint32_t max_cycle_;
  State state_ = State::kProbing;
  std::vector<std::uint64_t> probe_;
  StridePattern candidate_;
  std::uint64_t count_ = 0;
  // While verifying: candidate_.address_at(count_), the next address the
  // pattern predicts, and the index of the stride that follows it.
  std::uint64_t expected_ = 0;
  std::size_t next_stride_ = 0;
};

}  // namespace bigk::core
