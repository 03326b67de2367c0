// Tests for the stride-pattern recognition of §IV.A.
#include "core/pattern.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace bigk::core {
namespace {

std::vector<std::uint64_t> expand(const StridePattern& pattern) {
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t i = 0; i < pattern.count; ++i) {
    addrs.push_back(pattern.address_at(i));
  }
  return addrs;
}

TEST(StridePatternTest, AddressAtReproducesCyclicStrides) {
  // The paper's K-means shape: x,y,z of 48-byte particles -> strides 8,8,32.
  StridePattern pattern{0x1000, {8, 8, 32}, 7};
  EXPECT_EQ(expand(pattern),
            (std::vector<std::uint64_t>{0x1000, 0x1008, 0x1010, 0x1030,
                                        0x1038, 0x1040, 0x1060}));
}

TEST(StridePatternTest, DescriptorBytesScaleWithCycle) {
  EXPECT_EQ((StridePattern{0, {1}, 10}.descriptor_bytes()), 24u);
  EXPECT_EQ((StridePattern{0, {8, 8, 32}, 10}.descriptor_bytes()), 40u);
}

TEST(StridePatternTest, NegativeStridesWork) {
  StridePattern pattern{0x1000, {-16}, 4};
  EXPECT_EQ(expand(pattern),
            (std::vector<std::uint64_t>{0x1000, 0xFF0, 0xFE0, 0xFD0}));
}

TEST(PatternDetectorTest, DetectsUnitStride) {
  PatternDetector detector;
  for (std::uint64_t a = 100; a < 200; ++a) ASSERT_TRUE(detector.feed(a));
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->base, 100u);
  EXPECT_EQ(pattern->strides, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(pattern->count, 100u);
}

TEST(PatternDetectorTest, DetectsKmeansCycle) {
  // Example from the paper: 0x00100, 0x00105, 0x00110, 0x00115 has base
  // 0x00100 and stride cycle [5, 11, 5] — our detector explains any
  // consistent cyclic stride sequence.
  PatternDetector detector(8, 4);
  std::uint64_t addr = 0x2000;
  std::vector<std::uint64_t> fed;
  for (int rec = 0; rec < 20; ++rec) {
    for (std::int64_t stride : {8, 8, 32}) {
      fed.push_back(addr);
      addr += static_cast<std::uint64_t>(stride);
    }
  }
  for (std::uint64_t a : fed) ASSERT_TRUE(detector.feed(a));
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->count, fed.size());
  for (std::uint64_t i = 0; i < fed.size(); ++i) {
    EXPECT_EQ(pattern->address_at(i), fed[i]) << "i=" << i;
  }
}

TEST(PatternDetectorTest, BreakDuringVerificationReturnsFalseOnce) {
  PatternDetector detector(4, 2);
  for (std::uint64_t a : {0u, 8u, 16u, 24u}) ASSERT_TRUE(detector.feed(a));
  EXPECT_EQ(detector.state(), PatternDetector::State::kVerifying);
  EXPECT_FALSE(detector.feed(1000));  // breaks the stride
  EXPECT_EQ(detector.state(), PatternDetector::State::kBroken);
  EXPECT_TRUE(detector.feed(2000));  // further feeds just collect
  EXPECT_FALSE(detector.pattern().has_value());
}

TEST(PatternDetectorTest, IrregularProbeNeverFormsPattern) {
  PatternDetector detector(6, 4);
  for (std::uint64_t a : {3u, 17u, 4u, 96u, 11u, 205u, 7u}) detector.feed(a);
  EXPECT_FALSE(detector.pattern().has_value());
  EXPECT_EQ(detector.state(), PatternDetector::State::kBroken);
}

TEST(PatternDetectorTest, ShortConsistentSequenceStillYieldsPattern) {
  // Fewer addresses than the probe window, but perfectly strided: the
  // pattern covers them exactly.
  PatternDetector detector(16, 4);
  for (std::uint64_t a : {0u, 4u, 8u}) detector.feed(a);
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->count, 3u);
  EXPECT_EQ(pattern->strides, (std::vector<std::int64_t>{4}));
}

TEST(PatternDetectorTest, SingleAddressIsItsOwnPattern) {
  PatternDetector detector;
  detector.feed(0xABC);
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->base, 0xABCu);
  EXPECT_EQ(pattern->count, 1u);
}

TEST(PatternDetectorTest, NoAddressesMeansNoPattern) {
  PatternDetector detector;
  EXPECT_FALSE(detector.pattern().has_value());
}

TEST(PatternDetectorTest, ResetAllowsReuse) {
  PatternDetector detector(4, 2);
  for (std::uint64_t a : {9u, 1u, 77u, 13u}) detector.feed(a);
  EXPECT_EQ(detector.state(), PatternDetector::State::kBroken);
  detector.reset();
  for (std::uint64_t a : {0u, 8u, 16u, 24u, 32u}) detector.feed(a);
  ASSERT_TRUE(detector.pattern().has_value());
}

TEST(PatternDetectorTest, PrefersShortestCycle) {
  PatternDetector detector(8, 4);
  for (std::uint64_t a = 0; a < 64; a += 8) detector.feed(a);
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->strides.size(), 1u);
}

TEST(PatternDetectorTest, CycleLongerThanMaxCycleNeverLocksOn) {
  // A perfectly periodic sequence whose cycle (5) exceeds max_cycle (4):
  // the detector must refuse rather than truncate to a wrong hypothesis.
  PatternDetector detector(16, 4);
  std::uint64_t addr = 0;
  for (int i = 0; i < 40; ++i) {
    detector.feed(addr);
    addr += static_cast<std::uint64_t>((i % 5) + 1);  // cycle [1,2,3,4,5]
  }
  EXPECT_FALSE(detector.pattern().has_value());
  // The same sequence with max_cycle 5 is explained exactly.
  PatternDetector wider(16, 5);
  addr = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(wider.feed(addr)) << "i=" << i;
    addr += static_cast<std::uint64_t>((i % 5) + 1);
  }
  EXPECT_TRUE(wider.pattern().has_value());
}

TEST(PatternDetectorTest, ResetMidVerificationStartsFresh) {
  PatternDetector detector(4, 2);
  for (std::uint64_t a : {0u, 8u, 16u, 24u, 32u, 40u}) {
    ASSERT_TRUE(detector.feed(a));
  }
  ASSERT_EQ(detector.state(), PatternDetector::State::kVerifying);
  detector.reset();
  EXPECT_FALSE(detector.pattern().has_value());  // verified prefix discarded
  // A different stride after reset must not be judged against the old
  // hypothesis.
  for (std::uint64_t a : {5u, 12u, 19u, 26u, 33u}) {
    ASSERT_TRUE(detector.feed(a));
  }
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->base, 5u);
  EXPECT_EQ(pattern->strides, (std::vector<std::int64_t>{7}));
}

TEST(PatternDetectorTest, RepeatedSingleAddressIsAZeroStrideCycle) {
  // A kernel that polls one element (e.g. a table-resident accumulator read
  // through a stream) produces a constant address sequence.
  PatternDetector detector(6, 3);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(detector.feed(0x4000));
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->base, 0x4000u);
  EXPECT_EQ(pattern->count, 20u);
  for (std::int64_t stride : pattern->strides) EXPECT_EQ(stride, 0);
}

TEST(PatternDetectorTest, DescendingNegativeStrideCycle) {
  // Reverse-order scan with a record skip: cycle [-8, -8, -48].
  PatternDetector detector(16, 4);
  std::uint64_t addr = 1 << 16;
  std::vector<std::uint64_t> fed;
  for (int rec = 0; rec < 12; ++rec) {
    for (std::int64_t stride : {-8, -8, -48}) {
      fed.push_back(addr);
      addr += static_cast<std::uint64_t>(stride);
    }
  }
  for (std::uint64_t a : fed) ASSERT_TRUE(detector.feed(a));
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  for (std::uint64_t i = 0; i < fed.size(); ++i) {
    EXPECT_EQ(pattern->address_at(i), fed[i]) << "i=" << i;
  }
}

// Property sweep: any (base, cycle, count) combination round-trips.
struct PatternCase {
  std::uint64_t base;
  std::vector<std::int64_t> strides;
};

// The printed case becomes the ctest name, so print the values: gtest's
// default byte dump would include the strides' heap address, which changes
// with ASLR and with the build path.
void PrintTo(const PatternCase& param, std::ostream* os) {
  *os << "base=" << param.base << " strides=";
  for (std::size_t i = 0; i < param.strides.size(); ++i) {
    *os << (i == 0 ? "" : ",") << param.strides[i];
  }
}

class PatternRoundTrip : public ::testing::TestWithParam<PatternCase> {};

TEST_P(PatternRoundTrip, DetectorConfirmsAndReproduces) {
  const PatternCase& param = GetParam();
  StridePattern truth{param.base, param.strides, 50};
  // The probe window must hold two full cycles plus one address for the
  // longest cycle under test (4).
  PatternDetector detector(12, 4);
  for (std::uint64_t i = 0; i < truth.count; ++i) {
    ASSERT_TRUE(detector.feed(truth.address_at(i))) << "i=" << i;
  }
  auto pattern = detector.pattern();
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->count, truth.count);
  for (std::uint64_t i = 0; i < truth.count; ++i) {
    EXPECT_EQ(pattern->address_at(i), truth.address_at(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cycles, PatternRoundTrip,
    ::testing::Values(PatternCase{0, {1}}, PatternCase{4096, {8}},
                      PatternCase{100, {8, 8, 32}}, PatternCase{7, {3, 5}},
                      PatternCase{1 << 20, {64, -8, 8, 200}},
                      PatternCase{50, {0}}, PatternCase{1234, {16, 16}}));

// The verifying state advances its expected address one stride per feed;
// StridePattern::address_at is the reference it must agree with. Each cycle
// length gets random strides (negative and zero included) and a probe window
// that varies where in the cycle verification starts.
struct LongPattern {
  StridePattern truth;
  std::uint32_t probe_window;
};

LongPattern random_long_pattern(std::mt19937_64& rng, std::uint32_t cycle) {
  LongPattern p;
  p.truth.base = (std::uint64_t{1} << 40) + rng() % (1 << 20);
  for (std::uint32_t j = 0; j < cycle; ++j) {
    p.truth.strides.push_back(static_cast<std::int64_t>(rng() % 129) - 64);
  }
  p.probe_window = 2 * cycle + 1 + static_cast<std::uint32_t>(rng() % cycle);
  return p;
}

constexpr std::uint32_t kMaxCycle = 32;
constexpr std::uint64_t kFeeds = 5000;

TEST(PatternDetectorTest, LongStreamsKeepThePatternForEveryCycleLength) {
  std::mt19937_64 rng(19);
  for (std::uint32_t cycle = 1; cycle <= kMaxCycle; ++cycle) {
    const LongPattern p = random_long_pattern(rng, cycle);
    PatternDetector detector(p.probe_window, kMaxCycle);
    for (std::uint64_t i = 0; i < kFeeds; ++i) {
      ASSERT_TRUE(detector.feed(p.truth.address_at(i)))
          << "cycle " << cycle << ", i=" << i;
    }
    EXPECT_EQ(detector.state(), PatternDetector::State::kVerifying);
    const auto found = detector.pattern();
    ASSERT_TRUE(found.has_value()) << "cycle " << cycle;
    EXPECT_EQ(found->count, kFeeds);
    for (std::uint64_t i = 0; i < kFeeds; i += 7) {
      ASSERT_EQ(found->address_at(i), p.truth.address_at(i))
          << "cycle " << cycle << ", i=" << i;
    }
  }
}

// One address off by one byte breaks the pattern at exactly its own feed:
// the first verified address, the first address of a later cycle, and one
// deep into the stream.
TEST(PatternDetectorTest, OnePerturbedAddressFailsExactlyItsOwnFeed) {
  std::mt19937_64 rng(23);
  for (std::uint32_t cycle = 1; cycle <= kMaxCycle; ++cycle) {
    const LongPattern p = random_long_pattern(rng, cycle);
    const std::uint64_t boundary =
        (p.probe_window / cycle + 2) * std::uint64_t{cycle};
    const std::uint64_t late = 3000 + rng() % 1000;
    for (std::uint64_t bad : {std::uint64_t{p.probe_window}, boundary, late}) {
      PatternDetector detector(p.probe_window, kMaxCycle);
      for (std::uint64_t i = 0; i < kFeeds; ++i) {
        const std::uint64_t address = p.truth.address_at(i) + (i == bad);
        ASSERT_EQ(detector.feed(address), i != bad)
            << "cycle " << cycle << ", perturbed " << bad << ", i=" << i;
      }
      EXPECT_EQ(detector.state(), PatternDetector::State::kBroken);
      EXPECT_FALSE(detector.pattern().has_value());
    }
  }
}

// The detector as it was before hypothesize() tested cycles in place: it
// builds every candidate cycle's strides in a vector, and pattern() re-runs
// it on a copy of a short probe. The detector must agree with it feed for
// feed. It subtracts addresses as int64, so the probes below stay clear of
// the 2^63 boundary, where that overflows; they do wrap past 2^64.
class ReferenceDetector {
 public:
  ReferenceDetector(std::uint32_t probe_window, std::uint32_t max_cycle)
      : probe_window_(probe_window), max_cycle_(max_cycle) {}

  using State = PatternDetector::State;

  bool feed(std::uint64_t address) {
    ++count_;
    switch (state_) {
      case State::kProbing:
        probe_.push_back(address);
        if (probe_.size() >= probe_window_) {
          if (!hypothesize()) state_ = State::kBroken;
        }
        return true;
      case State::kVerifying:
        if (address == expected_) {
          candidate_.count = count_;
          expected_ += static_cast<std::uint64_t>(
              candidate_.strides[next_stride_]);
          if (++next_stride_ == candidate_.strides.size()) next_stride_ = 0;
          return true;
        }
        state_ = State::kBroken;
        return false;
      case State::kBroken:
        return true;
    }
    return true;
  }

  bool hypothesize() {
    const std::size_t n = probe_.size();
    for (std::uint32_t cycle = 1;
         cycle <= max_cycle_ && std::size_t{2} * cycle + 1 <= n; ++cycle) {
      std::vector<std::int64_t> strides(cycle);
      for (std::uint32_t j = 0; j < cycle; ++j) {
        strides[j] = static_cast<std::int64_t>(probe_[j + 1]) -
                     static_cast<std::int64_t>(probe_[j]);
      }
      bool consistent = true;
      for (std::size_t i = 1; i + 1 < n && consistent; ++i) {
        const std::int64_t diff = static_cast<std::int64_t>(probe_[i + 1]) -
                                  static_cast<std::int64_t>(probe_[i]);
        consistent = diff == strides[i % cycle];
      }
      if (consistent) {
        candidate_.base = probe_.front();
        candidate_.strides = std::move(strides);
        candidate_.count = n;
        next_stride_ = (n - 1) % cycle;
        expected_ = probe_.back() + static_cast<std::uint64_t>(
                                        candidate_.strides[next_stride_]);
        if (++next_stride_ == cycle) next_stride_ = 0;
        state_ = State::kVerifying;
        return true;
      }
    }
    return false;
  }

  std::optional<StridePattern> pattern() const {
    if (state_ == State::kBroken || count_ == 0) return std::nullopt;
    if (state_ == State::kVerifying) return candidate_;
    if (probe_.size() == 1) return StridePattern{probe_.front(), {0}, 1};
    ReferenceDetector scratch(static_cast<std::uint32_t>(probe_.size()),
                              max_cycle_);
    scratch.probe_ = probe_;
    scratch.count_ = count_;
    if (scratch.hypothesize()) return scratch.candidate_;
    return std::nullopt;
  }

  std::uint32_t probe_window_;
  std::uint32_t max_cycle_;
  State state_ = State::kProbing;
  std::vector<std::uint64_t> probe_;
  StridePattern candidate_;
  std::uint64_t count_ = 0;
  std::uint64_t expected_ = 0;
  std::size_t next_stride_ = 0;
};

/// Feeds `addrs` to both detectors and compares, after every feed, the
/// feed's verdict, the state, the pattern (base, strides, count) and, while
/// verifying, the next address the pattern expects.
void expect_matches_reference(const std::vector<std::uint64_t>& addrs,
                              std::uint32_t probe_window,
                              std::uint32_t max_cycle) {
  PatternDetector detector(probe_window, max_cycle);
  ReferenceDetector reference(probe_window, max_cycle);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    SCOPED_TRACE("feed " + std::to_string(i) + " of " +
                 std::to_string(addrs.size()) + ", window " +
                 std::to_string(probe_window) + ", max cycle " +
                 std::to_string(max_cycle));
    ASSERT_EQ(detector.feed(addrs[i]), reference.feed(addrs[i]));
    ASSERT_EQ(detector.state(), reference.state_);
    const std::optional<StridePattern> got = detector.pattern();
    const std::optional<StridePattern> want = reference.pattern();
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got.has_value()) continue;
    ASSERT_EQ(got->base, want->base);
    ASSERT_EQ(got->strides, want->strides);
    ASSERT_EQ(got->count, want->count);
    if (reference.state_ == PatternDetector::State::kVerifying) {
      ASSERT_EQ(got->address_at(detector.count()), reference.expected_);
    }
  }
}

/// `count` addresses of a random cycle of 1-`max_cycle` strides in
/// [-64, 64] from `base`.
std::vector<std::uint64_t> periodic(std::mt19937_64& rng, std::uint64_t base,
                                    std::uint32_t max_cycle,
                                    std::uint64_t count) {
  StridePattern truth{base, {}, count};
  const std::uint32_t cycle = 1 + static_cast<std::uint32_t>(rng() % max_cycle);
  for (std::uint32_t j = 0; j < cycle; ++j) {
    truth.strides.push_back(static_cast<std::int64_t>(rng() % 129) - 64);
  }
  return expand(truth);
}

TEST(PatternDetectorTest, MatchesTheReferenceOnSeededProbes) {
  std::mt19937_64 rng(0xB16C);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t window = 3 + static_cast<std::uint32_t>(rng() % 70);
    const std::uint32_t max_cycle = 1 + static_cast<std::uint32_t>(rng() % 40);
    const std::uint64_t count = 1 + rng() % 200;
    const std::uint64_t base = (std::uint64_t{1} << 40) + rng() % (1 << 20);
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Periodic, as every affine kernel's stream is.
    std::vector<std::uint64_t> addrs = periodic(rng, base, 40, count);
    expect_matches_reference(addrs, window, max_cycle);
    // The same with one to three addresses perturbed, inside the probe or
    // after it.
    for (std::uint64_t k = 0, bad = 1 + rng() % 3; k < bad; ++k) {
      addrs[rng() % addrs.size()] += 1 + rng() % 16;
    }
    expect_matches_reference(addrs, window, max_cycle);
    // Random addresses below 2^40.
    for (std::uint64_t& address : addrs) {
      address = rng() % (std::uint64_t{1} << 40);
    }
    expect_matches_reference(addrs, window, max_cycle);
    // Short: fewer addresses than the window, so pattern() re-derives one
    // from a probe that never filled.
    const std::vector<std::uint64_t> shortened =
        periodic(rng, base, 8, 1 + rng() % window);
    expect_matches_reference(shortened, window, max_cycle);
    // Wrapping: a base 0-1023 bytes below 2^64, so the addresses cross 0.
    const std::vector<std::uint64_t> wrapping =
        periodic(rng, ~std::uint64_t{0} - rng() % 1024, 40, count);
    expect_matches_reference(wrapping, window, max_cycle);
  }
}

}  // namespace
}  // namespace bigk::core
