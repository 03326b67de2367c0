#include "core/pattern.hpp"

#include <numeric>

namespace bigk::core {

std::uint64_t StridePattern::address_at(std::uint64_t i) const {
  if (strides.empty() || i == 0) return base;
  const std::uint64_t cycle = strides.size();
  const std::uint64_t full = i / cycle;
  const std::uint64_t rest = i % cycle;
  std::int64_t cycle_sum =
      std::accumulate(strides.begin(), strides.end(), std::int64_t{0});
  std::int64_t prefix = 0;
  for (std::uint64_t j = 0; j < rest; ++j) prefix += strides[j];
  return base + static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(full) * cycle_sum + prefix);
}

bool PatternDetector::feed(std::uint64_t address) {
  ++count_;
  switch (state_) {
    case State::kProbing:
      probe_.push_back(address);
      if (probe_.size() >= probe_window_) {
        if (!hypothesize()) state_ = State::kBroken;
      }
      return true;
    case State::kVerifying: {
      if (address == expected_) {
        candidate_.count = count_;
        // address_at(count_), one stride on in the same wrapping arithmetic.
        const std::vector<std::int64_t>& strides = candidate_.strides;
        expected_ += static_cast<std::uint64_t>(strides[next_stride_]);
        if (++next_stride_ == strides.size()) next_stride_ = 0;
        return true;
      }
      state_ = State::kBroken;
      return false;  // the paper restarts generation without matching
    }
    case State::kBroken:
      return true;
  }
  return true;
}

namespace {

/// The shortest stride cycle of at most `max_cycle` strides that explains
/// every address of `probe` and is observed at least twice (2*cycle+1
/// addresses; otherwise any sequence would trivially "match" a cycle of
/// length n-1), or 0 when none does. A cycle explains the probe when each
/// stride equals the stride `cycle` before it, which the loop checks in
/// place, with wrapping address arithmetic.
std::uint32_t shortest_cycle(const std::vector<std::uint64_t>& probe,
                             std::uint32_t max_cycle) {
  const std::size_t n = probe.size();
  for (std::uint32_t cycle = 1;
       cycle <= max_cycle && std::size_t{2} * cycle + 1 <= n; ++cycle) {
    bool consistent = true;
    for (std::size_t i = cycle; i + 1 < n && consistent; ++i) {
      consistent =
          probe[i + 1] - probe[i] == probe[i + 1 - cycle] - probe[i - cycle];
    }
    if (consistent) return cycle;
  }
  return 0;
}

/// The pattern of `cycle` strides that explains `probe`.
StridePattern cycle_pattern(const std::vector<std::uint64_t>& probe,
                            std::uint32_t cycle) {
  StridePattern pattern{probe.front(), std::vector<std::int64_t>(cycle),
                        probe.size()};
  for (std::uint32_t j = 0; j < cycle; ++j) {
    pattern.strides[j] = static_cast<std::int64_t>(probe[j + 1] - probe[j]);
  }
  return pattern;
}

}  // namespace

bool PatternDetector::hypothesize() {
  const std::uint32_t cycle = shortest_cycle(probe_, max_cycle_);
  if (cycle == 0) return false;
  candidate_ = cycle_pattern(probe_, cycle);
  // The probe already confirmed address_at(n - 1) == probe_.back().
  next_stride_ = (probe_.size() - 1) % cycle;
  expected_ = probe_.back() +
              static_cast<std::uint64_t>(candidate_.strides[next_stride_]);
  if (++next_stride_ == cycle) next_stride_ = 0;
  state_ = State::kVerifying;
  return true;
}

std::optional<StridePattern> PatternDetector::pattern() const {
  if (state_ == State::kBroken || count_ == 0) return std::nullopt;
  if (state_ == State::kVerifying) return candidate_;
  // Still probing: a short sequence. Re-derive a pattern over what we have.
  if (probe_.size() == 1) {
    return StridePattern{probe_.front(), {0}, 1};
  }
  const std::uint32_t cycle = shortest_cycle(probe_, max_cycle_);
  if (cycle == 0) return std::nullopt;
  return cycle_pattern(probe_, cycle);
}

void PatternDetector::reset() {
  state_ = State::kProbing;
  probe_.clear();
  candidate_ = StridePattern{};
  count_ = 0;
}

}  // namespace bigk::core
