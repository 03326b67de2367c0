// Declarative SLO monitoring for bigkprof.
//
// Rules are threshold predicates over named windowed metrics, written as
// "<metric> <op> <threshold>" and joined with ';', e.g.
//   "p99_ms <= 5.0; utilization >= 0.2; fault_rate < 0.5"
// The monitor is evaluated periodically (the serving layer ticks it once per
// profiling window) against a snapshot of metric values; each failing rule
// bumps an `slo.violation` counter (total plus per-metric) and drops a trace
// instant so violations are visible on the timeline. Metrics absent from a
// snapshot are skipped, not violated — a rule about p99 cannot fire before
// the first job completes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/time.hpp"

namespace bigk::obs::prof {

struct SloRule {
  enum class Op : std::uint8_t { kLt, kLe, kGt, kGe };

  std::string metric;
  Op op = Op::kLe;
  double threshold = 0.0;

  bool holds(double value) const noexcept;

  /// Human-readable round trip of the rule ("p99_ms <= 5").
  std::string to_string() const;

  /// Parse a single "<metric> <op> <threshold>" rule. Throws
  /// std::invalid_argument on malformed input, a non-finite threshold
  /// included (tokens follow sim/spec.hpp).
  static SloRule parse(std::string_view text);
};

/// Parse a ';'-separated rule list; empty segments are ignored, so a
/// trailing ';' is fine. An empty spec yields no rules.
std::vector<SloRule> parse_slo_rules(std::string_view spec);

class SloMonitor {
 public:
  explicit SloMonitor(std::vector<SloRule> rules);

  /// Wire violation counters and trace instants. Either sink may be null;
  /// `scope` prefixes counter names (e.g. "serve." -> "serve.slo.violation").
  void attach(MetricsRegistry* metrics, Tracer* tracer, std::string scope);

  /// Evaluate every rule whose metric appears in `values` at simulated time
  /// `now`. Returns the number of rules violated by this snapshot.
  std::uint64_t evaluate(sim::TimePs now,
                         const std::map<std::string, double>& values);

  const std::vector<SloRule>& rules() const noexcept { return rules_; }
  std::uint64_t violations() const noexcept { return violations_; }

 private:
  std::vector<SloRule> rules_;
  MetricsRegistry* metrics_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::string scope_;
  std::uint64_t violations_ = 0;
};

}  // namespace bigk::obs::prof
