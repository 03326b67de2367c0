// A process-wide registry of named metrics any subsystem can register into.
//
// Three instrument kinds cover everything the simulator measures:
//   - Counter: monotonically increasing event/byte counts,
//   - Gauge: last-written values (capacities, footprints, occupancy),
//   - Histogram: fixed-bucket distributions (e.g. PCIe transfer sizes).
//
// Instruments are created on first use and live for the registry's lifetime,
// so hot paths can cache the returned reference and bump it lock-free (the
// simulation is single-threaded; no atomics needed). The exporter emits an
// embeddable JSON array.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bigk::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  /// Keeps the maximum of all observed values (peak tracking).
  void set_max(double value) noexcept {
    if (value > value_) value_ = value;
  }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `upper_bounds` are inclusive bucket upper edges in
/// ascending order; one implicit overflow bucket catches everything above the
/// last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  /// bucket_counts().size() == upper_bounds().size() + 1 (overflow last).
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Throws std::invalid_argument if `name` is already
  /// registered as a different instrument kind (or, for histograms, with
  /// different bucket bounds).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds);

  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  std::size_t size() const noexcept { return entries_.size(); }

  /// A JSON array with one object per instrument, in registration order
  /// (for embedding in a larger document):
  ///   {"type":"counter","name":"...","value":N}
  ///   {"type":"gauge","name":"...","value":X}
  ///   {"type":"histogram","name":"...","count":N,"sum":X,"min":X,"max":X,
  ///    "buckets":[{"le":B,"count":N},...,{"le":"inf","count":N}]}
  /// `indent` prefixes every element line.
  void write_json_array(std::ostream& out, const char* indent = "  ") const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find(std::string_view name, Kind kind);
  std::string entry_json(const Entry& entry) const;

  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace bigk::obs
