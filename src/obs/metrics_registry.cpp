#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace bigk::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be ascending");
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                              Kind kind) {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return nullptr;
  Entry* entry = entries_[it->second].get();
  if (entry->kind != kind) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered as a different kind");
  }
  return entry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (Entry* entry = find(name, Kind::kCounter)) return *entry->counter;
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kCounter;
  entry->name = std::string(name);
  entry->counter = std::make_unique<Counter>();
  Counter& ref = *entry->counter;
  index_[entry->name] = entries_.size();
  entries_.push_back(std::move(entry));
  return ref;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (Entry* entry = find(name, Kind::kGauge)) return *entry->gauge;
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kGauge;
  entry->name = std::string(name);
  entry->gauge = std::make_unique<Gauge>();
  Gauge& ref = *entry->gauge;
  index_[entry->name] = entries_.size();
  entries_.push_back(std::move(entry));
  return ref;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  if (Entry* entry = find(name, Kind::kHistogram)) {
    if (entry->histogram->upper_bounds() != upper_bounds) {
      throw std::invalid_argument("histogram '" + std::string(name) +
                                  "' re-registered with different buckets");
    }
    return *entry->histogram;
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kHistogram;
  entry->name = std::string(name);
  entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram& ref = *entry->histogram;
  index_[entry->name] = entries_.size();
  entries_.push_back(std::move(entry));
  return ref;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return nullptr;
  const Entry& entry = *entries_[it->second];
  return entry.kind == Kind::kCounter ? entry.counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return nullptr;
  const Entry& entry = *entries_[it->second];
  return entry.kind == Kind::kGauge ? entry.gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return nullptr;
  const Entry& entry = *entries_[it->second];
  return entry.kind == Kind::kHistogram ? entry.histogram.get() : nullptr;
}

std::string MetricsRegistry::entry_json(const Entry& entry) const {
  std::string line = "{\"type\":";
  switch (entry.kind) {
    case Kind::kCounter:
      line += "\"counter\",\"name\":" + json_quote(entry.name) +
              ",\"value\":" + std::to_string(entry.counter->value());
      break;
    case Kind::kGauge:
      line += "\"gauge\",\"name\":" + json_quote(entry.name) +
              ",\"value\":" + json_number(entry.gauge->value());
      break;
    case Kind::kHistogram: {
      const Histogram& h = *entry.histogram;
      line += "\"histogram\",\"name\":" + json_quote(entry.name) +
              ",\"count\":" + std::to_string(h.count()) +
              ",\"sum\":" + json_number(h.sum()) +
              ",\"min\":" + json_number(h.min()) +
              ",\"max\":" + json_number(h.max()) + ",\"buckets\":[";
      for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
        if (b > 0) line += ',';
        line += "{\"le\":";
        line += b < h.upper_bounds().size()
                    ? json_number(h.upper_bounds()[b])
                    : std::string("\"inf\"");
        line += ",\"count\":" + std::to_string(h.bucket_counts()[b]) + '}';
      }
      line += ']';
      break;
    }
  }
  line += '}';
  return line;
}

void MetricsRegistry::write_json_array(std::ostream& out,
                                       const char* indent) const {
  out << '[';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << indent << entry_json(*entries_[i]);
  }
  if (!entries_.empty()) out << '\n';
  out << ']';
}

}  // namespace bigk::obs
