#include "obs/tracer.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace bigk::obs {

namespace {

/// ps -> us with full picosecond precision, as the viewer's native unit.
std::string ts_us(sim::TimePs ts) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ts) / 1e6);
  return buf;
}

}  // namespace

std::uint32_t Tracer::process(std::string_view name) {
  const auto it = process_index_.find(std::string(name));
  if (it != process_index_.end()) return it->second;
  processes_.emplace_back();
  processes_.back().name = std::string(name);
  const auto pid = static_cast<std::uint32_t>(processes_.size());
  process_index_[processes_.back().name] = pid;
  return pid;
}

TrackId Tracer::thread(std::uint32_t pid, std::string_view name) {
  ProcessInfo& proc = processes_.at(pid - 1);
  const auto it = proc.thread_index.find(std::string(name));
  if (it != proc.thread_index.end()) return {pid, it->second};
  proc.thread_names.emplace_back(name);
  const auto tid = static_cast<std::uint32_t>(proc.thread_names.size());
  proc.thread_index[proc.thread_names.back()] = tid;
  return {pid, tid};
}

std::uint32_t Tracer::counter_series(std::uint32_t pid,
                                     std::string_view name) {
  ProcessInfo& proc = processes_.at(pid - 1);
  const auto it = proc.counter_index.find(std::string(name));
  if (it != proc.counter_index.end()) return it->second;
  proc.counter_names.emplace_back(name);
  const auto series =
      static_cast<std::uint32_t>(proc.counter_names.size() - 1);
  proc.counter_index[proc.counter_names.back()] = series;
  return series;
}

void Tracer::complete(TrackId track, std::string_view name, sim::TimePs begin,
                      sim::TimePs end, std::string_view category,
                      std::vector<SpanArg> args) {
  SpanEvent event;
  event.track = track;
  event.name = std::string(name);
  event.category = std::string(category);
  event.begin = begin;
  event.end = end < begin ? begin : end;
  event.args = std::move(args);
  spans_.push_back(std::move(event));
}

void Tracer::instant(TrackId track, std::string_view name, sim::TimePs ts,
                     std::string_view category) {
  instants_.push_back(
      {track, std::string(name), std::string(category), ts});
}

void Tracer::counter_add(std::uint32_t pid, std::string_view name,
                         sim::TimePs ts, double delta) {
  counter_samples_.push_back(
      {pid, counter_series(pid, name), ts, delta, /*is_delta=*/true});
}

void Tracer::counter_set(std::uint32_t pid, std::string_view name,
                         sim::TimePs ts, double value) {
  counter_samples_.push_back(
      {pid, counter_series(pid, name), ts, value, /*is_delta=*/false});
}

std::size_t Tracer::counter_track_count() const noexcept {
  std::size_t count = 0;
  for (const ProcessInfo& proc : processes_) {
    count += proc.counter_names.size();
  }
  return count;
}

bool Tracer::empty() const noexcept {
  return spans_.empty() && instants_.empty() && counter_samples_.empty();
}

std::string_view Tracer::process_name(std::uint32_t pid) const {
  if (pid == 0 || pid > processes_.size()) return {};
  return processes_[pid - 1].name;
}

sim::DurationPs Tracer::named_busy(std::string_view span_name) const {
  sim::DurationPs total = 0;
  for (const SpanEvent& span : spans_) {
    if (span.name == span_name) total += span.duration();
  }
  return total;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  out << "[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    out << (first ? "\n" : ",\n") << event;
    first = false;
  };

  // Metadata: label every process and thread row so viewers never show bare
  // numeric pids/tids.
  for (std::uint32_t p = 0; p < processes_.size(); ++p) {
    const ProcessInfo& proc = processes_[p];
    const std::uint32_t pid = p + 1;
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
         json_quote(proc.name) + "}}");
    for (std::uint32_t t = 0; t < proc.thread_names.size(); ++t) {
      emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(t + 1) +
           ",\"args\":{\"name\":" + json_quote(proc.thread_names[t]) + "}}");
    }
  }

  for (const SpanEvent& span : spans_) {
    std::string event = "{\"name\":" + json_quote(span.name) +
                        ",\"cat\":" + json_quote(span.category) +
                        ",\"ph\":\"X\",\"pid\":" +
                        std::to_string(span.track.pid) +
                        ",\"tid\":" + std::to_string(span.track.tid) +
                        ",\"ts\":" + ts_us(span.begin) +
                        ",\"dur\":" + ts_us(span.duration());
    if (!span.args.empty()) {
      event += ",\"args\":{";
      for (std::size_t a = 0; a < span.args.size(); ++a) {
        if (a > 0) event += ',';
        event += json_quote(span.args[a].key) + ':' +
                 json_number(span.args[a].value);
      }
      event += '}';
    }
    event += '}';
    emit(event);
  }

  for (const InstantEvent& inst : instants_) {
    emit("{\"name\":" + json_quote(inst.name) + ",\"cat\":" +
         json_quote(inst.category) + ",\"ph\":\"i\",\"s\":\"t\",\"pid\":" +
         std::to_string(inst.track.pid) + ",\"tid\":" +
         std::to_string(inst.track.tid) + ",\"ts\":" + ts_us(inst.ts) + "}");
  }

  // Counter series: sort each (pid, series) by timestamp and emit cumulative
  // values. A stable sort keeps equal-time deltas in recording order.
  std::vector<CounterSample> samples = counter_samples_;
  std::stable_sort(samples.begin(), samples.end(),
                   [](const CounterSample& a, const CounterSample& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.series != b.series) return a.series < b.series;
                     return a.ts < b.ts;
                   });
  double running = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const CounterSample& sample = samples[i];
    const bool new_series =
        i == 0 || samples[i - 1].pid != sample.pid ||
        samples[i - 1].series != sample.series;
    if (new_series) running = 0.0;
    running = sample.is_delta ? running + sample.value : sample.value;
    // Collapse equal-time samples of one series into the last value.
    if (i + 1 < samples.size() && samples[i + 1].pid == sample.pid &&
        samples[i + 1].series == sample.series &&
        samples[i + 1].ts == sample.ts) {
      continue;
    }
    const std::string& name =
        processes_[sample.pid - 1].counter_names[sample.series];
    emit("{\"name\":" + json_quote(name) +
         ",\"ph\":\"C\",\"pid\":" + std::to_string(sample.pid) +
         ",\"tid\":0,\"ts\":" + ts_us(sample.ts) +
         ",\"args\":{\"value\":" + json_number(running) + "}}");
  }

  out << "\n]\n";
}

}  // namespace bigk::obs
