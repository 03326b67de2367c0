// bigkbench: runs one workload of the end-to-end benchmark in this process
// and writes its metrics as one JSON document. benchmark/run.py builds this
// binary, passes each workload's settings from benchmark/workloads.json, and
// prints the result; benchmark/README.md defines every metric.
//
// One run has two phases:
//   setup  repeated at least --setup-reps times and for at least a tenth of
//          --seconds; setup_s is the median. It covers the app suite, static
//          verification, dataset generation, the serial-CPU oracle digests,
//          and load generation.
//   timed  cycles of one pass per plan for about --seconds of host time (at
//          least one cycle and --min-passes); wall_s is the median pass.
//          Virtual metrics come from each plan's first pass, and every later
//          pass of that plan must reproduce them bit for bit.
// Host times are in reference seconds (see HostProbe below): each setup
// repetition and pass is scaled by the host speed measured during it.
// With --trace 1 the timed phase alternates untraced and traced cycles. Traced
// passes record spans from this file only, around each call into a layer's
// public functions; the simulator itself runs with a MetricsRegistry attached
// and no obs::Tracer, as the bench harness ships it.
//
// The process is single-threaded: the simulator is one coroutine loop.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/registry.hpp"
#include "apps/wordcount.hpp"
#include "check/options.hpp"
#include "cusim/runtime.hpp"
#include "load/generator.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/stage.hpp"
#include "schemes/metrics.hpp"
#include "schemes/runners.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace {

namespace apps = bigk::apps;
namespace load = bigk::load;
namespace obs = bigk::obs;
namespace schemes = bigk::schemes;
namespace serve = bigk::serve;
namespace sim = bigk::sim;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of sorted `values` (p in (0, 1]).
double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

double ms(sim::DurationPs ps) { return sim::to_milliseconds(ps); }

/// Shortest decimal form that round-trips, so no measured digit is lost.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

/// "MasterCard Affinity (indexed)" -> "mastercard_affinity_indexed".
std::string slug(std::string_view name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

// --- metric catalogue ---------------------------------------------------------

/// Every metric the benchmark reports, in output order. Both workload kinds
/// print the whole catalogue: a per-layer metric a workload does not exercise
/// reads 0 with n = 0. BENCHMARK.json lists the same names (the smoke test
/// checks that they agree).
struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;  // "virtual" (simulated, deterministic) or "host"
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"wall_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"sim_makespan_ms", "ms", "virtual"},
    {"job_p50_ms", "ms", "virtual"},
    {"job_p90_ms", "ms", "virtual"},
    {"slo_attainment", "fraction", "virtual"},
    {"goodput_jobs_per_s", "jobs/s", "virtual"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.stage_busy_ms.addr_gen", "ms", "virtual"},
    {"core.stage_busy_ms.assembly", "ms", "virtual"},
    {"core.stage_busy_ms.transfer", "ms", "virtual"},
    {"core.stage_busy_ms.compute", "ms", "virtual"},
    {"core.stage_busy_ms.writeback", "ms", "virtual"},
    {"core.overlap_efficiency", "fraction", "virtual"},
    {"core.chunks", "count", "virtual"},
    {"core.pattern_hit_rate", "fraction", "virtual"},
    {"core.addr_traffic_frac", "fraction", "virtual"},
    {"core.bound_ratio", "fraction", "virtual"},
    {"cusim.h2d_mb", "MB", "virtual"},
    {"cusim.d2h_mb", "MB", "virtual"},
    {"gpusim.sm_busy_ms", "ms", "virtual"},
    {"gpusim.kernel_launches", "count", "virtual"},
    {"schemes.sim_ms.cpu_mt", "ms", "virtual"},
    {"schemes.sim_ms.gpu_double", "ms", "virtual"},
    {"schemes.sim_ms.bigkernel", "ms", "virtual"},
    {"schemes.bk_speedup_vs_double", "x", "virtual"},
    {"schemes.bk_speedup_vs_cpu_mt", "x", "virtual"},
    {"schemes.host_s.cpu_mt", "s", "host"},
    {"schemes.host_s.gpu_double", "s", "host"},
    {"schemes.host_s.bigkernel", "s", "host"},
    {"schemes.host_s.k_means", "s", "host"},
    {"schemes.host_s.word_count", "s", "host"},
    {"schemes.host_s.netflix", "s", "host"},
    {"schemes.host_s.opinion_finder", "s", "host"},
    {"schemes.host_s.dna_assembly", "s", "host"},
    {"schemes.host_s.mastercard_affinity", "s", "host"},
    {"schemes.host_s.mastercard_affinity_indexed", "s", "host"},
    {"serve.breakdown_ms.admission", "ms", "virtual"},
    {"serve.breakdown_ms.queue", "ms", "virtual"},
    {"serve.breakdown_ms.staging", "ms", "virtual"},
    {"serve.breakdown_ms.execution", "ms", "virtual"},
    {"serve.breakdown_ms.writeback", "ms", "virtual"},
    {"serve.rejections_per_job", "count", "virtual"},
    {"serve.shed", "count", "virtual"},
    {"serve.peak_queue_depth", "count", "virtual"},
    {"serve.warm_hits", "count", "virtual"},
    {"serve.device_util_mean", "fraction", "virtual"},
    {"serve.device_util_min", "fraction", "virtual"},
    {"serve.self_host_s", "s", "host"},
    {"cache.hit_rate", "fraction", "virtual"},
    {"cache.bytes_saved_mb", "MB", "virtual"},
    {"cache.evictions", "count", "virtual"},
    {"dur.verified", "count", "virtual"},
    {"apps.dataset_host_s", "s", "host"},
    {"apps.make_runner_calls", "count", "virtual"},
    {"verify.host_s", "s", "host"},
    {"load.jobs", "count", "virtual"},
    {"load.offered_jobs_per_s", "jobs/s", "virtual"},
    {"load.make_load_host_s", "s", "host"},
    {"trace.overhead_pct", "%", "host"},
};

/// The paper's Fig. 4(a) averages the pipeline speedups are compared with.
constexpr double kPaperVsDouble = 1.7;
constexpr double kPaperVsCpuMt = 3.0;

struct Sample {
  double value = 0.0;
  std::uint64_t n = 1;  // samples behind the value
};
using Values = std::map<std::string, Sample>;

/// What one timed pass produced: virtual metrics plus the operation tally.
struct PassResult {
  Values end_to_end;
  Values per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

/// The job metrics both workload kinds report: `latencies_ms` and
/// `limits_ms` hold the completed jobs, `submitted` counts every job (a job
/// that never completed misses its limit).
void put_job_metrics(Values& out, std::vector<double> latencies_ms,
                     const std::vector<double>& limits_ms,
                     std::uint64_t submitted, double makespan_ms) {
  std::uint64_t met = 0;
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    if (latencies_ms[i] <= limits_ms[i]) ++met;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const std::uint64_t n = latencies_ms.size();
  out["sim_makespan_ms"] = {makespan_ms, 1};
  out["job_p50_ms"] = {nearest_rank(latencies_ms, 0.5), n};
  out["job_p90_ms"] = {nearest_rank(latencies_ms, 0.9), n};
  out["slo_attainment"] = {
      ratio(static_cast<double>(met), static_cast<double>(submitted)),
      submitted};
  out["goodput_jobs_per_s"] = {
      ratio(static_cast<double>(met), makespan_ms / 1e3), met};
}

// --- command line -------------------------------------------------------------

enum class Kind { kAny, kPipeline, kServe };

struct FlagSpec {
  const char* name;
  Kind kind;
  const char* help;
};

// Run-control flags have defaults. Every workload setting must be given
// explicitly (run.py passes them from workloads.json): nothing comes from
// the environment or from a default the reader cannot see.
constexpr FlagSpec kFlags[] = {
    {"workload", Kind::kAny, "workload label written into the result"},
    {"kind", Kind::kAny, "pipeline | serve"},
    {"out", Kind::kAny, "path of the result JSON document"},
    {"seed", Kind::kAny, "input seed (default 1)"},
    {"seconds", Kind::kAny, "minimum host seconds of timed passes (default 10)"},
    {"min-passes", Kind::kAny, "minimum timed passes per mode (default 3)"},
    {"setup-reps", Kind::kAny, "minimum setup repetitions (default 3)"},
    {"trace", Kind::kAny, "0 | 1: alternate untraced and traced cycles"},
    {"trace-out", Kind::kAny, "path of the Chrome-trace span file"},
    {"plans", Kind::kAny, "plans per run; pass i runs plan i mod N"},
    {"scale", Kind::kAny, "capacity scale vs. the paper's testbed"},
    {"bk-blocks", Kind::kAny, "BigKernel engine num_blocks"},
    {"bk-threads", Kind::kAny, "BigKernel compute threads per block"},
    {"gpu-blocks", Kind::kPipeline, "chunked-GPU baseline blocks"},
    {"gpu-threads", Kind::kPipeline, "chunked-GPU baseline threads per block"},
    {"devices", Kind::kServe, "device pool size"},
    {"policy", Kind::kServe, "round-robin | least-bytes | app-affinity"},
    {"queue-depth", Kind::kServe, "admission queue depth"},
    {"retry-after-us", Kind::kServe, "retry-after hint in simulated us"},
    {"max-retries", Kind::kServe, "client resubmissions before giving up"},
    {"apps", Kind::kServe, "'|'-separated app names; each gets an equal share"},
    {"tenants", Kind::kServe, "tenant spec (load::parse_tenants grammar)"},
    {"qos", Kind::kServe, "0 | 1: configure the tenants on the server"},
    {"rate", Kind::kServe, "open-loop Poisson jobs/s; 0 = batch burst at t=0"},
    {"jobs", Kind::kServe, "jobs in the generated plan"},
    {"limit-ms", Kind::kServe, "per-job latency limit in simulated ms"},
    {"cache", Kind::kServe, "0 | 1: per-device chunk cache"},
    {"integrity", Kind::kServe, "0 | 1: end-to-end chunk integrity plane"},
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg == "--help") {
        print_help();
        std::exit(0);
      }
      if (arg.substr(0, 2) != "--") {
        throw std::invalid_argument("unexpected argument \"" +
                                    std::string(arg) + "\"");
      }
      arg.remove_prefix(2);
      std::string name(arg);
      std::string value;
      if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
        name = arg.substr(0, eq);
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::invalid_argument("flag --" + name + " needs a value");
      }
      if (find(name) == nullptr) {
        throw std::invalid_argument("unknown flag --" + name + " (see --help)");
      }
      if (!values_.emplace(name, value).second) {
        throw std::invalid_argument("flag --" + name + " given twice");
      }
    }
    const std::string kind = get("kind");
    if (kind == "pipeline") {
      kind_ = Kind::kPipeline;
    } else if (kind == "serve") {
      kind_ = Kind::kServe;
    } else {
      throw std::invalid_argument("--kind must be pipeline or serve, got \"" +
                                  kind + "\"");
    }
    for (const auto& entry : values_) {
      const Kind applies = find(entry.first)->kind;
      if (applies != Kind::kAny && applies != kind_) {
        throw std::invalid_argument("flag --" + entry.first +
                                    " does not apply to --kind " + kind);
      }
    }
  }

  Kind kind() const noexcept { return kind_; }
  const std::map<std::string, std::string>& values() const { return values_; }
  bool has(const std::string& name) const { return values_.count(name) != 0; }

  std::string get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::invalid_argument("missing flag --" + name);
    }
    return it->second;
  }

  double real(const std::string& name) const {
    const std::string text = get(name);
    double value = 0.0;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (result.ec != std::errc{} || result.ptr != text.data() + text.size() ||
        !std::isfinite(value) || value < 0.0) {
      throw std::invalid_argument("--" + name +
                                  " needs a non-negative number, got \"" +
                                  text + "\"");
    }
    return value;
  }

  std::uint64_t count(const std::string& name) const {
    const std::string text = get(name);
    std::uint64_t value = 0;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
      throw std::invalid_argument("--" + name +
                                  " needs a non-negative integer, got \"" +
                                  text + "\"");
    }
    return value;
  }

  std::uint32_t positive32(const std::string& name) const {
    const std::uint64_t value = count(name);
    if (value == 0 || value > 1'000'000) {
      throw std::invalid_argument("--" + name + " must be in [1, 1000000]");
    }
    return static_cast<std::uint32_t>(value);
  }

  bool flag(const std::string& name) const {
    const std::string value = get(name);
    if (value == "0") return false;
    if (value == "1") return true;
    throw std::invalid_argument("--" + name + " must be 0 or 1, got \"" +
                                value + "\"");
  }

 private:
  static const FlagSpec* find(std::string_view name) {
    for (const FlagSpec& spec : kFlags) {
      if (name == spec.name) return &spec;
    }
    return nullptr;
  }

  static void print_help() {
    std::printf("usage: bigkbench --kind pipeline|serve --out FILE [flags]\n");
    for (const FlagSpec& spec : kFlags) {
      const char* scope = spec.kind == Kind::kPipeline ? " [pipeline]"
                          : spec.kind == Kind::kServe  ? " [serve]"
                                                       : "";
      std::printf("  --%-16s %s%s\n", spec.name, spec.help, scope);
    }
  }

  std::map<std::string, std::string> values_;
  Kind kind_ = Kind::kAny;
};

// --- host clock ---------------------------------------------------------------

/// Host speed on a shared VM drifts by tens of percent within minutes, and
/// the simulator slows with it. The probe is a fixed piece of host work run
/// between the simulator's calls: ordered-map inserts, whose allocation and
/// pointer chasing resemble the simulator's own hot paths, in an arena of
/// their own so that the simulator's heap does not change the work. The probe
/// runs twice and only the second run is timed: the first refills the caches
/// the simulator evicted, so the timing does not depend on how much memory
/// the simulator just touched. README.md ("Reference seconds") records how
/// well the probe tracks host drift and a planted host slowdown.
class HostProbe {
 public:
  /// Host metrics are in reference seconds: host seconds scaled to a host on
  /// which one timed probe takes this long (about the VM of README.md).
  static constexpr double kReferenceS = 0.002;
  /// When the host slows, the simulator slows more than the probe: log pass
  /// time against log probe time has slope 1.21-1.33 per workload over 350
  /// passes on the VM of README.md. Scaling is by the probe ratio to this
  /// power.
  static constexpr double kSlope = 1.25;

  /// Warms the probe up, then runs it once more; returns the host seconds of
  /// the second run alone.
  double run() {
    once();
    const Clock::time_point start = Clock::now();
    once();
    return seconds_since(start);
  }

 private:
  void once() {
    std::pmr::monotonic_buffer_resource arena(
        buffer_.data(), buffer_.size(), std::pmr::null_memory_resource());
    std::pmr::map<std::uint64_t, std::uint64_t> map(&arena);
    for (std::uint64_t k = 0; k < kInserts; ++k) {
      map[(k * 0x9E3779B97F4A7C15ull) >> 40] += k;
    }
    sink_ = sink_ + map.size();
  }

  static constexpr std::uint64_t kInserts = 20'000;
  std::vector<std::byte> buffer_ = std::vector<std::byte>(kInserts * 128);
  volatile std::size_t sink_ = 0;
};

// --- spans --------------------------------------------------------------------

/// Benchmark-side spans, kept in memory and written as Chrome JSON when the
/// run ends. A span's parent is the span that was open when it began; spans
/// are grouped by setup repetition or timed pass. Each group also keeps the
/// host probes run during it, which set its scale to reference seconds.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::size_t group = 0;
  };

  /// RAII span; a no-op while recording is off.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      if (!log_.enabled_) return;
      id_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(Span{std::move(name), seconds_since(log_.origin_),
                                 0.0,
                                 log_.open_.empty() ? -1 : log_.open_.back(),
                                 log_.groups_.size() - 1});
      log_.open_.push_back(id_);
    }
    ~Scope() {
      if (id_ < 0) return;
      log_.spans_[static_cast<std::size_t>(id_)].end_s =
          seconds_since(log_.origin_);
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_ = -1;
  };

  explicit SpanLog(std::string workload) : workload_(std::move(workload)) {}

  /// Starts the next group, switches recording on or off for it, and runs
  /// its first probe.
  std::size_t begin_group(std::string label, bool enabled) {
    groups_.push_back(Group{std::move(label)});
    enabled_ = enabled;
    probe();
    return groups_.size() - 1;
  }

  /// Runs the host probe in the current group, as a "host.probe" span.
  void probe() {
    Scope span(*this, "host.probe");
    const Clock::time_point start = Clock::now();
    groups_.back().timed_s += probe_.run();
    groups_.back().spent_s += seconds_since(start);
    ++groups_.back().probes;
  }

  /// Host seconds spent in `group`'s probes, warm-up runs included.
  double probe_s(std::size_t group) const { return groups_[group].spent_s; }
  /// Mean host seconds of `group`'s timed probe runs.
  double mean_probe_s(std::size_t group) const {
    return groups_[group].timed_s / static_cast<double>(groups_[group].probes);
  }

  /// Reference seconds per host second during `group`.
  double scale(std::size_t group) const {
    return std::pow(HostProbe::kReferenceS / mean_probe_s(group),
                    HostProbe::kSlope);
  }

  /// Summed duration in reference seconds, and count, of the spans in
  /// `group` whose name starts with `prefix` and contains `part`.
  std::pair<double, std::uint64_t> total(std::size_t group,
                                         std::string_view prefix,
                                         std::string_view part = {}) const {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const Span& span : spans_) {
      if (span.group == group && span.name.rfind(prefix, 0) == 0 &&
          span.name.find(part) != std::string::npos) {
        sum += span.end_s - span.start_s;
        ++n;
      }
    }
    return {sum * scale(group), n};
  }

  /// Self time in reference seconds of the spans named `name` in `group`:
  /// their duration minus the time their child spans (probes included)
  /// cover.
  double self_time(std::size_t group, std::string_view name) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].group != group || spans_[i].name != name) continue;
      sum += spans_[i].end_s - spans_[i].start_s;
      for (const Span& child : spans_) {
        if (child.parent == static_cast<int>(i)) {
          sum -= child.end_s - child.start_s;
        }
      }
    }
    return sum * scale(group);
  }

  void write_chrome_json(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":"
        << obs::json_quote("bigkbench " + workload_) << "}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << ",\n{\"name\":" << obs::json_quote(span.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << number(span.start_s * 1e6)
          << ",\"dur\":" << number((span.end_s - span.start_s) * 1e6)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
          << ",\"workload\":" << obs::json_quote(workload_)
          << ",\"group\":" << obs::json_quote(groups_[span.group].label)
          << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Group {
    std::string label;
    double timed_s = 0.0;
    double spent_s = 0.0;
    std::uint64_t probes = 0;
  };

  std::string workload_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Group> groups_;
  bool enabled_ = false;
  HostProbe probe_;
};

/// Host-time per-layer samples, one per traced setup repetition or pass.
using HostSamples = std::map<std::string, std::vector<double>>;

// --- workloads ----------------------------------------------------------------

/// A workload is --plans plans, each with datasets drawn from its own seed
/// derived from --seed. Timed pass i runs plan i mod --plans, so the virtual
/// metrics (the mean over the plans) are fixed by the seed while every cycle
/// of passes still times the same amount of work.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every plan; repeated, the last setup wins.
  virtual void setup(SpanLog& spans) = 0;
  virtual PassResult pass(SpanLog& spans, std::size_t plan) = 0;
  /// Host per-layer samples from the spans of one traced setup or pass.
  virtual void host_from_setup(const SpanLog& spans, std::size_t group,
                               HostSamples& out) const = 0;
  virtual void host_from_pass(const SpanLog& spans, std::size_t group,
                              HostSamples& out) const = 0;
};

// ---- pipeline: 7 apps x the configured schemes through run_scheme ----------

class PipelineApp {
 public:
  virtual ~PipelineApp() = default;
  virtual const std::string& name() const noexcept = 0;
  virtual schemes::RunMetrics run(schemes::Scheme scheme,
                                  const bigk::gpusim::SystemConfig& system,
                                  const schemes::SchemeConfig& sc) = 0;
  virtual std::uint64_t digest() const = 0;
};

template <class App>
class TypedPipelineApp final : public PipelineApp {
 public:
  explicit TypedPipelineApp(const typename App::Params& params)
      : name_(App::paper_info().name), app_(params) {}

  const std::string& name() const noexcept override { return name_; }
  schemes::RunMetrics run(schemes::Scheme scheme,
                          const bigk::gpusim::SystemConfig& system,
                          const schemes::SchemeConfig& sc) override {
    return schemes::run_scheme(scheme, system, app_, sc);
  }
  std::uint64_t digest() const override { return app_.result_digest(); }

 private:
  std::string name_;
  App app_;
};

using PipelineFactory = std::unique_ptr<PipelineApp> (*)(
    const apps::ScaledSystem&, std::uint64_t seed);

template <class App>
std::unique_ptr<PipelineApp> make_pipeline_app(const apps::ScaledSystem& scaled,
                                               std::uint64_t seed) {
  typename App::Params params;
  params.data_bytes = scaled.data_bytes(App::paper_info().paper_data_gb);
  params.seed = seed;
  return std::make_unique<TypedPipelineApp<App>>(params);
}

// The evaluation order of apps::benchmark_apps.
constexpr PipelineFactory kPipelineApps[] = {
    &make_pipeline_app<apps::KmeansApp>,
    &make_pipeline_app<apps::WordCountApp>,
    &make_pipeline_app<apps::NetflixApp>,
    &make_pipeline_app<apps::OpinionApp>,
    &make_pipeline_app<apps::DnaApp>,
    &make_pipeline_app<apps::MastercardApp>,
    &make_pipeline_app<apps::MastercardIndexedApp>,
};

/// Each seed draws every app's dataset size within this share of its scaled
/// Table I size (the device stays at the configured scale). The model is
/// deterministic, so without it a percentile set by one app's service time
/// would read the same for every seed. It is small, as the bounds on the
/// virtual metrics must cover their spread across seeds.
constexpr double kSizeJitter = 0.001;

apps::ScaledSystem jittered(const apps::ScaledSystem& scaled, apps::Rng& rng) {
  apps::ScaledSystem out = scaled;
  out.scale *= 1.0 + kSizeJitter * (2.0 * rng.unit() - 1.0);
  return out;
}

/// The schemes every pipeline app runs under: BigKernel and the two
/// baselines of the paper's speedup claims.
constexpr schemes::Scheme kSchemes[] = {schemes::Scheme::kCpuMultiThreaded,
                                        schemes::Scheme::kGpuDoubleBuffer,
                                        schemes::Scheme::kBigKernel};

constexpr obs::Stage kStages[] = {obs::Stage::kAddrGen, obs::Stage::kAssembly,
                                  obs::Stage::kTransfer, obs::Stage::kCompute,
                                  obs::Stage::kWriteback};
constexpr const char* kStageSlugs[] = {"addr_gen", "assembly", "transfer",
                                       "compute", "writeback"};

void verify_suite(const std::vector<apps::BenchApp>& suite) {
  for (const apps::BenchApp& app : suite) {
    if (!apps::static_verdict(app).passed) {
      throw std::runtime_error("app \"" + app.name +
                               "\" fails static verification");
    }
  }
}

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(const Args& args, std::uint64_t seed, std::size_t plans)
      : seed_(seed), plans_(plans) {
    scaled_.scale = args.real("scale");
    system_ = scaled_.config();
    sc_.gpu_blocks = args.positive32("gpu-blocks");
    sc_.gpu_threads_per_block = args.positive32("gpu-threads");
    sc_.bigkernel.num_blocks = args.positive32("bk-blocks");
    sc_.bigkernel.compute_threads_per_block = args.positive32("bk-threads");
    sc_.bigkernel.validate();
    sc_.check = bigk::check::CheckOptions{};  // off, whatever BIGK_CHECK says
  }

  void setup(SpanLog& spans) override {
    std::vector<apps::BenchApp> suite;
    {
      SpanLog::Scope span(spans, "setup.suite");
      suite = apps::benchmark_apps(scaled_);
    }
    {
      SpanLog::Scope span(spans, "setup.verify");
      verify_suite(suite);
    }
    {
      SpanLog::Scope span(spans, "setup.datasets");
      apps::Rng plan_seeds(seed_);
      for (Plan& plan : plans_) {
        apps::Rng seeds(plan_seeds.next());
        plan.apps.clear();
        for (const PipelineFactory factory : kPipelineApps) {
          plan.apps.push_back(factory(jittered(scaled_, seeds), seeds.next()));
        }
      }
    }
    {
      SpanLog::Scope span(spans, "setup.oracle");
      for (Plan& plan : plans_) {
        plan.oracle.clear();
        for (const auto& app : plan.apps) {
          spans.probe();
          app->run(schemes::Scheme::kCpuSerial, system_, sc_);
          plan.oracle.push_back(app->digest());
        }
      }
    }
  }

  PassResult pass(SpanLog& spans, std::size_t plan_index) override {
    const Plan& plan = plans_[plan_index];
    PassResult result;
    obs::MetricsRegistry registry;
    schemes::SchemeConfig sc = sc_;
    sc.metrics = &registry;

    std::map<schemes::Scheme, double> sim_ms;
    std::vector<double> bk_ms;
    std::vector<double> limit_ms;
    double log_vs_double = 0.0, log_vs_mt = 0.0, log_bound = 0.0;
    double overlap = 0.0, sm_busy_ms = 0.0;
    std::array<double, std::size(kStages)> stage_ms{};
    std::uint64_t chunks = 0, thread_chunks = 0, pattern_hits = 0;
    std::uint64_t addr_bytes = 0, data_bytes = 0;
    std::uint64_t h2d = 0, d2h = 0, launches = 0;

    for (std::size_t a = 0; a < plan.apps.size(); ++a) {
      PipelineApp& app = *plan.apps[a];
      std::map<schemes::Scheme, schemes::RunMetrics> runs;
      for (const schemes::Scheme scheme : kSchemes) {
        const std::string id = app.name() + " / " + schemes::scheme_tag(scheme);
        ++result.attempted;
        spans.probe();
        try {
          SpanLog::Scope span(spans, "schemes.run/" + slug(app.name()) + "/" +
                                         schemes::scheme_tag(scheme));
          runs[scheme] = app.run(scheme, system_, sc);
        } catch (const std::exception& error) {
          result.fail(id + " threw: " + error.what());
          continue;
        }
        if (app.digest() != plan.oracle[a]) {
          result.fail(id + ": output digest differs from the serial-CPU oracle");
        }
        sim_ms[scheme] += ms(runs[scheme].total_time);
      }
      if (runs.size() != std::size(kSchemes)) continue;
      const schemes::RunMetrics& bk = runs[schemes::Scheme::kBigKernel];
      const schemes::RunMetrics& dbl = runs[schemes::Scheme::kGpuDoubleBuffer];
      const schemes::RunMetrics& mt = runs[schemes::Scheme::kCpuMultiThreaded];
      // Each app's BigKernel run is one job. Its limit is the same app's
      // double-buffered time: the paper's claim, checked per app.
      bk_ms.push_back(ms(bk.total_time));
      limit_ms.push_back(ms(dbl.total_time));
      log_vs_double += std::log(schemes::speedup(dbl, bk));
      log_vs_mt += std::log(schemes::speedup(mt, bk));
      // Lower bound on the run: the busiest of the PCIe link, the busiest
      // SM, and the host threads assembling chunks.
      const double link_s =
          static_cast<double>(bk.h2d_bytes) / (system_.pcie.h2d_gbps * 1e9);
      const double assembly_s = sim::to_seconds(bk.engine.assembly_busy()) /
                                static_cast<double>(system_.cpu.hw_threads);
      log_bound += std::log(
          std::max({link_s, sim::to_seconds(bk.comp_busy), assembly_s}) /
          sim::to_seconds(bk.total_time));

      overlap += bk.prof.overlap_efficiency;
      for (std::size_t s = 0; s < std::size(kStages); ++s) {
        stage_ms[s] += ms(bk.engine.stage_busy(kStages[s]));
      }
      chunks += bk.engine.chunks;
      thread_chunks += bk.engine.thread_chunks;
      pattern_hits += bk.engine.pattern_hits;
      addr_bytes += bk.engine.addr_bytes_sent;
      data_bytes += bk.engine.data_bytes_sent;
      h2d += bk.h2d_bytes;
      d2h += bk.d2h_bytes;
      launches += bk.kernel_launches;
      sm_busy_ms += ms(bk.comp_busy);
    }

    double makespan_ms = 0.0;
    for (const double t : bk_ms) makespan_ms += t;
    put_job_metrics(result.end_to_end, bk_ms, limit_ms, plan.apps.size(),
                    makespan_ms);

    const double n = static_cast<double>(bk_ms.size());
    const auto geomean = [n](double log_sum) {
      return n == 0.0 ? 0.0 : std::exp(log_sum / n);
    };
    Values& layer = result.per_layer;
    for (std::size_t s = 0; s < std::size(kStages); ++s) {
      layer[std::string("core.stage_busy_ms.") + kStageSlugs[s]] = {
          stage_ms[s], bk_ms.size()};
    }
    layer["core.overlap_efficiency"] = {ratio(overlap, n), bk_ms.size()};
    layer["core.chunks"] = {static_cast<double>(chunks)};
    layer["core.pattern_hit_rate"] = {ratio(static_cast<double>(pattern_hits),
                                            static_cast<double>(thread_chunks))};
    layer["core.addr_traffic_frac"] = {
        ratio(static_cast<double>(addr_bytes),
              static_cast<double>(addr_bytes + data_bytes))};
    layer["core.bound_ratio"] = {geomean(log_bound), bk_ms.size()};
    layer["cusim.h2d_mb"] = {static_cast<double>(h2d) / 1e6};
    layer["cusim.d2h_mb"] = {static_cast<double>(d2h) / 1e6};
    layer["gpusim.sm_busy_ms"] = {sm_busy_ms};
    layer["gpusim.kernel_launches"] = {static_cast<double>(launches)};
    layer["schemes.sim_ms.cpu_mt"] = {sim_ms[schemes::Scheme::kCpuMultiThreaded]};
    layer["schemes.sim_ms.gpu_double"] = {
        sim_ms[schemes::Scheme::kGpuDoubleBuffer]};
    layer["schemes.sim_ms.bigkernel"] = {sim_ms[schemes::Scheme::kBigKernel]};
    layer["schemes.bk_speedup_vs_double"] = {geomean(log_vs_double),
                                             bk_ms.size()};
    layer["schemes.bk_speedup_vs_cpu_mt"] = {geomean(log_vs_mt), bk_ms.size()};
    return result;
  }

  void host_from_setup(const SpanLog& spans, std::size_t group,
                       HostSamples& out) const override {
    out["apps.dataset_host_s"].push_back(
        spans.total(group, "setup.datasets").first);
    out["verify.host_s"].push_back(spans.total(group, "setup.verify").first);
  }

  void host_from_pass(const SpanLog& spans, std::size_t group,
                      HostSamples& out) const override {
    for (const schemes::Scheme scheme : kSchemes) {
      const std::string tag = schemes::scheme_tag(scheme);
      out["schemes.host_s." + slug(tag)].push_back(
          spans.total(group, "schemes.run/", "/" + tag).first);
    }
    for (const auto& app : plans_.front().apps) {
      out["schemes.host_s." + slug(app->name())].push_back(
          spans.total(group, "schemes.run/" + slug(app->name()) + "/").first);
    }
  }

 private:
  std::uint64_t seed_;
  apps::ScaledSystem scaled_;
  bigk::gpusim::SystemConfig system_;
  schemes::SchemeConfig sc_;
  /// One dataset per app, and its serial-CPU result digest.
  struct Plan {
    std::vector<std::unique_ptr<PipelineApp>> apps;
    std::vector<std::uint64_t> oracle;
  };
  std::vector<Plan> plans_;
};

// ---- serve: a generated job plan against a device pool through run_server --

/// Forwards every call to a runner the benchmark also holds, so a finished
/// job's output can be checked after run_server returns. run() returns the
/// inner task instead of awaiting it, so no coroutine layer is added; it
/// first runs a host probe, which spreads the probes through run_server.
class RetainedRunner final : public apps::JobRunner {
 public:
  RetainedRunner(std::shared_ptr<apps::JobRunner> inner, SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  const std::string& app_name() const noexcept override {
    return inner_->app_name();
  }
  std::uint64_t num_records() const override { return inner_->num_records(); }
  std::uint64_t input_bytes() const override { return inner_->input_bytes(); }
  sim::Task<> run(bigk::cusim::Runtime& runtime,
                  const apps::JobRunConfig& cfg) override {
    spans_.probe();
    return inner_->run(runtime, cfg);
  }
  sim::Task<> run_cpu(bigk::hostsim::HostCpu& cpu,
                      const apps::CpuJobConfig& cfg) override {
    return inner_->run_cpu(cpu, cfg);
  }
  std::uint64_t output_digest(std::uint64_t records_done) override {
    return inner_->output_digest(records_done);
  }

 private:
  std::shared_ptr<apps::JobRunner> inner_;
  SpanLog& spans_;
};

/// The serve schedules (arrival instants, app order, tenants and clients)
/// come from this fixed seed, one per plan; --seed draws the dataset sizes
/// only. The bounds on the virtual metrics must cover their spread across
/// seeds, and a seeded schedule spreads job_p90_ms 3-5x wider.
constexpr std::uint64_t kScheduleSeed = 0x5C4EDu;

// The one app whose output a JobRunner exposes: K-means writes its cluster
// ids into its mapped stream (JobRunner::output_digest). The reduction apps
// keep their results in table state, which JobRunner does not expose yet.
constexpr std::string_view kCheckedApp = "K-means";

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const Args& args, std::uint64_t seed, std::size_t plans)
      : seed_(seed), plans_(plans) {
    scaled_.scale = args.real("scale");
    config_.system = scaled_.config();
    config_.devices = args.positive32("devices");
    config_.policy = serve::policy_from_name(args.get("policy"));
    config_.queue_depth = args.positive32("queue-depth");
    config_.retry_after = static_cast<sim::DurationPs>(
        args.real("retry-after-us") * static_cast<double>(sim::kMicrosecond));
    config_.max_retries = static_cast<std::uint32_t>(args.count("max-retries"));
    config_.engine.num_blocks = args.positive32("bk-blocks");
    config_.engine.compute_threads_per_block = args.positive32("bk-threads");
    config_.engine.validate();
    config_.check = bigk::check::CheckOptions{};  // off, whatever BIGK_CHECK says
    config_.cache_enabled = args.flag("cache");
    config_.dur.integrity = args.flag("integrity");
    qos_ = args.flag("qos");
    tenants_ = load::parse_tenants(args.get("tenants"));
    if (tenants_.empty()) throw std::invalid_argument("--tenants is empty");
    for (const load::TenantSpec& tenant : tenants_) {
      if (!tenant.mix.empty() || tenant.clients == 0) {
        throw std::invalid_argument("--tenants: tenant \"" + tenant.qos.name +
                                    "\" needs clients > 0 and no apps= mix "
                                    "(the mix is --apps)");
      }
    }
    app_names_ = split(args.get("apps"), '|');
    const std::vector<apps::BenchApp> suite = apps::benchmark_apps(scaled_);
    for (const std::string& name : app_names_) apps::find_app(suite, name);
    if (app_names_.empty()) throw std::invalid_argument("--apps is empty");
    rate_ = args.real("rate");
    jobs_ = args.positive32("jobs");
    if (jobs_ % app_names_.size() != 0) {
      throw std::invalid_argument("--jobs must be a multiple of the " +
                                  std::to_string(app_names_.size()) +
                                  " apps (the plan is rounds of one job each)");
    }
    limit_ms_ = args.real("limit-ms");
    if (limit_ms_ <= 0.0) throw std::invalid_argument("--limit-ms must be > 0");
  }

  void setup(SpanLog& spans) override {
    std::vector<apps::BenchApp> base;
    apps::Rng plan_seeds(seed_);
    {
      SpanLog::Scope span(spans, "setup.suite");
      base = apps::benchmark_apps(scaled_);
      for (Plan& plan : plans_) {
        // Entry i comes from a suite built at app i's jittered scale.
        apps::Rng sizes(plan_seeds.next());
        plan.suite.clear();
        for (std::size_t i = 0; i < base.size(); ++i) {
          plan.suite.push_back(apps::benchmark_apps(jittered(scaled_, sizes))[i]);
        }
      }
    }
    {
      // Verdicts depend on kernel code, not data size: verify once and share.
      SpanLog::Scope span(spans, "setup.verify");
      verify_suite(base);
      for (Plan& plan : plans_) {
        for (std::size_t i = 0; i < base.size(); ++i) {
          plan.suite[i].verdict = base[i].verdict;
        }
      }
    }
    {
      SpanLog::Scope span(spans, "load.make_load");
      apps::Rng schedule_seeds(kScheduleSeed);
      for (Plan& plan : plans_) plan.specs = make_plan(schedule_seeds.next());
    }
    {
      // Serial-CPU oracle for the checked app: a fresh runner of the plan's
      // dataset, executed on a single host core.
      SpanLog::Scope span(spans, "setup.oracle");
      const bool checked = std::find(app_names_.begin(), app_names_.end(),
                                     kCheckedApp) != app_names_.end();
      for (Plan& plan : plans_) {
        plan.oracle = 0;
        if (!checked) continue;
        spans.probe();
        std::unique_ptr<apps::JobRunner> runner =
            apps::find_app(plan.suite, kCheckedApp).make_runner();
        sim::Simulation simulation;
        bigk::cusim::Runtime runtime(simulation, config_.system);
        apps::CpuJobConfig cpu_config;
        cpu_config.threads = 1;
        simulation.run_until_complete(
            runner->run_cpu(runtime.cpu(), cpu_config));
        plan.oracle = runner->output_digest(runner->num_records());
      }
    }
    for (Plan& plan : plans_) {
      for (apps::BenchApp& app : plan.suite) {
        app.make_runner = [this, &spans, checked = app.name == kCheckedApp,
                           inner = app.make_runner] {
          SpanLog::Scope make(spans, "apps.make_runner");
          std::shared_ptr<apps::JobRunner> runner = inner();
          retained_.push_back(checked ? runner : nullptr);
          return std::make_unique<RetainedRunner>(std::move(runner), spans);
        };
      }
    }
  }

  PassResult pass(SpanLog& spans, std::size_t plan_index) override {
    const Plan& plan = plans_[plan_index];
    PassResult result;
    obs::MetricsRegistry registry;
    serve::ServerConfig config = config_;
    config.metrics = &registry;
    config.metrics_prefix = "bench";
    if (qos_) config.qos.tenants = tenant_configs_;

    result.attempted = plan.specs.size();
    retained_.clear();
    serve::ServeReport report;
    try {
      SpanLog::Scope span(spans, "serve.run_server");
      report = serve::run_server(config, plan.specs, plan.suite);
    } catch (const std::exception& error) {
      retained_.clear();
      result.failed = result.attempted;
      result.failures.push_back(std::string("run_server threw: ") +
                                error.what());
      return result;
    }
    if (retained_.size() != report.jobs.size()) {
      result.fail("run_server made " + std::to_string(retained_.size()) +
                  " runners for " + std::to_string(report.jobs.size()) +
                  " jobs");
    }

    std::vector<double> latencies_ms;
    std::array<double, 5> parts_ms{};
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      const serve::JobRecord& job = report.jobs[i];
      const std::string id =
          "job " + std::to_string(job.spec.id) + " (" + job.spec.app + ")";
      if (!job.completed) {
        // Shed by admission is a latency miss; anything else is an error.
        if (job.admitted || job.failed) result.fail(id + " did not complete");
        continue;
      }
      const serve::JobRecord::Breakdown b = job.breakdown();
      if (b.total() != job.latency()) {
        result.fail(id + ": breakdown parts do not sum to its latency");
      }
      const sim::DurationPs parts[] = {b.admission, b.queue, b.staging,
                                       b.execution, b.writeback};
      for (std::size_t p = 0; p < parts_ms.size(); ++p) {
        parts_ms[p] += ms(parts[p]);
      }
      latencies_ms.push_back(ms(job.latency()));
      if (i < retained_.size() && retained_[i] != nullptr &&
          retained_[i]->output_digest(retained_[i]->num_records()) !=
              plan.oracle) {
        result.fail(id + ": output digest differs from the serial-CPU oracle");
      }
    }
    retained_.clear();

    const std::size_t completed = latencies_ms.size();
    put_job_metrics(result.end_to_end, latencies_ms,
                    std::vector<double>(completed, limit_ms_),
                    report.jobs.size(), ms(report.makespan));

    Values& layer = result.per_layer;
    const char* part_names[] = {"admission", "queue", "staging", "execution",
                                "writeback"};
    for (std::size_t p = 0; p < parts_ms.size(); ++p) {
      layer[std::string("serve.breakdown_ms.") + part_names[p]] = {
          ratio(parts_ms[p], static_cast<double>(completed)), completed};
    }
    double util_sum = 0.0;
    double util_min = 1.0;
    std::uint64_t h2d = 0, d2h = 0, launches = 0, evictions = 0;
    for (const serve::DeviceReport& dev : report.devices) {
      util_sum += dev.utilization;
      util_min = std::min(util_min, dev.utilization);
      h2d += dev.h2d_bytes;
      d2h += dev.d2h_bytes;
      launches += dev.kernel_launches;
      evictions += dev.cache_evictions;
    }
    const std::uint64_t devices = report.devices.size();
    layer["serve.rejections_per_job"] = {
        ratio(static_cast<double>(report.rejections),
              static_cast<double>(report.jobs.size())),
        report.jobs.size()};
    layer["serve.shed"] = {static_cast<double>(report.dropped)};
    layer["serve.peak_queue_depth"] = {
        static_cast<double>(report.peak_queue_depth)};
    layer["serve.warm_hits"] = {static_cast<double>(report.warm_hits)};
    layer["serve.device_util_mean"] = {
        ratio(util_sum, static_cast<double>(devices)), devices};
    layer["serve.device_util_min"] = {util_min, devices};
    layer["core.overlap_efficiency"] = {report.overlap_efficiency};
    layer["cusim.h2d_mb"] = {static_cast<double>(h2d) / 1e6};
    layer["cusim.d2h_mb"] = {static_cast<double>(d2h) / 1e6};
    layer["gpusim.sm_busy_ms"] = {util_sum * ms(report.makespan), devices};
    layer["gpusim.kernel_launches"] = {static_cast<double>(launches)};
    layer["cache.hit_rate"] = {report.cache_hit_rate};
    layer["cache.bytes_saved_mb"] = {
        static_cast<double>(report.cache_bytes_saved) / 1e6};
    layer["cache.evictions"] = {static_cast<double>(evictions)};
    layer["dur.verified"] = {static_cast<double>(report.integrity_verified)};
    layer["load.jobs"] = {static_cast<double>(plan.specs.size())};
    layer["load.offered_jobs_per_s"] = {rate_};
    return result;
  }

  void host_from_setup(const SpanLog& spans, std::size_t group,
                       HostSamples& out) const override {
    out["verify.host_s"].push_back(spans.total(group, "setup.verify").first);
    out["load.make_load_host_s"].push_back(
        spans.total(group, "load.make_load").first);
  }

  void host_from_pass(const SpanLog& spans, std::size_t group,
                      HostSamples& out) const override {
    const auto [make_s, make_calls] = spans.total(group, "apps.make_runner");
    out["serve.self_host_s"].push_back(
        spans.self_time(group, "serve.run_server"));
    out["apps.dataset_host_s"].push_back(make_s);
    out["apps.make_runner_calls"].push_back(static_cast<double>(make_calls));
  }

 private:
  /// Generates the job plan from load::make_load's Poisson stream, then
  /// stratifies it so a schedule seed changes the order of events but not
  /// how much work arrives when. Service times differ ~10x between apps, and
  /// with a plain random plan of ~100 jobs the latency percentiles swing by
  /// tens of percent from seed to seed. The plan is a sequence of rounds:
  ///  - each round holds every app once, in seeded order;
  ///  - each round spans exactly apps / rate, and its arrivals are Poisson
  ///    conditioned on that count: k+1 consecutive make_load arrivals, scaled
  ///    so the last lands on the round's end, leave k uniform instants in
  ///    the window. Rate 0 is a batch burst: every job arrives at t=0;
  ///  - tenants follow their shares smoothly (every prefix is within one job
  ///    of its share), shuffled within each round.
  std::vector<serve::JobSpec> make_plan(std::uint64_t seed) {
    const std::size_t k = app_names_.size();
    const std::size_t rounds = jobs_ / k;
    load::LoadConfig load_config;
    load_config.arrival.kind = load::ArrivalKind::kPoisson;
    load_config.arrival.seed = seed;
    load_config.arrival.rate_per_s = rate_ > 0.0 ? rate_ : 1.0;
    load_config.duration = sim::seconds(1'000'000);
    load_config.max_jobs = rounds * (k + 1);
    load_config.tenants = tenants_;
    const load::LoadPlan poisson = load::make_load(load_config, app_names_);
    if (poisson.specs.size() != load_config.max_jobs) {
      throw std::runtime_error("make_load generated " +
                               std::to_string(poisson.specs.size()) +
                               " arrivals, expected " +
                               std::to_string(load_config.max_jobs));
    }
    tenant_configs_ = poisson.tenants;

    std::vector<double> share;
    double share_sum = 0.0;
    for (const load::TenantSpec& tenant : tenants_) share_sum += tenant.share;
    for (const load::TenantSpec& tenant : tenants_) {
      share.push_back(tenant.share / share_sum);
    }
    std::vector<std::uint64_t> client_base{1};  // 0 is the anonymous client
    for (const load::TenantSpec& tenant : tenants_) {
      client_base.push_back(client_base.back() + tenant.clients);
    }
    apps::Rng rng(seed ^ 0x5EEDC0DEull);
    const auto shuffle = [&rng](std::vector<std::uint32_t>& values) {
      for (std::size_t i = values.size(); i > 1; --i) {
        std::swap(values[i - 1], values[rng.below(i)]);
      }
    };
    const double window_ps =
        rate_ > 0.0 ? static_cast<double>(k) / rate_ * 1e12 : 0.0;
    std::vector<double> credit(tenants_.size(), 0.0);
    double prev = 0.0;
    std::vector<serve::JobSpec> specs;
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<std::uint32_t> order(k);
      std::vector<std::uint32_t> tenant(k);
      for (std::size_t i = 0; i < k; ++i) {
        order[i] = static_cast<std::uint32_t>(i);
        // Smooth weighted round robin over the tenant shares.
        for (std::size_t t = 0; t < credit.size(); ++t) credit[t] += share[t];
        const auto pick = static_cast<std::uint32_t>(
            std::max_element(credit.begin(), credit.end()) - credit.begin());
        credit[pick] -= 1.0;
        tenant[i] = pick;
      }
      shuffle(order);
      shuffle(tenant);
      const serve::JobSpec* group = &poisson.specs[r * (k + 1)];
      const double end = static_cast<double>(group[k].submit_time);
      for (std::size_t i = 0; i < k; ++i) {
        serve::JobSpec spec;
        spec.id = specs.size();
        spec.app = app_names_[order[i]];
        spec.tenant = tenant[i];
        spec.client = client_base[tenant[i]] + rng.below(tenants_[tenant[i]].clients);
        spec.deadline = tenants_[tenant[i]].qos.deadline;
        const double offset =
            (static_cast<double>(group[i].submit_time) - prev) / (end - prev);
        spec.submit_time = static_cast<sim::TimePs>(std::llround(
            (static_cast<double>(r) + offset) * window_ps));
        specs.push_back(std::move(spec));
      }
      prev = end;
    }
    return specs;
  }

  std::uint64_t seed_;
  apps::ScaledSystem scaled_;
  serve::ServerConfig config_;
  std::vector<std::string> app_names_;
  bool qos_ = true;
  std::vector<load::TenantSpec> tenants_;
  double rate_ = 0.0;
  std::uint64_t jobs_ = 0;
  double limit_ms_ = 0.0;
  std::vector<serve::TenantConfig> tenant_configs_;
  /// A suite at the plan's dataset sizes, its jobs, and the checked app's
  /// serial-CPU output digest.
  struct Plan {
    std::vector<apps::BenchApp> suite;
    std::vector<serve::JobSpec> specs;
    std::uint64_t oracle = 0;
  };
  std::vector<Plan> plans_;
  /// One entry per make_runner call of the current pass, in job order; null
  /// for apps whose output is not checked.
  std::vector<std::shared_ptr<apps::JobRunner>> retained_;
};

// --- one run ------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The mean of each virtual metric over the plans; n adds up.
Values mean_over_plans(const std::vector<Values>& plans) {
  Values mean;
  for (const Values& values : plans) {
    for (const auto& [name, sample] : values) {
      Sample& sum = mean.try_emplace(name, Sample{0.0, 0}).first->second;
      sum.value += sample.value / static_cast<double>(plans.size());
      sum.n += sample.n;
    }
  }
  return mean;
}

/// Virtual results must not depend on the pass: compares bit for bit.
bool same_values(const Values& a, const Values& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const auto& x,
                                                      const auto& y) {
           return x.first == y.first && x.second.n == y.second.n &&
                  std::memcmp(&x.second.value, &y.second.value,
                              sizeof(double)) == 0;
         });
}

/// Writes `values` in catalogue order as a JSON object and prints the same
/// table; a catalogued metric with no value reads 0 with n = 0.
template <std::size_t N>
void emit(std::ostream& json, const char* title, const MetricDef (&catalogue)[N],
          const Values& values) {
  for (const auto& entry : values) {
    if (std::none_of(std::begin(catalogue), std::end(catalogue),
                     [&](const MetricDef& d) { return entry.first == d.name; })) {
      throw std::logic_error("metric " + entry.first + " is not catalogued");
    }
  }
  std::printf("%s\n", title);
  json << '{';
  for (std::size_t i = 0; i < N; ++i) {
    const MetricDef& def = catalogue[i];
    const auto it = values.find(def.name);
    const Sample sample = it == values.end() ? Sample{0.0, 0} : it->second;
    std::printf("  %-44s %14.6f %-8s %-7s n=%llu\n", def.name, sample.value,
                def.unit, def.clock,
                static_cast<unsigned long long>(sample.n));
    json << (i == 0 ? "" : ",") << "\n    " << obs::json_quote(def.name)
         << ":{\"value\":" << number(sample.value)
         << ",\"unit\":" << obs::json_quote(def.unit)
         << ",\"clock\":" << obs::json_quote(def.clock)
         << ",\"n\":" << sample.n << '}';
  }
  json << "\n  }";
}

int run(const Args& args) {
  const std::string workload_name = args.get("workload");
  const std::string out_path = args.get("out");
  const std::uint64_t seed = args.has("seed") ? args.count("seed") : 1;
  const double seconds = args.has("seconds") ? args.real("seconds") : 10.0;
  const std::uint64_t min_passes =
      args.has("min-passes") ? args.positive32("min-passes") : 3;
  const std::uint64_t setup_reps =
      args.has("setup-reps") ? args.positive32("setup-reps") : 3;
  const std::size_t plans = args.positive32("plans");
  const bool traced = args.has("trace") && args.flag("trace");
  const std::string trace_path = args.has("trace-out") ? args.get("trace-out") : "";
  if (args.real("scale") <= 0.0) throw std::invalid_argument("--scale must be > 0");

  std::printf("bigkbench config:");
  for (const auto& [name, value] : args.values()) {
    std::printf(" --%s=%s", name.c_str(), value.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  std::unique_ptr<Workload> workload;
  if (args.kind() == Kind::kPipeline) {
    workload = std::make_unique<PipelineWorkload>(args, seed, plans);
  } else {
    workload = std::make_unique<ServeWorkload>(args, seed, plans);
  }

  SpanLog spans(workload_name);
  HostSamples host;
  // A group's host seconds since `start` without its probes: raw, and in
  // reference seconds.
  struct HostTime {
    double raw_s;
    double reference_s;
  };
  const auto host_time = [&spans](Clock::time_point start, std::size_t group) {
    const double raw = seconds_since(start) - spans.probe_s(group);
    return HostTime{raw, raw * spans.scale(group)};
  };
  std::vector<double> setup_s;
  std::vector<double> probe_ms;
  const Clock::time_point setup_start = Clock::now();
  for (std::uint64_t rep = 0;
       rep < setup_reps || seconds_since(setup_start) < 0.1 * seconds; ++rep) {
    const Clock::time_point start = Clock::now();
    const std::size_t group =
        spans.begin_group("setup " + std::to_string(rep), traced);
    workload->setup(spans);
    setup_s.push_back(host_time(start, group).reference_s);
    if (traced) workload->host_from_setup(spans, group, host);
  }

  // Passes run in cycles of every plan once, so each median covers the plans
  // alike. Traced runs alternate an untraced and a traced cycle: every plan
  // runs both ways and both modes see the same host-speed drift, so
  // trace.overhead_pct compares medians over the same inputs.
  const std::size_t cycle = plans * (traced ? 2 : 1);
  std::vector<PassResult> first(plans);
  std::vector<double> wall_s;
  std::vector<double> raw_wall_s;
  std::vector<double> traced_wall_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Once the minimums are met, the phase ends when the next cycle would finish
  // more than half a cycle after --seconds, so a run lasts about --seconds.
  const Clock::time_point timed_start = Clock::now();
  Clock::time_point cycle_start = timed_start;
  for (std::uint64_t pass = 0;; ++pass) {
    if (pass > 0 && pass % cycle == 0) {
      const double cycle_s = seconds_since(cycle_start);
      cycle_start = Clock::now();
      if (wall_s.size() >= min_passes &&
          (!traced || traced_wall_s.size() >= min_passes) &&
          seconds_since(timed_start) + 0.5 * cycle_s >= seconds) {
        break;
      }
    }
    const std::size_t plan = pass % plans;
    const bool traced_pass = traced && (pass / plans) % 2 == 1;
    const Clock::time_point start = Clock::now();
    const std::size_t group =
        spans.begin_group("pass " + std::to_string(pass), traced_pass);
    PassResult result = workload->pass(spans, plan);
    const HostTime time = host_time(start, group);
    if (traced_pass) {
      traced_wall_s.push_back(time.reference_s);
      workload->host_from_pass(spans, group, host);
    } else {
      wall_s.push_back(time.reference_s);
      raw_wall_s.push_back(time.raw_s);
      probe_ms.push_back(spans.mean_probe_s(group) * 1e3);
    }
    std::printf("pass %llu (plan %zu): %.3f s host, %.3f reference s, "
                "probe %.3f ms%s\n",
                static_cast<unsigned long long>(pass), plan, time.raw_s,
                time.reference_s, spans.mean_probe_s(group) * 1e3,
                traced_pass ? " (traced)" : "");
    std::fflush(stdout);

    attempted += result.attempted;
    failed += result.failed;
    failures.insert(failures.end(), result.failures.begin(),
                    result.failures.end());
    if (pass < plans) {
      first[plan] = std::move(result);
    } else if (!same_values(first[plan].end_to_end, result.end_to_end) ||
               !same_values(first[plan].per_layer, result.per_layer)) {
      ++failed;
      failures.push_back("pass " + std::to_string(pass) +
                         " changed a virtual metric");
    }
  }

  std::vector<Values> plan_end_to_end;
  std::vector<Values> plan_per_layer;
  for (const PassResult& result : first) {
    plan_end_to_end.push_back(result.end_to_end);
    plan_per_layer.push_back(result.per_layer);
  }
  Values end_to_end = mean_over_plans(plan_end_to_end);
  const Values virtual_layer = mean_over_plans(plan_per_layer);
  end_to_end["setup_s"] = {median(setup_s), setup_s.size()};
  end_to_end["wall_s"] = {median(wall_s), wall_s.size()};
  end_to_end["peak_rss_mb"] = {peak_rss_mb()};
  Values per_layer;
  if (traced) {
    per_layer = virtual_layer;
    for (const auto& [name, samples] : host) {
      per_layer[name] = {median(samples), samples.size()};
    }
    per_layer["trace.overhead_pct"] = {
        (ratio(median(traced_wall_s), median(wall_s)) - 1.0) * 100.0,
        traced_wall_s.size()};
    if (!trace_path.empty()) {
      std::ofstream trace_out(trace_path);
      spans.write_chrome_json(trace_out);
      if (!trace_out.good()) throw std::runtime_error("cannot write " + trace_path);
    }
  }

  std::ofstream out(out_path);
  out << "{\n  \"workload\":" << obs::json_quote(workload_name)
      << ",\n  \"config\":{";
  for (auto it = args.values().begin(); it != args.values().end(); ++it) {
    out << (it == args.values().begin() ? "" : ",")
        << obs::json_quote(it->first) << ':' << obs::json_quote(it->second);
  }
  out << "},\n  \"correct\":" << (failed == 0 ? "true" : "false")
      << ",\n  \"attempted\":" << attempted << ",\n  \"failed\":" << failed
      << ",\n  \"failed_ratio\":"
      << number(ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)))
      << ",\n  \"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i == 0 ? "" : ",") << obs::json_quote(failures[i]);
  }
  // What the reference-second scaling did: the untraced passes' median
  // unscaled time, and their median probe time against the reference's.
  std::printf("host: median pass %.4f s unscaled, median probe %.4f ms "
              "(reference %.4f ms)\n",
              median(raw_wall_s), median(probe_ms),
              HostProbe::kReferenceS * 1e3);
  out << "],\n  \"host\":{\"raw_wall_s\":" << number(median(raw_wall_s))
      << ",\"probe_ms\":" << number(median(probe_ms))
      << ",\"reference_probe_ms\":" << number(HostProbe::kReferenceS * 1e3)
      << "},\n  \"end_to_end\":";
  emit(out, "end-to-end:", kEndToEnd, end_to_end);
  out << ",\n  \"per_layer\":";
  if (traced) {
    emit(out, "per-layer:", kPerLayer, per_layer);
  } else {
    out << "{}";
  }
  if (args.kind() == Kind::kPipeline) {
    // The paper's averages are the only reference the model has.
    const auto find = [&](const char* name) {
      const auto it = virtual_layer.find(name);
      return it == virtual_layer.end() ? 0.0 : it->second.value;
    };
    const double vs_double = find("schemes.bk_speedup_vs_double");
    const double vs_mt = find("schemes.bk_speedup_vs_cpu_mt");
    std::printf("paper: BigKernel vs double buffer %.2fx (paper %.1fx, %+.0f%%), "
                "vs CPU multi-threaded %.2fx (paper %.1fx, %+.0f%%)\n",
                vs_double, kPaperVsDouble,
                (vs_double / kPaperVsDouble - 1.0) * 100.0, vs_mt, kPaperVsCpuMt,
                (vs_mt / kPaperVsCpuMt - 1.0) * 100.0);
    out << ",\n  \"paper\":{\"bk_speedup_vs_double\":{\"model\":"
        << number(vs_double) << ",\"paper\":" << number(kPaperVsDouble)
        << "},\"bk_speedup_vs_cpu_mt\":{\"model\":" << number(vs_mt)
        << ",\"paper\":" << number(kPaperVsCpuMt) << "}}";
  }
  out << "\n}\n";
  std::printf("operations: %llu attempted, %llu failed, failed_ratio %g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const std::string& why : failures) std::printf("FAILED: %s\n", why.c_str());
  if (!out.good()) throw std::runtime_error("cannot write " + out_path);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bigkbench: %s\n", error.what());
    return 2;
  }
}
