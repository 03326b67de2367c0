// Shared benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (§V-VI). Measurements are *simulated* time from the
// deterministic discrete-event model, reported through google-benchmark's
// manual-time mode; after the benchmark pass each binary prints the
// corresponding paper-style table.
//
// Environment knobs:
//   BIGK_SCALE   capacity scale vs. the paper's testbed (default 0.005,
//                i.e. 1/200: a 6 GB input becomes ~30 MB against a ~10 MB
//                GPU). Any value keeps every ratio intact; smaller is
//                faster.
//
// Numeric flags and BIGK_SCALE are parsed whole by the shared spec
// tokenizer (sim/spec.hpp); BIGK_SCALE, --offered-load and the counts must
// be positive. A malformed or out-of-range value ("8abc", "0.0O1", a seed
// past 64 bits) stops the binary with exit status 1 and an error naming the
// flag.
//
// Command-line flags are stripped before google-benchmark sees argv;
// Harness::print_harness_help() is their one list (`--help` prints it before
// google-benchmark's own help).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common.hpp"
#include "apps/registry.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "schemes/metrics.hpp"
#include "schemes/runners.hpp"
#include "sim/spec.hpp"
#include "sim/time.hpp"

namespace bigk::bench {

/// A strictly positive T for a numeric flag or environment knob. Throws
/// std::invalid_argument naming `flag` and the value.
template <class T>
T parse_positive(std::string_view value, const char* flag) {
  return sim::spec::Field{flag, {}, value}.positive<T>();
}

/// Runs `parse`; a std::invalid_argument becomes "error: <what>" on stderr
/// and exit status 1, so a malformed flag stops the binary before it runs.
template <class Parse>
auto or_exit(Parse parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(1);
  }
}

/// The --offered-load list: comma-separated positive multipliers, at least
/// one. Throws std::invalid_argument naming the flag.
inline std::vector<double> parse_multipliers(std::string_view text) {
  std::vector<double> multipliers;
  for (const std::string_view token : sim::spec::split(text, ',')) {
    multipliers.push_back(parse_positive<double>(token, "--offered-load"));
  }
  if (multipliers.empty()) {
    sim::spec::fail("--offered-load", {}, text, "needs at least one value");
  }
  return multipliers;
}

/// The serving-layer flag values, as the serve scenario catalogue
/// (serve_scenarios.hpp) reads them. Harness fills it from argv; a test
/// fills it directly.
struct ServeFlags {
  std::uint32_t devices = 1;
  std::uint32_t jobs = 32;
  std::string policy = "least-bytes";
  bool cache = false;
  /// Cache partition per device; 0 = a quarter of the device arena.
  std::uint64_t cache_bytes = 0;
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  /// Attribution window in picoseconds; 0 = not requested.
  sim::DurationPs prof_window = 0;
  std::string slo_spec;
  std::string arrival_spec;
  std::string tenants_spec;
  /// Generated-workload window in picoseconds; 0 = scenario default.
  sim::DurationPs duration = 0;
  /// Offered-load multipliers; empty = serve_load's default sweep.
  std::vector<double> offered_load;
};

struct Context {
  apps::ScaledSystem scaled;
  gpusim::SystemConfig config;
  schemes::SchemeConfig scheme_config;
  std::vector<apps::BenchApp> suite;

  static Context from_env() {
    Context ctx;
    ctx.scaled.scale = 0.005;
    if (const char* env = std::getenv("BIGK_SCALE")) {
      ctx.scaled.scale = parse_positive<double>(env, "BIGK_SCALE");
    }
    ctx.config = ctx.scaled.config();
    ctx.scheme_config.gpu_blocks = 32;
    ctx.scheme_config.gpu_threads_per_block = 256;
    ctx.scheme_config.bigkernel.num_blocks = 8;
    ctx.scheme_config.bigkernel.compute_threads_per_block = 128;
    ctx.suite = apps::benchmark_apps(ctx.scaled);
    return ctx;
  }
};

/// Results store keyed by "app/variant"; populated by benchmark bodies and
/// consumed by the table printer after RunSpecifiedBenchmarks().
using ResultStore = std::map<std::string, schemes::RunMetrics>;

/// The entries "<app>/<tag>" one table row shows, in the order of `tags`.
/// Empty when any of them did not run (a --benchmark_filter can leave some
/// out), so a table prints a row only for an app whose entries all ran.
inline std::vector<const schemes::RunMetrics*> row_results(
    const ResultStore& results, const std::string& app,
    const std::vector<std::string>& tags) {
  std::vector<const schemes::RunMetrics*> row;
  row.reserve(tags.size());
  for (const std::string& tag : tags) {
    const auto it = results.find(app + "/" + tag);
    if (it == results.end()) return {};
    row.push_back(&it->second);
  }
  return row;
}

/// Registers a google-benchmark entry that performs `run` once, reports its
/// simulated completion time as manual time, and stores the metrics.
inline void register_sim_benchmark(
    const std::string& name, ResultStore* store,
    std::function<schemes::RunMetrics()> run) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [store, name, run](benchmark::State& state) {
        schemes::RunMetrics metrics;
        for (auto _ : state) {
          metrics = run();
          state.SetIterationTime(sim::to_seconds(metrics.total_time));
        }
        state.counters["sim_ms"] = sim::to_milliseconds(metrics.total_time);
        state.counters["h2d_MB"] =
            static_cast<double>(metrics.h2d_bytes) / 1e6;
        state.counters["d2h_MB"] =
            static_cast<double>(metrics.d2h_bytes) / 1e6;
        (*store)[name] = metrics;
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

inline void print_header(const char* title, const Context& ctx) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("scale=%g (paper sizes x scale; all rate ratios scale-free)\n",
              ctx.scaled.scale);
  std::printf("================================================================\n");
}

/// Per-binary harness: owns the Context, the result store, and the telemetry
/// sinks, and handles the --metrics-json=/--trace-out= flags (which must be
/// stripped from argv before benchmark::Initialize rejects them).
///
///   int main(int argc, char** argv) {
///     bigk::bench::Harness harness("fig4a_speedup", &argc, argv);
///     ... register_sim_benchmark(..., &harness.results, ...) ...
///     const int rc = harness.run(argc, argv);
///     if (rc != 0) return rc;
///     print_table(harness.ctx, harness.results);
///   }
class Harness {
 public:
  Context ctx;
  ResultStore results;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ServeFlags serve_flags;

  Harness(std::string name, int* argc, char** argv)
      : ctx(or_exit(Context::from_env)), name_(std::move(name)) {
    or_exit([&] { strip_output_flags(argc, argv); });
    if (serve_flags.prof_window > 0) {
      ctx.scheme_config.prof_window = serve_flags.prof_window;
    }
    // The registry is always live (counters are cheap and feed the JSON
    // dump); the tracer only when a trace was requested, since it retains
    // every span of every benchmark run.
    ctx.scheme_config.metrics = &metrics;
    if (!trace_path_.empty()) ctx.scheme_config.tracer = &tracer;
    if (check_requested_) {
      ctx.scheme_config.check = check::CheckOptions::all_enabled();
      std::printf("bigkcheck: memcheck+racecheck+pipecheck enabled\n");
    }
    if (!serve_flags.fault_spec.empty()) {
      // One plane shared by every BigKernel run of the binary (baseline
      // schemes have no recovery path and do not inject): injection
      // counters accumulate across runs, and nth/every triggers count
      // eligible operations binary-wide. Serving-layer benches instead pass
      // the spec through ServerConfig so each device pool gets its own
      // plane.
      fault_plane_.emplace(serve_flags.fault_seed);
      fault_plane_->add_all(or_exit(
          [&] { return fault::FaultSpec::parse(serve_flags.fault_spec); }));
      fault_plane_->attach_observability(&metrics,
                                         ctx.scheme_config.tracer);
      ctx.scheme_config.fault_plane = &*fault_plane_;
      std::printf("bigkfault: injecting \"%s\" (seed %llu)\n",
                  serve_flags.fault_spec.c_str(),
                  static_cast<unsigned long long>(serve_flags.fault_seed));
    }
  }

  /// Runs the registered benchmarks and, on success, writes the requested
  /// output files.
  int run(int argc, char** argv) {
    const int rc = run_benchmarks(argc, argv);
    if (rc != 0) return rc;
    return write_outputs() ? 0 : 1;
  }

  // bigkhetero knob (--cpu-ratio); default matches hetero::Options.
  double cpu_ratio() const noexcept { return cpu_ratio_; }
  bool cpu_ratio_set() const noexcept { return cpu_ratio_set_; }

  /// Parses a fraction in [0, 1] for ratio-valued flags. Throws
  /// std::invalid_argument on malformed input (empty, non-numeric, trailing
  /// garbage, non-finite) or out-of-range values — callers report the
  /// message and exit instead of silently clamping a typo into a valid
  /// split.
  static double parse_ratio(const std::string& value, const char* flag) {
    const sim::spec::Field field{flag, {}, value};
    const double parsed = field.number<double>();
    if (parsed < 0.0 || parsed > 1.0) field.fail("must be within [0, 1]");
    return parsed;
  }

  /// Returns false (after printing to stderr) if an output file could not
  /// be written, so the caller can exit non-zero instead of silently
  /// dropping the requested data.
  bool write_outputs() {
    bool ok = true;
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      write_metrics_json(out);
      if (!out.good()) {
        std::fprintf(stderr, "error: cannot write metrics json to %s\n",
                     metrics_path_.c_str());
        ok = false;
      } else {
        std::printf("metrics json: %s\n", metrics_path_.c_str());
      }
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      tracer.write_chrome_json(out);
      if (!out.good()) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     trace_path_.c_str());
        ok = false;
      } else {
        std::printf("trace (load in https://ui.perfetto.dev): %s\n",
                    trace_path_.c_str());
      }
    }
    return ok;
  }

  /// The --metrics-json document: identification, one entry per benchmark
  /// result (full RunMetrics incl. comm_fraction and the engine stage
  /// breakdown), and the cross-subsystem counter registry.
  void write_metrics_json(std::ostream& out) const {
    out << "{\"benchmark\":" << obs::json_quote(name_)
        << ",\"scale\":" << obs::json_number(ctx.scaled.scale)
        << ",\"results\":[";
    bool first = true;
    for (const auto& [key, run_metrics] : results) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":" << obs::json_quote(key) << ",\"metrics\":";
      run_metrics.write_json(out);
      out << '}';
    }
    out << "],\"counters\":";
    metrics.write_json_array(out);
    out << "}\n";
  }

 private:
  void strip_output_flags(int* argc, char** argv) {
    // Valued flags accept "--flag=value" and "--flag value"; `take` handles
    // both and consumes the value argument in the space-separated form.
    int kept = 1;
    std::string value;
    const auto take = [&](int* i, std::string_view arg,
                          std::string_view flag) -> bool {
      if (arg.rfind(flag, 0) == 0 && arg.size() > flag.size() &&
          arg[flag.size()] == '=') {
        value = arg.substr(flag.size() + 1);
        return true;
      }
      if (arg == flag && *i + 1 < *argc) {
        value = argv[++*i];
        return true;
      }
      return false;
    };
    for (int i = 1; i < *argc; ++i) {
      const std::string_view arg = argv[i];
      if (take(&i, arg, "--metrics-json")) {
        metrics_path_ = value;
      } else if (take(&i, arg, "--trace-out")) {
        trace_path_ = value;
      } else if (arg == "--check") {
        check_requested_ = true;
      } else if (take(&i, arg, "--devices")) {
        serve_flags.devices = parse_positive<std::uint32_t>(value, "--devices");
      } else if (take(&i, arg, "--jobs")) {
        serve_flags.jobs = parse_positive<std::uint32_t>(value, "--jobs");
      } else if (take(&i, arg, "--policy")) {
        serve_flags.policy = value;
      } else if (arg == "--cache") {
        serve_flags.cache = true;
      } else if (take(&i, arg, "--cache-bytes")) {
        serve_flags.cache = true;
        serve_flags.cache_bytes =
            parse_positive<std::uint64_t>(value, "--cache-bytes");
      } else if (take(&i, arg, "--fault")) {
        serve_flags.fault_spec = value;
      } else if (take(&i, arg, "--fault-seed")) {
        serve_flags.fault_seed =
            parse_positive<std::uint64_t>(value, "--fault-seed");
      } else if (take(&i, arg, "--prof-window")) {
        serve_flags.prof_window = sim::microseconds(
            parse_positive<std::uint32_t>(value, "--prof-window"));
      } else if (take(&i, arg, "--slo")) {
        serve_flags.slo_spec = value;
      } else if (take(&i, arg, "--arrival")) {
        serve_flags.arrival_spec = value;
      } else if (take(&i, arg, "--tenants")) {
        serve_flags.tenants_spec = value;
      } else if (take(&i, arg, "--duration")) {
        serve_flags.duration = sim::microseconds(
            parse_positive<std::uint32_t>(value, "--duration"));
      } else if (take(&i, arg, "--offered-load")) {
        serve_flags.offered_load = parse_multipliers(value);
      } else if (take(&i, arg, "--cpu-ratio")) {
        cpu_ratio_ = parse_ratio(value, "--cpu-ratio");
        cpu_ratio_set_ = true;
      } else {
        if (arg == "--help") print_harness_help();
        argv[kept++] = argv[i];  // --help falls through to google-benchmark
      }
    }
    for (int i = kept; i < *argc; ++i) argv[i] = nullptr;
    *argc = kept;
  }

  static void print_harness_help() {
    std::printf(
        "bigk harness flags (in addition to google-benchmark's):\n"
        "  --metrics-json=<file>  write results + telemetry counters as JSON\n"
        "                         (scripts/bench_compare.py gates its results)\n"
        "  --trace-out=<file>     write a Chrome-tracing/Perfetto timeline\n"
        "  --check                run under the bigkcheck sanitizers\n"
        "                         (memcheck + racecheck + pipecheck), as\n"
        "                         BIGK_CHECK=1 does\n"
        "  --devices <N>          serving benches: device-pool size\n"
        "  --jobs <N>             serving benches: jobs in the workload\n"
        "  --policy <name>        serving benches: round-robin, least-bytes\n"
        "                         (default), or app-affinity\n"
        "  --cache                serving benches: per-device bigkcache chunk\n"
        "                         cache + pinned assembly pool\n"
        "  --cache-bytes <N>      cache partition bytes per device (implies\n"
        "                         --cache; default: arena / 4)\n"
        "  --fault <spec>         fault spec(s) for every BigKernel scheme\n"
        "                         run; serving benches give each scenario's\n"
        "                         device pool its own plane\n"
        "                         (e.g. dma_error,nth=3)\n"
        "  --fault-seed <N>       fault-plane seed (default 1)\n"
        "  --prof-window <us>     bigkprof attribution window in simulated\n"
        "                         microseconds; serving benches pass it as\n"
        "                         ServerConfig::prof_window\n"
        "  --slo <rules>          serving benches: ';'-separated SLO rules,\n"
        "                         e.g. \"p99_ms <= 5; utilization >= 0.2\"\n"
        "  --arrival <spec>       bigkload: arrival process, e.g.\n"
        "                         \"poisson,rate=20000,seed=7\"\n"
        "  --tenants <spec>       bigkload: ';'-separated tenant specs\n"
        "  --duration <us>        bigkload: workload window (simulated us)\n"
        "  --offered-load <list>  bigkload: sweep multipliers, e.g.\n"
        "                         \"0.5,1.5,2.5\" (x calibrated capacity)\n"
        "  --cpu-ratio <r>        bigkhetero: CPU share of each chunk window\n"
        "                         in [0, 1]; malformed/out-of-range values\n"
        "                         are rejected, not clamped\n"
        "Valued flags accept both --flag=value and --flag value.\n\n");
  }

  std::string name_;
  std::string metrics_path_;
  std::string trace_path_;
  bool check_requested_ = false;
  std::optional<fault::FaultPlane> fault_plane_;
  double cpu_ratio_ = 0.25;
  bool cpu_ratio_set_ = false;
};

}  // namespace bigk::bench
