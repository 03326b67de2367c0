// bigkhetero ratio sweep: each application runs under the co-execution
// scheme at the single-side endpoints (CPU_ONLY = ratio 1.0, GPU_ONLY =
// ratio 0.0), a static ratio grid, and the dynamic balancer, all producing
// byte-identical results. The table reports the dynamic split's speedup over
// the *best single side* — the number that justifies co-execution: when the
// host cores contribute non-trivial throughput next to the pipelined GPU,
// splitting the chunk stream beats handing everything to either side.
//
// --cpu-ratio <r> narrows the static grid to that single ratio.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "hetero/options.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;
using bigk::schemes::RunMetrics;
using bigk::schemes::Scheme;

std::string ratio_tag(double ratio) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "static-%.2f", ratio);
  return buffer;
}

void print_table(const Context& ctx, const ResultStore& results,
                 const std::vector<double>& grid) {
  bigk::bench::print_header(
      "bigkhetero - CPU+GPU co-execution ratio sweep (time in sim ms)", ctx);
  std::printf("%-30s %10s %10s %12s %10s %8s %10s\n", "Application",
              "CPU-only", "GPU-only", "best-static", "dynamic", "dyn-r",
              "vs-best");
  double geo_gain = 0.0;
  double max_gain = 0.0;
  int apps = 0;
  int wins = 0;
  std::vector<std::string> tags = {"cpu-only", "gpu-only", "dynamic"};
  for (double ratio : grid) tags.push_back(ratio_tag(ratio));
  for (const auto& app : ctx.suite) {
    const auto row = bigk::bench::row_results(results, app.name, tags);
    if (row.empty()) continue;
    const RunMetrics& cpu_only = *row[0];
    const RunMetrics& gpu_only = *row[1];
    const RunMetrics& dynamic = *row[2];
    const RunMetrics* best_static = nullptr;
    double best_static_ratio = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const RunMetrics* entry = row[3 + i];
      if (best_static == nullptr ||
          entry->total_time < best_static->total_time) {
        best_static = entry;
        best_static_ratio = grid[i];
      }
    }
    const double best_single = bigk::sim::to_milliseconds(
        std::min(cpu_only.total_time, gpu_only.total_time));
    const double dyn_ms = bigk::sim::to_milliseconds(dynamic.total_time);
    const double gain = best_single / dyn_ms;
    std::printf("%-30s %10.3f %10.3f %7.3f@%.2f %10.3f %8.2f %9.2fx\n",
                app.name.c_str(),
                bigk::sim::to_milliseconds(cpu_only.total_time),
                bigk::sim::to_milliseconds(gpu_only.total_time),
                bigk::sim::to_milliseconds(best_static->total_time),
                best_static_ratio, dyn_ms, dynamic.hetero.final_cpu_ratio,
                gain);
    geo_gain += std::log(gain);
    max_gain = std::max(max_gain, gain);
    if (gain > 1.0) ++wins;
    ++apps;
  }
  if (apps == 0) return;
  std::printf(
      "\ndynamic vs best single side: geomean %.2fx, max %.2fx, faster on "
      "%d/%d apps\n",
      std::exp(geo_gain / apps), max_gain, wins, apps);
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("hetero_sweep", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  std::vector<double> grid = {0.25, 0.5, 0.75};
  if (harness.cpu_ratio_set()) grid = {harness.cpu_ratio()};
  for (const auto& app : ctx.suite) {
    const auto run_at = [&ctx, &app](double ratio, bool dynamic) {
      bigk::schemes::SchemeConfig sc = ctx.scheme_config;
      // Co-execution sizes the engine to half the host cores: every block
      // pins an assembly thread, so a full-width engine leaves the CPU side
      // no cores to contribute with (every endpoint below runs the same
      // engine, so the comparison stays apples-to-apples).
      sc.bigkernel.num_blocks =
          std::max<std::uint32_t>(1, ctx.config.cpu.cores / 2);
      sc.hetero.cpu_ratio = ratio;
      sc.hetero.dynamic = dynamic;
      return app.run(Scheme::kHetero, ctx.config, sc);
    };
    bigk::bench::register_sim_benchmark(
        app.name + "/cpu-only", &results,
        [run_at] { return run_at(1.0, false); });
    bigk::bench::register_sim_benchmark(
        app.name + "/gpu-only", &results,
        [run_at] { return run_at(0.0, false); });
    for (double ratio : grid) {
      bigk::bench::register_sim_benchmark(
          app.name + "/" + ratio_tag(ratio), &results,
          [run_at, ratio] { return run_at(ratio, false); });
    }
    bigk::bench::register_sim_benchmark(
        app.name + "/dynamic", &results,
        [run_at, &ctx] {
          return run_at(ctx.scheme_config.hetero.cpu_ratio, true);
        });
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results, grid);
  return 0;
}
