// Fig. 4(a): speedup of every implementation over the serial CPU baseline,
// for all six applications plus the indexed MasterCard variant.
//
// Paper shape to reproduce: BigKernel beats single buffering everywhere
// (avg ~2.6x, up to ~4.6x) and double buffering everywhere (avg ~1.7x, up to
// ~3.1x), and averages ~3.0x over the multi-threaded CPU implementation;
// Word Count and Opinion Finder gain least (compute-dominant), non-indexed
// MasterCard barely beats double buffering while the indexed variant gains
// substantially.
#include <cmath>
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;
using bigk::schemes::RunMetrics;
using bigk::schemes::Scheme;

constexpr Scheme kSchemes[] = {
    Scheme::kCpuSerial, Scheme::kCpuMultiThreaded, Scheme::kGpuSingleBuffer,
    Scheme::kGpuDoubleBuffer, Scheme::kBigKernel,
};

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Fig. 4(a) - Application speedup over serial CPU implementation", ctx);
  std::printf("%-30s %10s %10s %10s %10s %10s\n", "Application", "CPU-MT",
              "GPU-1buf", "GPU-2buf", "BigKernel", "BK/2buf");
  double geo_mt = 0.0, geo_single = 0.0, geo_double = 0.0, geo_big = 0.0;
  double max_over_double = 0.0, max_over_single = 0.0, max_over_mt = 0.0;
  int apps = 0;
  for (const auto& app : ctx.suite) {
    const auto row = bigk::bench::row_results(
        results, app.name,
        {"serial", "cpu-mt", "gpu-single", "gpu-double", "bigkernel"});
    if (row.empty()) continue;
    const RunMetrics& serial = *row[0];
    const RunMetrics& mt = *row[1];
    const RunMetrics& single = *row[2];
    const RunMetrics& dbl = *row[3];
    const RunMetrics& big = *row[4];
    const double s_mt = bigk::schemes::speedup(serial, mt);
    const double s_single = bigk::schemes::speedup(serial, single);
    const double s_double = bigk::schemes::speedup(serial, dbl);
    const double s_big = bigk::schemes::speedup(serial, big);
    std::printf("%-30s %9.2fx %9.2fx %9.2fx %9.2fx %9.2fx\n",
                app.name.c_str(), s_mt, s_single, s_double, s_big,
                s_big / s_double);
    geo_mt += std::log(s_mt);
    geo_single += std::log(s_single);
    geo_double += std::log(s_double);
    geo_big += std::log(s_big);
    max_over_double = std::max(max_over_double, s_big / s_double);
    max_over_single = std::max(max_over_single, s_big / s_single);
    max_over_mt = std::max(max_over_mt, s_big / s_mt);
    ++apps;
  }
  if (apps == 0) return;
  const double n = apps;
  std::printf("%-30s %9.2fx %9.2fx %9.2fx %9.2fx\n", "geomean",
              std::exp(geo_mt / n), std::exp(geo_single / n),
              std::exp(geo_double / n), std::exp(geo_big / n));
  std::printf(
      "\nBigKernel vs single buffer : avg %.2fx, max %.2fx  (paper: 2.6x / 4.6x)\n",
      std::exp((geo_big - geo_single) / n), max_over_single);
  std::printf(
      "BigKernel vs double buffer : avg %.2fx, max %.2fx  (paper: 1.7x / 3.1x)\n",
      std::exp((geo_big - geo_double) / n), max_over_double);
  std::printf(
      "BigKernel vs CPU multi-thr : avg %.2fx, max %.2fx  (paper: 3.0x / 7.2x)\n",
      std::exp((geo_big - geo_mt) / n), max_over_mt);
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("fig4a_speedup", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    for (Scheme scheme : kSchemes) {
      const char* tag = nullptr;
      switch (scheme) {
        case Scheme::kCpuSerial: tag = "serial"; break;
        case Scheme::kCpuMultiThreaded: tag = "cpu-mt"; break;
        case Scheme::kGpuSingleBuffer: tag = "gpu-single"; break;
        case Scheme::kGpuDoubleBuffer: tag = "gpu-double"; break;
        case Scheme::kBigKernel: tag = "bigkernel"; break;
        case Scheme::kHetero: continue;  // swept by hetero_sweep instead
      }
      bigk::bench::register_sim_benchmark(
          app.name + "/" + tag, &results,
          [&ctx, &app, scheme] {
            return app.run(scheme, ctx.config, ctx.scheme_config);
          });
    }
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results);
  return 0;
}
