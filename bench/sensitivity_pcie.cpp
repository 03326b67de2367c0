// Sensitivity study (beyond the paper): how the scheme ranking shifts with
// PCIe bandwidth — where the crossovers fall.
//
// The paper's premise is that PCIe starves the GPU for this workload class.
// Sweeping the effective link bandwidth shows (i) BigKernel's advantage over
// double buffering shrinking as the link fattens (overlap and volume
// reduction stop mattering when transfers are free) while (ii) the
// coalescing benefit persists, and (iii) the compute-dominant apps are
// insensitive throughout.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::gpusim::SystemConfig;
using bigk::bench::ResultStore;

constexpr double kBandwidths[] = {2.0, 4.0, 8.0, 16.0, 32.0};

std::string tag(double gbps, const char* scheme) {
  return std::to_string(static_cast<int>(gbps)) + "/" + scheme;
}

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Sensitivity - BigKernel speedup over double buffering vs PCIe "
      "bandwidth",
      ctx);
  std::printf("%-30s", "Application \\ link GB/s");
  for (double gbps : kBandwidths) std::printf("%9.0f", gbps);
  std::printf("\n");
  std::vector<std::string> tags;
  for (double gbps : kBandwidths) {
    tags.push_back(tag(gbps, "double"));
    tags.push_back(tag(gbps, "bigkernel"));
  }
  for (const auto& app : ctx.suite) {
    const auto row = bigk::bench::row_results(results, app.name, tags);
    if (row.empty()) continue;
    std::printf("%-30s", app.name.c_str());
    for (std::size_t i = 0; i < row.size(); i += 2) {
      std::printf("%8.2fx", bigk::schemes::speedup(*row[i], *row[i + 1]));
    }
    std::printf("\n");
  }
  std::printf(
      "\nColumns are BigKernel / double-buffer time ratios at each link\n"
      "bandwidth. Communication-bound apps converge toward the residual\n"
      "coalescing benefit as the link fattens; compute-bound apps are flat.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("sensitivity_pcie", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    for (double gbps : kBandwidths) {
      SystemConfig config = ctx.config;
      config.pcie.h2d_gbps = gbps;
      config.pcie.d2h_gbps = gbps;
      bigk::bench::register_sim_benchmark(
          app.name + "/" + tag(gbps, "double"), &results,
          [&ctx, &app, config] {
            return app.run(bigk::schemes::Scheme::kGpuDoubleBuffer, config,
                           ctx.scheme_config);
          });
      bigk::bench::register_sim_benchmark(
          app.name + "/" + tag(gbps, "bigkernel"), &results,
          [&ctx, &app, config] {
            return app.run(bigk::schemes::Scheme::kBigKernel, config,
                           ctx.scheme_config);
          });
    }
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results);
  return 0;
}
