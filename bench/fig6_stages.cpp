// Fig. 6: relative completion time of each BigKernel pipeline stage
// (address generation, data assembly, data transfer, computation), per
// application, normalized to the slowest stage.
//
// Paper shape: address generation is always a small fraction (<~20%); the
// computation stage is the slowest for most applications (the bottleneck
// migrates from PCIe to the GPU), and data assembly varies with access
// locality.
#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Fig. 6 - Relative completion time of each BigKernel stage", ctx);
  std::printf("%-30s %10s %10s %10s %10s\n", "Application", "AddrGen",
              "Assembly", "Transfer", "Compute");
  for (const auto& app : ctx.suite) {
    const auto row = bigk::bench::row_results(results, app.name, {"bigkernel"});
    if (row.empty()) continue;
    const auto& engine = row[0]->engine;
    const double stages[4] = {
        static_cast<double>(engine.addr_gen_busy()),
        static_cast<double>(engine.assembly_busy()),
        static_cast<double>(engine.transfer_busy()),
        static_cast<double>(engine.compute_busy()),
    };
    const double longest = std::max({stages[0], stages[1], stages[2],
                                     stages[3], 1.0});
    std::printf("%-30s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", app.name.c_str(),
                100.0 * stages[0] / longest, 100.0 * stages[1] / longest,
                100.0 * stages[2] / longest, 100.0 * stages[3] / longest);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("fig6_stages", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    bigk::bench::register_sim_benchmark(
        app.name + "/bigkernel", &results, [&ctx, &app] {
          return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config,
                         ctx.scheme_config);
        });
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results);
  return 0;
}
