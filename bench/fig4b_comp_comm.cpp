// Fig. 4(b): computation / communication ratio of the single-buffer GPU
// implementation for each application.
//
// Paper shape: Word Count and Opinion Finder are computation-dominant;
// K-means, Netflix, DNA Assembly and the MasterCard variants are
// communication-heavy under single buffering.
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Fig. 4(b) - Comp/comm ratio in single-buffer implementation", ctx);
  std::printf("%-30s %14s %14s %12s\n", "Application", "Computation",
              "Communication", "comp:comm");
  for (const auto& app : ctx.suite) {
    const auto row =
        bigk::bench::row_results(results, app.name, {"gpu-single"});
    if (row.empty()) continue;
    const auto& metrics = *row[0];
    const double comm = metrics.comm_fraction();
    const double comp = 1.0 - comm;
    std::printf("%-30s %13.1f%% %13.1f%% %11.2f\n", app.name.c_str(),
                comp * 100.0, comm * 100.0, comm == 0.0 ? 0.0 : comp / comm);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("fig4b_comp_comm", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    bigk::bench::register_sim_benchmark(
        app.name + "/gpu-single", &results, [&ctx, &app] {
          return app.run(bigk::schemes::Scheme::kGpuSingleBuffer, ctx.config,
                         ctx.scheme_config);
        });
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results);
  return 0;
}
