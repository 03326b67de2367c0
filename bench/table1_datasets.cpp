// Table I: application mapped-data characteristics — data size, record
// type, and the proportions of the mapped data that are read and modified.
//
// The declared proportions come from each app's record layout; a BigKernel
// run cross-checks them against the traffic the pipeline actually measured
// (bytes gathered by data assembly / bytes scattered by write-back).
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header("Table I - Application mapped data", ctx);
  std::printf("%-30s %10s %10s %-26s %8s %8s %10s %10s\n", "Application",
              "paper GB", "scaled MB", "Record type", "Read%", "Mod%",
              "meas.R%", "meas.M%");
  for (const auto& app : ctx.suite) {
    const auto& info = app.info;
    const auto row = bigk::bench::row_results(results, app.name, {"bigkernel"});
    if (row.empty()) continue;
    const auto& metrics = *row[0];
    const double data_bytes =
        static_cast<double>(ctx.scaled.data_bytes(info.paper_data_gb));
    const double measured_read =
        100.0 * static_cast<double>(metrics.engine.source_bytes_read) /
        data_bytes;
    const double measured_mod =
        100.0 * static_cast<double>(metrics.engine.write_bytes_sent) /
        data_bytes;
    std::printf("%-30s %9.1f %9.1f %-26s %7.0f%% %7.0f%% %9.1f%% %9.1f%%\n",
                app.name.c_str(), info.paper_data_gb, data_bytes / 1e6,
                info.record_type, info.read_pct, info.modified_pct,
                measured_read, measured_mod);
  }
  std::printf(
      "\nmeas.R%% counts bytes gathered by the data-assembly stage (a byte\n"
      "read twice is counted twice, e.g. boundary overfetch); meas.M%% counts\n"
      "bytes scattered back by the write-back stages.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("table1_datasets", &argc, argv);
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
