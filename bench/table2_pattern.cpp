// Table II: performance improvement from the access-pattern recognition of
// §IV.A — BigKernel with patterns vs BigKernel sending raw addresses.
//
// Paper shape: character-granularity apps gain most (Word Count 66%,
// MasterCard 57%, K-means 31%); coarse-granularity apps gain little
// (Netflix 3%, Opinion Finder 6%, DNA 7%); the indexed MasterCard variant
// is NA (index-driven addresses admit no stride pattern).
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Table II - Performance improvement due to access patterns", ctx);
  std::printf("%-30s %14s %12s %14s\n", "Application", "improvement",
              "hit rate", "addr traffic");
  for (const auto& app : ctx.suite) {
    const auto row = bigk::bench::row_results(results, app.name,
                                              {"pattern-on", "pattern-off"});
    if (row.empty()) continue;
    const auto& with = *row[0];
    const auto& without = *row[1];
    if (!app.pattern_applicable) {
      std::printf("%-30s %14s %11.0f%% %13s\n", app.name.c_str(), "NA",
                  100.0 * with.engine.pattern_hit_rate(), "-");
      continue;
    }
    const double improvement =
        100.0 * (static_cast<double>(without.total_time) /
                     static_cast<double>(with.total_time) -
                 1.0);
    const double traffic_ratio =
        static_cast<double>(with.engine.addr_bytes_sent) /
        static_cast<double>(without.engine.addr_bytes_sent);
    std::printf("%-30s %13.0f%% %11.0f%% %12.1f%%\n", app.name.c_str(),
                improvement, 100.0 * with.engine.pattern_hit_rate(),
                100.0 * traffic_ratio);
  }
  std::printf(
      "\n'improvement' is the speedup of pattern descriptors over raw\n"
      "addresses; 'addr traffic' is the surviving address volume.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("table2_pattern", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    for (bool enabled : {true, false}) {
      bigk::bench::register_sim_benchmark(
          app.name + (enabled ? "/pattern-on" : "/pattern-off"), &results,
          [&ctx, &app, enabled] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            sc.bigkernel.pattern_recognition = enabled;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results);
  return 0;
}
