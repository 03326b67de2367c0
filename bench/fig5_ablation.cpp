// Fig. 5: incremental benefit over the single-buffer implementation of
//   (i)   overlapping computation and communication (pipelining only),
//   (ii)  + reducing the transferred data volume via prefetch addresses,
//   (iii) + laying data out for coalesced GPU accesses (full BigKernel).
//
// Paper shape: MasterCard and Word Count cannot reduce their transfer volume
// (100% of the data is read), so variant (ii) adds nothing for them; Opinion
// Finder's dominant computation also hides transfer reductions; the indexed
// MasterCard variant and Netflix benefit most from (ii).
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;
using bigk::schemes::RunMetrics;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Fig. 5 - Incremental speedup over single-buffer implementation", ctx);
  std::printf("%-30s %10s %12s %12s %12s\n", "Application", "overlap",
              "+xfer-vol", "+coalescing", "(=BigKernel)");
  for (const auto& app : ctx.suite) {
    const auto row = bigk::bench::row_results(
        results, app.name, {"gpu-single", "overlap", "reduced", "full"});
    if (row.empty()) continue;
    const RunMetrics& single = *row[0];
    const RunMetrics& overlap = *row[1];
    const RunMetrics& reduced = *row[2];
    const RunMetrics& full = *row[3];
    const double s1 = bigk::schemes::speedup(single, overlap);
    const double s2 = bigk::schemes::speedup(single, reduced);
    const double s3 = bigk::schemes::speedup(single, full);
    std::printf("%-30s %9.2fx %11.2fx %11.2fx %11.2fx\n", app.name.c_str(),
                s1, s2, s3, s3);
  }
  std::printf(
      "\nColumns are cumulative speedups vs single-buffer; the increments\n"
      "(overlap, xfer-volume reduction, memory coalescing) correspond to the\n"
      "stacked bars of the paper's Fig. 5.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("fig5_ablation", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    bigk::bench::register_sim_benchmark(
        app.name + "/gpu-single", &results, [&ctx, &app] {
          return app.run(bigk::schemes::Scheme::kGpuSingleBuffer, ctx.config,
                         ctx.scheme_config);
        });
    struct Variant {
      const char* tag;
      bigk::core::Options options;
    };
    const Variant variants[] = {
        {"overlap", bigk::core::Options::overlap_only()},
        {"reduced", bigk::core::Options::with_transfer_reduction()},
        {"full", bigk::core::Options::full()},
    };
    for (const Variant& variant : variants) {
      bigk::bench::register_sim_benchmark(
          app.name + "/" + variant.tag, &results,
          [&ctx, &app, options = variant.options] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            bigk::core::Options merged = options;
            merged.num_blocks = sc.bigkernel.num_blocks;
            merged.compute_threads_per_block =
                sc.bigkernel.compute_threads_per_block;
            sc.bigkernel = merged;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results);
  return 0;
}
