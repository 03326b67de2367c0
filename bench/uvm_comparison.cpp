// Extension benchmark (beyond the paper): BigKernel vs UVM-style demand
// paging — the programming-model-equivalent alternative that later CUDA
// releases shipped. Both launch one kernel over the whole mapped stream;
// only the data-movement machinery differs.
//
// Expected shape: demand paging moves whole 4 KiB pages (no transfer
// reduction when accessed fields are scattered), stalls warps on faults
// (no overlap), and keeps the original layout (no coalescing) — so
// BigKernel wins on every workload, most dramatically on the
// low-read-ratio ones.
#include <cstdio>

#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/wordcount.hpp"
#include "common.hpp"
#include "schemes/uvm.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Extension - BigKernel vs UVM-style demand paging", ctx);
  std::printf("%-30s %12s %12s %9s %14s %14s\n", "Application", "UVM",
              "BigKernel", "speedup", "UVM h2d", "BigKernel h2d");
  for (const auto& app : ctx.suite) {
    const auto row =
        bigk::bench::row_results(results, app.name, {"uvm", "bigkernel"});
    if (row.empty()) continue;
    const auto& uvm = *row[0];
    const auto& big = *row[1];
    std::printf("%-30s %9.2f ms %9.2f ms %8.2fx %11.1f MB %11.1f MB\n",
                app.name.c_str(), bigk::sim::to_milliseconds(uvm.total_time),
                bigk::sim::to_milliseconds(big.total_time),
                bigk::schemes::speedup(uvm, big),
                static_cast<double>(uvm.h2d_bytes) / 1e6,
                static_cast<double>(big.h2d_bytes) / 1e6);
  }
  std::printf(
      "\nBoth schemes offer the paper's programming model (one kernel over\n"
      "an arbitrarily large array); the pipeline is what BigKernel adds.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("uvm_comparison", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    bigk::bench::register_sim_benchmark(
        app.name + "/bigkernel", &results, [&ctx, &app] {
          return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config,
                         ctx.scheme_config);
        });
  }
  // UVM runs need the concrete app types; rebuild them through the suite's
  // runner with a dedicated scheme is not possible, so instantiate directly.
  ResultStore* store = &results;
  auto add_uvm = [&ctx, store](const std::string& name, auto make_app) {
    benchmark::RegisterBenchmark(
        (name + "/uvm").c_str(),
        [&ctx, store, name, make_app](benchmark::State& state) {
          auto app = make_app();
          bigk::schemes::RunMetrics metrics;
          for (auto _ : state) {
            metrics = bigk::schemes::run_gpu_uvm(ctx.config, app,
                                                 ctx.scheme_config);
            state.SetIterationTime(bigk::sim::to_seconds(metrics.total_time));
          }
          state.counters["sim_ms"] =
              bigk::sim::to_milliseconds(metrics.total_time);
          (*store)[name + "/uvm"] = metrics;
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  };
  const auto& scaled = ctx.scaled;
  add_uvm("K-means", [scaled] {
    return bigk::apps::KmeansApp({scaled.data_bytes(6.0), 11});
  });
  add_uvm("Word Count", [scaled] {
    return bigk::apps::WordCountApp({scaled.data_bytes(4.5), 22});
  });
  add_uvm("Netflix", [scaled] {
    return bigk::apps::NetflixApp({scaled.data_bytes(6.0), 33});
  });
  add_uvm("Opinion Finder", [scaled] {
    return bigk::apps::OpinionApp({scaled.data_bytes(6.2), 44});
  });
  add_uvm("DNA Assembly", [scaled] {
    return bigk::apps::DnaApp({scaled.data_bytes(4.5), 55});
  });
  add_uvm("MasterCard Affinity", [scaled] {
    return bigk::apps::MastercardApp({scaled.data_bytes(6.4), 66});
  });
  add_uvm("MasterCard Affinity (indexed)", [scaled] {
    return bigk::apps::MastercardIndexedApp({scaled.data_bytes(6.4), 77});
  });

  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_table(ctx, results);
  return 0;
}
