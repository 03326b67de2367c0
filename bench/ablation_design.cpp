// Design-choice ablations beyond the paper's figures, for the decisions
// DESIGN.md calls out:
//   * multi-buffering depth (the ring of buffer instances per block; the
//     paper requires >= 2 and its n-3 synchronization implies 3),
//   * number of thread blocks under the §IV.D rule that buffers are
//     allocated for *active* blocks only (fewer blocks => larger buffers =>
//     fewer synchronization points, but less CPU-side parallelism),
//   * locality-aware assembly order (§IV.B).
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

constexpr std::uint32_t kDepths[] = {2, 3, 4, 6};
constexpr std::uint32_t kBlocks[] = {4, 8, 16, 32};

std::vector<std::string> tags(const char* prefix,
                              std::span<const std::uint32_t> values) {
  std::vector<std::string> out;
  for (std::uint32_t value : values) {
    out.push_back(prefix + std::to_string(value));
  }
  return out;
}

void print_tables(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Design ablations: buffer depth / active blocks / assembly locality",
      ctx);

  std::printf("%-30s", "Buffer ring depth:");
  for (std::uint32_t depth : kDepths) std::printf("   depth=%u", depth);
  std::printf("\n");
  for (const auto& app : ctx.suite) {
    const auto row =
        bigk::bench::row_results(results, app.name, tags("depth", kDepths));
    if (row.empty()) continue;
    std::printf("%-30s", app.name.c_str());
    for (const auto* metrics : row) {
      std::printf(" %7.2fms", bigk::sim::to_milliseconds(metrics->total_time));
    }
    std::printf("\n");
  }

  std::printf("\n%-30s", "Active thread blocks (IV.D):");
  for (std::uint32_t blocks : kBlocks) std::printf("  blocks=%-2u", blocks);
  std::printf("\n");
  for (const auto& app : ctx.suite) {
    const auto row =
        bigk::bench::row_results(results, app.name, tags("blocks", kBlocks));
    if (row.empty()) continue;
    std::printf("%-30s", app.name.c_str());
    for (const auto* metrics : row) {
      std::printf(" %7.2fms", bigk::sim::to_milliseconds(metrics->total_time));
    }
    std::printf("\n");
  }

  std::printf("\n%-30s %14s %14s %8s\n", "Assembly locality (IV.B):",
              "locality on", "locality off", "gain");
  for (const auto& app : ctx.suite) {
    const auto row =
        bigk::bench::row_results(results, app.name, {"loc-on", "loc-off"});
    if (row.empty()) continue;
    const auto& on = *row[0];
    const auto& off = *row[1];
    std::printf("%-30s %11.2f ms %11.2f ms %7.2fx\n", app.name.c_str(),
                bigk::sim::to_milliseconds(on.total_time),
                bigk::sim::to_milliseconds(off.total_time),
                bigk::schemes::speedup(off, on));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("ablation_design", &argc, argv);
  Context& ctx = harness.ctx;
  ResultStore& results = harness.results;
  for (const auto& app : ctx.suite) {
    for (std::uint32_t depth : kDepths) {
      bigk::bench::register_sim_benchmark(
          app.name + "/depth" + std::to_string(depth), &results,
          [&ctx, &app, depth] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            sc.bigkernel.buffer_depth = depth;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
    for (std::uint32_t blocks : kBlocks) {
      bigk::bench::register_sim_benchmark(
          app.name + "/blocks" + std::to_string(blocks), &results,
          [&ctx, &app, blocks] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            sc.bigkernel.num_blocks = blocks;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
    for (bool locality : {true, false}) {
      bigk::bench::register_sim_benchmark(
          app.name + (locality ? "/loc-on" : "/loc-off"), &results,
          [&ctx, &app, locality] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            sc.bigkernel.locality_assembly = locality;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
  }
  const int rc = harness.run(argc, argv);
  if (rc != 0) return rc;
  print_tables(ctx, results);
  return 0;
}
