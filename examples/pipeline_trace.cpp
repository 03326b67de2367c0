// Records a BigKernel run as a unified Chrome-tracing timeline — the paper's
// Fig. 2 pipeline diagram, drawn from an actual execution, with every
// simulated subsystem on the same time axis: PCIe link transfers, DMA stream
// operations, SM compute intervals, host assembly cores, and the engine's
// five pipeline stages. Open the produced JSON in chrome://tracing or
// https://ui.perfetto.dev.
//
//   $ ./examples/pipeline_trace [--trace-out=<file>] [--metrics-json=<file>]
//   $ ./examples/pipeline_trace [out.json]           (legacy positional form)
//
// Defaults: bigkernel_trace.json, no metrics file.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/kmeans.hpp"
#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "cusim/runtime.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/stage.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

int main(int argc, char** argv) {
  using namespace bigk;
  std::string trace_path = "bigkernel_trace.json";
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(15);
    } else if (arg.rfind("--", 0) != 0) {
      trace_path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out=<file>] [--metrics-json=<file>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (trace_path.empty()) {
    std::fprintf(stderr, "error: --trace-out needs a file name\n");
    return 2;
  }

  const apps::ScaledSystem scaled{.scale = 0.002};
  sim::Simulation sim;
  cusim::Runtime runtime(sim, scaled.config());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  runtime.attach_observability(&tracer, &metrics);
  apps::KmeansApp app({.data_bytes = scaled.data_bytes(6.0), .seed = 9});

  core::Options options;
  options.num_blocks = 4;  // few blocks keep the timeline readable
  core::Engine engine(runtime, options);  // traces through the runtime
  app.reset();  // allocates the cluster-id column the kernel writes
  for (const auto& decl : app.stream_decls()) {
    engine.map_stream(decl.binding, decl.overfetch_elems);
  }
  const auto kernel = app.kernel();

  sim.run_until_complete(
      [](cusim::Runtime& rt, core::Engine& eng, apps::KmeansApp& a,
         decltype(kernel) k) -> sim::Task<> {
        core::DeviceTables tables =
            co_await core::DeviceTables::upload(rt, a.tables());
        co_await eng.launch(k, a.num_records(), tables);
        co_await tables.download();
      }(runtime, engine, app, kernel));

  {
    std::ofstream out(trace_path);
    tracer.write_chrome_json(out);
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    metrics.write_json_array(out);
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write metrics json to %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }

  sim::DurationPs stage_sum = 0;
  std::printf("engine stage busy times:\n");
  for (obs::Stage stage : obs::all_stages()) {
    const sim::DurationPs busy = engine.metrics().stage_busy(stage);
    stage_sum += busy;
    std::printf("  %-22s %8.2f ms  (spans sum to %.2f ms)\n",
                std::string(obs::stage_name(stage)).c_str(),
                sim::to_milliseconds(busy),
                sim::to_milliseconds(tracer.named_busy(obs::stage_name(stage))));
  }
  std::printf("run took %.2f ms; stages sum to %.2f ms -> %.1fx pipeline "
              "overlap\n",
              sim::to_milliseconds(sim.now()),
              sim::to_milliseconds(stage_sum),
              static_cast<double>(stage_sum) / static_cast<double>(sim.now()));

  std::printf("trace: %zu spans, %zu instants, %zu counter tracks across %zu "
              "processes:",
              tracer.spans().size(), tracer.instants().size(),
              tracer.counter_track_count(), tracer.process_count());
  for (std::uint32_t pid = 1; pid <= tracer.process_count(); ++pid) {
    std::printf(" [%s]", std::string(tracer.process_name(pid)).c_str());
  }
  std::printf("\n");
  std::printf("%llu cache hits / %llu misses on the host side; %llu kernel "
              "launches\n",
              static_cast<unsigned long long>(
                  metrics.counter("hostsim.cache_hits").value()),
              static_cast<unsigned long long>(
                  metrics.counter("hostsim.cache_misses").value()),
              static_cast<unsigned long long>(
                  metrics.counter("gpusim.kernel_launches").value()));
  std::printf("wrote %s%s%s — open it in chrome://tracing or ui.perfetto.dev\n",
              trace_path.c_str(), metrics_path.empty() ? "" : " and ",
              metrics_path.c_str());
  return 0;
}
