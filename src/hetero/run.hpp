// bigkhetero co-execution runner: partitions a job's chunk stream between
// the host cores (plain CPU runner path — no staging, no DMA) and the
// BigKernel engine, window by window. Each window is split at the balancer's
// current ratio; the GPU side takes the leading chunks, the CPU side the
// trailing ones, and both run concurrently on one Simulation. The CPU side
// mutates a private TableSet copy whose deltas are folded into the
// downloaded GPU tables afterwards (see table_merge.hpp), so the final
// output is byte-identical across every split ratio.
//
// Faults: SchemeConfig::fault_plane is installed on the runtime exactly as
// run_bigkernel does. Only the engine's pipeline has injection sites, so a
// stall fault degrades the GPU side alone — the DynamicBalancer observes
// the throughput drop and shifts subsequent windows toward the CPU.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "schemes/runners.hpp"

#include "hetero/options.hpp"
#include "hetero/splitter.hpp"
#include "hetero/table_merge.hpp"
#include "sim/hash.hpp"

namespace bigk::hetero {

namespace detail {

/// Fewest chunks in a dynamic re-split window. A window is half of the
/// remaining chunks, at least this many: the geometric shrink lets early
/// rounds amortise the engine's fixed launch latency while late rounds
/// still adapt.
inline constexpr std::uint64_t kMinWindowChunks = 4;

/// EWMA smoothing factor for the balancer's per-side throughput
/// observations (1 would use only the latest round).
inline constexpr double kEwmaAlpha = 0.5;

/// bigkdur digest of the CPU side's private table copies — taken when the
/// CPU rounds finish, re-verified by run_hetero before merge_tables folds
/// the deltas into the app's tables.
inline std::uint64_t tables_digest(const core::TableSet& tables) {
  sim::Digest sum;
  for (std::uint32_t id = 0; id < tables.size(); ++id) {
    sum.mix_bytes(tables.raw_bytes(id));
  }
  return sum.value();
}

/// One round's GPU side: the engine's window launch over records
/// [rec_begin, rec_end). Records the side's completion time.
template <class Kernel>
sim::Task<> gpu_round(core::Engine& engine, Kernel kernel,
                      std::uint64_t rec_begin, std::uint64_t rec_end,
                      const core::DeviceTables& tables, sim::Simulation& sim,
                      sim::TimePs* done) {
  co_await schemes::launch_window(engine, kernel, rec_begin, rec_end, tables);
  *done = sim.now();
}

/// One round's CPU side: the record range fans out over `threads` host
/// threads through the same cpu_fan_out run_cpu uses.
template <class Kernel>
sim::Task<> cpu_round(hostsim::HostCpu& cpu,
                      std::vector<core::StreamBinding>& bindings,
                      core::TableSet& tables, Kernel kernel,
                      std::uint64_t rec_begin, std::uint64_t rec_end,
                      std::uint32_t threads, std::uint64_t batch,
                      sim::TimePs* done) {
  co_await schemes::detail::cpu_fan_out(cpu, bindings, tables, kernel,
                                        rec_begin, rec_end, threads, batch);
  *done = cpu.sim().now();
}

/// The co-execution main loop. Free function (not a capturing lambda) so the
/// coroutine frame only references state owned by run_hetero's stack, which
/// outlives the run_until_complete call.
template <class App, class Kernel>
sim::Task<> co_exec_main(cusim::Runtime& runtime, core::Engine& engine,
                         App& app, Kernel kernel,
                         std::vector<core::StreamBinding>& bindings,
                         core::TableSet& cpu_tables,
                         const ChunkSplitter& splitter,
                         DynamicBalancer& balancer, const Options& ho,
                         const schemes::SchemeConfig& sc,
                         std::uint32_t cpu_threads,
                         schemes::RunMetrics* out,
                         std::uint64_t* cpu_digest) {
  sim::Simulation& sim = runtime.sim();
  obs::TrackId gpu_track{};
  obs::TrackId cpu_track{};
  std::uint32_t trace_pid = 0;
  if (sc.tracer != nullptr) {
    trace_pid = sc.tracer->process("hetero");
    gpu_track = sc.tracer->thread(trace_pid, "gpu side");
    cpu_track = sc.tracer->thread(trace_pid, "cpu side");
  }

  std::optional<core::DeviceTables> dev_tables;
  const std::uint64_t total_chunks = splitter.num_chunks();
  std::uint64_t next = 0;
  while (next < total_chunks) {
    const std::uint64_t remaining = total_chunks - next;
    std::uint64_t window = remaining;
    if (ho.dynamic) {
      window = std::min(remaining,
                        std::max(kMinWindowChunks, remaining / 2));
    }
    const ChunkSplitter::Split split =
        ChunkSplitter::split_window(next, next + window, balancer.ratio());
    const sim::TimePs t0 = sim.now();
    sim::TimePs gpu_done = t0;
    sim::TimePs cpu_done = t0;

    std::vector<sim::Process> sides;
    if (split.gpu_chunks() > 0) {
      if (!dev_tables.has_value()) {
        dev_tables.emplace(
            co_await core::DeviceTables::upload(runtime, app.tables()));
      }
      const std::uint64_t rb = splitter.rec_begin(split.gpu_begin);
      const std::uint64_t re = splitter.rec_end(split.gpu_end - 1);
      out->hetero.gpu_records += re - rb;
      sides.push_back(sim.spawn(gpu_round(engine, kernel, rb, re,
                                          *dev_tables, sim, &gpu_done)));
    }
    if (split.cpu_chunks() > 0) {
      const std::uint64_t rb = splitter.rec_begin(split.cpu_begin);
      const std::uint64_t re = splitter.rec_end(split.cpu_end - 1);
      out->hetero.cpu_records += re - rb;
      sides.push_back(sim.spawn(cpu_round(
          runtime.cpu(), bindings, cpu_tables, kernel, rb, re, cpu_threads,
          sc.cpu_batch_records, &cpu_done)));
    }
    for (sim::Process& side : sides) co_await side.join();

    if (sc.tracer != nullptr) {
      if (split.gpu_chunks() > 0) {
        sc.tracer->complete(gpu_track, "gpu round", t0, gpu_done);
      }
      if (split.cpu_chunks() > 0) {
        sc.tracer->complete(cpu_track, "cpu round", t0, cpu_done);
      }
    }
    if (ho.dynamic) {
      balancer.observe(split.cpu_chunks(), cpu_done - t0, split.gpu_chunks(),
                       gpu_done - t0);
      if (sc.tracer != nullptr) {
        sc.tracer->counter_set(trace_pid, "cpu_ratio", sim.now(),
                               balancer.ratio());
      }
    }
    ++out->hetero.rounds;
    next += window;
  }

  // The CPU partition's results are complete here; seal them for the
  // pre-merge custody check.
  if (cpu_digest != nullptr) *cpu_digest = tables_digest(cpu_tables);

  if (dev_tables.has_value()) {
    co_await dev_tables->download();
    dev_tables->release();
  }
}

}  // namespace detail

/// Runs `app` under CPU+GPU co-execution per sc.hetero and returns the usual
/// RunMetrics (scheme kHetero, the engine's metrics totalled over every GPU
/// round, RunMetrics::hetero filled with the split summary).
template <class App>
schemes::RunMetrics run_hetero(const gpusim::SystemConfig& config, App& app,
                               const schemes::SchemeConfig& sc) {
  const Options& ho = sc.hetero;
  app.reset();
  schemes::RunScaffold run(config, sc, sc.fault_plane);

  auto bindings = schemes::detail::make_bindings(app.stream_decls());
  const std::uint64_t num_records = app.num_records();
  const std::uint64_t rpc =
      ho.records_per_chunk > 0
          ? ho.records_per_chunk
          : std::max<std::uint64_t>(
                1, schemes::detail::ceil_div(num_records, 64));
  const ChunkSplitter splitter(num_records, rpc);
  DynamicBalancer balancer(ho.cpu_ratio, detail::kEwmaAlpha);

  // The CPU side runs against private table copies; `snapshot` is the
  // pre-run state the merge subtracts to recover the CPU-side deltas.
  const core::TableSet snapshot = app.tables();
  core::TableSet cpu_tables = app.tables();
  // Host cores are the shared resource: the engine pins one assembly thread
  // per block (plus a mostly idle scatter thread when the app writes), so
  // the CPU side takes only the cores assembly leaves free, at least one.
  // Sizing both sides at the full core count just makes them time-slice
  // each other — every record the CPU side gains costs the engine an
  // assembly slot.
  const std::uint32_t cpu_threads =
      config.cpu.cores > sc.bigkernel.num_blocks
          ? config.cpu.cores - sc.bigkernel.num_blocks
          : 1;

  // One engine serves every GPU round; the tables stay on the device across
  // rounds, so only the attach step and the window launch are shared with
  // schemes::launch_app.
  const schemes::LaunchConfig launch = run.engine_launch(sc);
  core::Engine engine(run.runtime, launch.engine);
  schemes::attach(engine, launch);
  schemes::map_streams(engine, app);

  schemes::RunMetrics metrics;
  metrics.scheme = schemes::Scheme::kHetero;
  std::uint64_t cpu_digest = 0;
  run.sim.run_until_complete(detail::co_exec_main(
      run.runtime, engine, app, app.kernel(), bindings, cpu_tables, splitter,
      balancer, ho, sc, cpu_threads, &metrics,
      sc.integrity != nullptr ? &cpu_digest : nullptr));
  metrics.engine = engine.metrics();
  if (sc.integrity != nullptr) {
    // bigkdur custody check: the CPU partition's deltas must be exactly the
    // bytes its rounds produced — verified before they merge into the
    // canonical tables.
    if (detail::tables_digest(cpu_tables) != cpu_digest) {
      sc.integrity->note_detected(dur::Site::kCpuPartition, 0, run.sim.now());
      throw dur::IntegrityError(
          "hetero CPU partition digest mismatch before table merge");
    }
    sc.integrity->note_verified(dur::Site::kCpuPartition);
  }
  merge_tables(app.tables(), cpu_tables, snapshot);

  metrics.hetero.final_cpu_ratio = balancer.ratio();
  metrics.hetero.cpu_chunks_per_s = balancer.cpu_chunks_per_s();
  metrics.hetero.gpu_chunks_per_s = balancer.gpu_chunks_per_s();
  if (sc.metrics != nullptr) {
    sc.metrics->gauge("hetero.split_ratio").set(balancer.ratio());
    sc.metrics->gauge("hetero.cpu.chunks_per_s")
        .set(balancer.cpu_chunks_per_s());
    sc.metrics->gauge("hetero.gpu.chunks_per_s")
        .set(balancer.gpu_chunks_per_s());
    sc.metrics->gauge("hetero.rounds")
        .set(static_cast<double>(metrics.hetero.rounds));
  }
  run.finish(metrics);
  return metrics;
}

}  // namespace bigk::hetero
