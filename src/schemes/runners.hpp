// The five execution schemes of the paper's evaluation (§VI):
//   (i)   CPU serial
//   (ii)  CPU multi-threaded
//   (iii) GPU single buffer   (transfers serialize with computation)
//   (iv)  GPU double buffer   (transfers overlap computation)
//   (v)   BigKernel
//
// Every runner executes the *same* application kernel source through a
// scheme-specific context, on a fresh Simulation + Runtime (one RunScaffold
// for every GPU runner), and returns a RunMetrics. run_bigkernel and
// apps::JobRunner launch an app through one launch_app(); the CPU paths
// split records through one cpu_fan_out(). Applications are duck-typed (see
// apps/ for the interface):
//   app.reset();                        // reinitialize output state
//   app.num_records();
//   app.tables();                       // core::TableSet&
//   app.stream_decls();                 // std::vector<StreamDecl>
//   app.kernel();                       // callable (Ctx&, rec_begin, rec_end)
//   app.interleaved_records();          // record->thread assignment style
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/chunk_cache.hpp"
#include "cache/pinned_pool.hpp"
#include "check/sanitizer.hpp"
#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/stream.hpp"
#include "cusim/runtime.hpp"
#include "dur/integrity.hpp"
#include "fault/fault.hpp"
#include "gpusim/config.hpp"
#include "hetero/options.hpp"
#include "hostsim/host_cpu.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/attribution.hpp"
#include "obs/tracer.hpp"
#include "schemes/kernel_ctx.hpp"
#include "schemes/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace bigk::schemes {

/// A mapped stream as the application declares it; runners assign region ids.
struct StreamDecl {
  core::StreamBinding binding;
  std::uint32_t overfetch_elems = 0;
};

/// Registers per thread of the chunked-GPU and UVM baseline kernels.
inline constexpr std::uint32_t kBaselineRegsPerThread = 32;
/// Fraction (percent) of free device memory the chunked-GPU baselines use
/// for chunk buffers; the double-buffer scheme halves it per set.
inline constexpr std::uint32_t kChunkBudgetPct = 80;
/// Records each host thread runs between cost commits on the CPU paths
/// (SchemeConfig's default, and always on the serve spill path).
inline constexpr std::uint64_t kCpuBatchRecords = 2048;

struct SchemeConfig {
  // Chunked GPU baselines.
  std::uint32_t gpu_blocks = 32;
  std::uint32_t gpu_threads_per_block = 256;

  // CPU baselines.
  std::uint64_t cpu_batch_records = kCpuBatchRecords;

  // BigKernel.
  core::Options bigkernel;

  /// bigkcheck configuration shared by the GPU schemes (defaults honour the
  /// BIGK_CHECK environment variable). When enabled, the run's RunScaffold
  /// installs a check::Sanitizer on the scheme's GPU for the whole run and
  /// throws check::CheckError at the end if any checker reported a
  /// violation.
  check::CheckOptions check = check::CheckOptions::from_env();

  // Telemetry sinks shared by every scheme (either may be nullptr; both must
  // outlive the run). Runners attach them to the freshly built runtime, where
  // the engine of run_bigkernel and run_hetero finds the tracer.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  /// bigkfault injection plane (nullptr = no injection; must outlive the
  /// run). Only the engine runners (run_bigkernel, run_hetero) install it:
  /// the engine's supervisor is the recovery machinery (chunk retry,
  /// watchdog, ring degradation), while the CPU schemes never touch an
  /// injection site and the chunked GPU baselines have no retry path —
  /// injecting into them would silently drop data instead of modelling a
  /// survivable fault.
  fault::FaultPlane* fault_plane = nullptr;

  /// bigkdur integrity plane (nullptr = integrity off; must outlive the
  /// run). RunScaffold attaches it to the runtime, where the engine finds it
  /// (assembly digest, post-DMA / write-back verification); run_hetero
  /// additionally digests the CPU-side partition when its rounds finish and
  /// re-verifies it before merging table deltas.
  dur::Integrity* integrity = nullptr;

  /// bigkprof attribution window (picoseconds). When non-zero,
  /// run_bigkernel attaches an obs::prof::StageProfiler with this window to
  /// the runtime and fills RunMetrics::prof with the windowed timeline
  /// (window count, bottleneck flips); the run-level bottleneck and overlap
  /// efficiency are computed either way from the engine's stage sums.
  sim::DurationPs prof_window = 0;

  /// bigkhetero co-execution knobs; only run_hetero reads them. The fault
  /// plane above applies to the hetero run's GPU side as well (the CPU side
  /// has no injection sites), which is what lets the DynamicBalancer shift
  /// work toward the CPU when the GPU degrades.
  hetero::Options hetero;
};

namespace detail {

inline std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

inline std::vector<core::StreamBinding> make_bindings(
    const std::vector<StreamDecl>& decls) {
  std::vector<core::StreamBinding> bindings;
  bindings.reserve(decls.size());
  for (std::uint32_t i = 0; i < decls.size(); ++i) {
    decls[i].binding.validate();
    core::StreamBinding binding = decls[i].binding;
    binding.host_region = core::kStreamRegionBase + i;
    bindings.push_back(binding);
  }
  return bindings;
}

template <class Kernel>
sim::Task<> cpu_partition(hostsim::HostCpu& cpu,
                          std::vector<core::StreamBinding>& bindings,
                          core::TableSet& tables, Kernel kernel,
                          std::uint64_t rec_begin, std::uint64_t rec_end,
                          std::uint32_t cache_share, std::uint64_t batch) {
  hostsim::HostThread thread = cpu.make_thread(cache_share);
  CpuCtx ctx(thread, bindings, tables);
  for (std::uint64_t r = rec_begin; r < rec_end; r += batch) {
    kernel(ctx, r, std::min(rec_end, r + batch), /*stride=*/1);
    co_await thread.commit();
  }
}

/// The CPU fan-out: splits records [rec_begin, rec_end) into `threads`
/// contiguous slices, runs each through cpu_partition on its own host
/// thread, and joins them. Throws std::invalid_argument when `threads` is 0,
/// which would run no record at all.
template <class Kernel>
sim::Task<> cpu_fan_out(hostsim::HostCpu& cpu,
                        std::vector<core::StreamBinding>& bindings,
                        core::TableSet& tables, Kernel kernel,
                        std::uint64_t rec_begin, std::uint64_t rec_end,
                        std::uint32_t threads, std::uint64_t batch) {
  if (threads == 0) {
    throw std::invalid_argument("cpu fan-out needs at least one thread");
  }
  const std::uint64_t per = ceil_div(rec_end - rec_begin, threads);
  std::vector<sim::Process> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const std::uint64_t begin =
        std::min(rec_begin + std::uint64_t{t} * per, rec_end);
    const std::uint64_t end = std::min(begin + per, rec_end);
    if (begin >= end) break;
    workers.push_back(cpu.sim().spawn(cpu_partition(
        cpu, bindings, tables, kernel, begin, end, threads, batch)));
  }
  for (sim::Process& worker : workers) co_await worker.join();
}

/// Shared state of one chunked-GPU run.
struct ChunkPlan {
  std::uint64_t records_per_chunk = 0;
  std::uint64_t num_chunks = 0;
  /// [set][stream] device chunk buffers.
  std::vector<std::vector<std::uint64_t>> dev_base;
  std::vector<std::uint64_t> capacity_elems;  // per stream, incl. overfetch
};

inline ChunkPlan plan_chunks(cusim::Runtime& runtime,
                             const std::vector<StreamDecl>& decls,
                             std::uint64_t num_records, std::uint32_t sets,
                             std::uint32_t budget_pct) {
  ChunkPlan plan;
  const std::uint64_t free_bytes = runtime.gpu().memory().free_bytes();
  const std::uint64_t budget = free_bytes * budget_pct / 100 / sets;
  std::uint64_t per_record = 0;
  std::uint64_t fixed = 0;
  for (const StreamDecl& decl : decls) {
    per_record += std::uint64_t{decl.binding.elems_per_record} *
                  decl.binding.elem_size;
    fixed += std::uint64_t{decl.overfetch_elems} * decl.binding.elem_size;
  }
  if (per_record == 0 || budget <= fixed) {
    throw std::invalid_argument("chunk budget too small for record size");
  }
  plan.records_per_chunk =
      std::max<std::uint64_t>(1, (budget - fixed) / per_record);
  plan.records_per_chunk = std::min(plan.records_per_chunk, num_records);
  if (plan.records_per_chunk == 0) plan.records_per_chunk = 1;
  plan.num_chunks = ceil_div(num_records, plan.records_per_chunk);

  plan.dev_base.resize(sets);
  for (std::uint32_t s = 0; s < decls.size(); ++s) {
    const auto& binding = decls[s].binding;
    const std::uint64_t cap =
        plan.records_per_chunk * binding.elems_per_record +
        decls[s].overfetch_elems;
    plan.capacity_elems.push_back(cap);
  }
  for (std::uint32_t set = 0; set < sets; ++set) {
    for (std::uint32_t s = 0; s < decls.size(); ++s) {
      plan.dev_base[set].push_back(runtime.gpu().memory().allocate_bytes(
          plan.capacity_elems[s] * decls[s].binding.elem_size));
    }
  }
  return plan;
}

/// Builds the per-stream chunk views for chunk `c` into `views` and returns
/// the staged bytes per stream.
inline std::vector<std::uint64_t> chunk_views(
    const std::vector<core::StreamBinding>& bindings, const ChunkPlan& plan,
    std::uint32_t set, std::uint64_t chunk, std::uint64_t num_records,
    std::vector<GpuChunkCtx::ChunkView>* views) {
  views->clear();
  std::vector<std::uint64_t> bytes;
  const std::uint64_t rec_begin = chunk * plan.records_per_chunk;
  const std::uint64_t rec_end =
      std::min(num_records, rec_begin + plan.records_per_chunk);
  for (std::uint32_t s = 0; s < bindings.size(); ++s) {
    const core::StreamBinding& binding = bindings[s];
    GpuChunkCtx::ChunkView view;
    view.dev_base = plan.dev_base[set][s];
    view.elem_begin = rec_begin * binding.elems_per_record;
    const std::uint64_t want =
        (rec_end - rec_begin) * binding.elems_per_record +
        (plan.capacity_elems[s] -
         plan.records_per_chunk * binding.elems_per_record);
    view.elem_count =
        std::min(want, binding.num_elements - view.elem_begin);
    views->push_back(view);
    bytes.push_back(view.elem_count * binding.elem_size);
  }
  return bytes;
}

/// The copier of the chunked baselines. Chunk c waits until the kernel has
/// freed buffer set c % sets, is staged host->pinned (CPU cost: one read +
/// one streamed write per byte, as in traditional GPGPU apps) and is copied
/// to the device on `stream`, which raises `copied` to c + 1 behind it.
inline sim::Task<> copy_chunks(
    std::vector<core::StreamBinding>& bindings, const ChunkPlan& plan,
    std::uint64_t num_records, hostsim::HostThread& thread,
    sim::Semaphore& buffers_free, sim::Flag& copied, cusim::Stream& stream,
    std::vector<std::vector<std::vector<std::byte>>>& pinned,
    std::vector<std::vector<GpuChunkCtx::ChunkView>>& views) {
  const std::uint64_t sets = views.size();
  for (std::uint64_t c = 0; c < plan.num_chunks; ++c) {
    co_await buffers_free.acquire();
    const std::uint64_t set = c % sets;
    const std::vector<std::uint64_t> bytes =
        chunk_views(bindings, plan, set, c, num_records, &views[set]);
    for (std::uint32_t s = 0; s < bindings.size(); ++s) {
      if (bytes[s] == 0) continue;
      thread.read(bindings[s].host_region,
                  views[set][s].elem_begin * bindings[s].elem_size, bytes[s]);
      thread.write_stream(bytes[s]);
      thread.compute(static_cast<double>(bytes[s]) / 64.0);
    }
    co_await thread.commit();
    for (std::uint32_t s = 0; s < bindings.size(); ++s) {
      if (bytes[s] == 0) continue;
      const std::byte* src = bindings[s].host_data +
                             views[set][s].elem_begin * bindings[s].elem_size;
      pinned[set][s].assign(src, src + bytes[s]);
      stream.memcpy_h2d_async(views[set][s].dev_base, pinned[set][s].data(),
                              bytes[s]);
    }
    stream.signal_flag(copied, c + 1);
  }
}

/// Copies kernel-written elements back to the host (functional scatter plus
/// the d2h transfer and CPU cost).
inline sim::Task<> writeback_chunk(
    cusim::Runtime& runtime, hostsim::HostThread& thread,
    std::vector<core::StreamBinding>& bindings,
    const std::vector<GpuChunkCtx::ChunkView>& views,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& writes) {
  if (writes.empty()) co_return;
  std::uint64_t bytes = 0;
  for (const auto& [s, elem] : writes) bytes += bindings[s].elem_size;
  co_await runtime.gpu().d2h_transfer(bytes);
  for (const auto& [s, elem] : writes) {
    core::StreamBinding& binding = bindings[s];
    const GpuChunkCtx::ChunkView& view = views[s];
    const std::uint64_t dev_addr =
        view.dev_base + (elem - view.elem_begin) * binding.elem_size;
    auto value =
        runtime.gpu().memory().bytes(dev_addr, binding.elem_size);
    std::memcpy(binding.out(elem), value.data(), binding.elem_size);
    thread.read(0, elem * binding.elem_size, binding.elem_size);
    thread.write(binding.host_region, elem * binding.elem_size,
                 binding.elem_size);
    thread.compute(1.0);
  }
  co_await thread.commit();
}

/// Runs `kernel` over global thread `tid`'s share of records [rec_begin,
/// rec_end), one of `total_threads`. Record->thread assignment is
/// interleaved for fixed-length records and contiguous for text streams
/// (whose records cannot be found without scanning, §VI-A).
template <class Kernel, class Ctx>
void run_thread_records(const Kernel& kernel, Ctx& ctx, std::uint64_t tid,
                        std::uint64_t total_threads, std::uint64_t rec_begin,
                        std::uint64_t rec_end, bool interleaved) {
  if (interleaved) {
    if (rec_begin + tid < rec_end) {
      kernel(ctx, rec_begin + tid, rec_end, total_threads);
    }
    return;
  }
  const std::uint64_t per = ceil_div(rec_end - rec_begin, total_threads);
  const std::uint64_t begin = std::min(rec_begin + tid * per, rec_end);
  const std::uint64_t end = std::min(begin + per, rec_end);
  if (begin < end) kernel(ctx, begin, end, /*stride=*/1);
}

/// The chunked-GPU baselines: a copier process fills buffer set c % sets
/// while the kernel consumes the sets before it. One set (single buffer)
/// serializes every transfer with computation; two (double buffer) overlap
/// them.
template <class App>
sim::Task<> gpu_chunked_main(cusim::Runtime& runtime, App& app,
                             std::vector<core::StreamBinding>& bindings,
                             std::uint32_t sets, const SchemeConfig& sc) {
  core::DeviceTables tables =
      co_await core::DeviceTables::upload(runtime, app.tables());
  const std::vector<StreamDecl> decls = app.stream_decls();
  const std::uint64_t num_records = app.num_records();
  ChunkPlan plan =
      plan_chunks(runtime, decls, num_records, sets, kChunkBudgetPct);

  gpusim::KernelLaunch launch;
  launch.num_blocks = sc.gpu_blocks;
  launch.threads_per_block = sc.gpu_threads_per_block;
  launch.regs_per_thread = kBaselineRegsPerThread;

  const std::uint64_t total_threads =
      std::uint64_t{launch.num_blocks} * launch.threads_per_block;
  const bool interleaved = app.interleaved_records();
  const auto kernel = app.kernel();
  hostsim::HostThread stage_thread = runtime.cpu().make_thread(2);
  hostsim::HostThread scatter_thread = runtime.cpu().make_thread(2);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> writes;

  sim::Simulation& sim = runtime.sim();
  sim::Semaphore buffers_free(sim, sets);
  sim::Flag copied(sim);
  cusim::Stream stream = runtime.create_stream();
  // One pinned staging buffer per (set, stream): a set's staging may not be
  // overwritten until its async copy has executed, which the buffers_free
  // semaphore guarantees per set.
  std::vector<std::vector<std::vector<std::byte>>> pinned(
      sets, std::vector<std::vector<std::byte>>(bindings.size()));
  std::uint64_t set_bytes = 0;
  for (std::uint32_t s = 0; s < bindings.size(); ++s) {
    set_bytes += plan.capacity_elems[s] * bindings[s].elem_size;
  }
  runtime.note_pinned(sets * set_bytes);

  std::vector<std::vector<GpuChunkCtx::ChunkView>> views(sets);
  sim::Process copier = sim.spawn(
      copy_chunks(bindings, plan, num_records, stage_thread, buffers_free,
                  copied, stream, pinned, views));
  for (std::uint64_t c = 0; c < plan.num_chunks; ++c) {
    co_await copied.wait_ge(c + 1);
    const std::uint64_t rec_begin = c * plan.records_per_chunk;
    const std::uint64_t rec_end =
        std::min(num_records, rec_begin + plan.records_per_chunk);
    const std::vector<GpuChunkCtx::ChunkView>& set_views = views[c % sets];
    writes.clear();
    co_await runtime.gpu().run_simple_kernel(
        launch, [&](gpusim::LaneCtx& lane, std::uint32_t) {
          GpuChunkCtx ctx(lane, bindings, tables, set_views, &writes);
          run_thread_records(kernel, ctx, lane.global_thread(), total_threads,
                             rec_begin, rec_end, interleaved);
        });
    co_await writeback_chunk(runtime, scatter_thread, bindings, set_views,
                             writes);
    buffers_free.release();
  }
  co_await copier.join();

  co_await tables.download();
  for (std::uint32_t set = 0; set < sets; ++set) {
    for (std::uint64_t base : plan.dev_base[set]) {
      runtime.gpu().memory().free_offset(base);
    }
  }
  tables.release();
}

}  // namespace detail

/// One engine launch of an app: the engine options, the engine's per-launch
/// attachments and the record window. The device's sinks (tracer, trace
/// prefix, fault and integrity planes, stage profiler) live on the
/// cusim::Runtime the launch runs on. Every pointer is externally owned and
/// may be null; `sanitizer` must already be installed on the runtime's GPU.
/// This is apps::JobRunConfig, the serving layer's per-job launch.
struct LaunchConfig {
  core::Options engine;
  check::Sanitizer* sanitizer = nullptr;
  /// bigkcache: chunk cache + pinned assembly-buffer pool of the target
  /// device (both must live on the device the launch runs on). `dataset_id`
  /// identifies the app's generated dataset for cache keying — the serving
  /// layer hashes the app name.
  cache::ChunkCache* chunk_cache = nullptr;
  cache::PinnedPool* pinned_pool = nullptr;
  std::uint64_t dataset_id = 0;
  /// bigkprof: when set, receives the sim time at which the engine launch
  /// completed (before table download) — the serving layer's
  /// execution/write-back boundary for the latency breakdown.
  sim::TimePs* exec_done = nullptr;
  /// bigkstatic: the app's statically derived access-pattern signature
  /// (KernelReport::pattern_signature), mixed into chunk-cache keys so a
  /// kernel change that alters the pattern invalidates cached chunks.
  std::uint64_t static_signature = 0;
  /// bigkdur: record window [rec_begin, rec_end) to execute (0/0 = the
  /// whole app). The serving layer launches jobs in checkpoint windows so a
  /// crashed server can resume from the last journaled window.
  std::uint64_t rec_begin = 0;
  std::uint64_t rec_end = 0;
};

/// Applies every per-launch attachment of `cfg` to `engine` — the one place
/// an engine gets its sanitizer, cache, pool and signature.
inline void attach(core::Engine& engine, const LaunchConfig& cfg) {
  engine.set_sanitizer(cfg.sanitizer);
  engine.set_chunk_cache(cfg.chunk_cache, cfg.dataset_id);
  engine.set_pinned_pool(cfg.pinned_pool);
  engine.set_static_signature(cfg.static_signature);
}

/// Maps the app's streams on `engine` in declaration order, the order the
/// kernel's StreamRef ids follow.
template <class App>
void map_streams(core::Engine& engine, App& app) {
  for (const StreamDecl& decl : app.stream_decls()) {
    engine.map_stream(decl.binding, decl.overfetch_elems);
  }
}

/// Runs records [rec_begin, rec_end) of `kernel` through `engine`; the
/// kernel sees absolute record ids.
template <class Kernel>
sim::Task<> launch_window(core::Engine& engine, Kernel kernel,
                          std::uint64_t rec_begin, std::uint64_t rec_end,
                          const core::DeviceTables& tables) {
  auto shifted = [kernel, rec_begin](auto& ctx, std::uint64_t b,
                                     std::uint64_t e, std::uint64_t stride) {
    kernel(ctx, b + rec_begin, e + rec_begin, stride);
  };
  co_await engine.launch(shifted, rec_end - rec_begin, tables);
}

/// The record window [rec_begin, rec_end) clamped to an app of
/// `num_records` records; rec_end == 0 runs through the last record.
inline std::pair<std::uint64_t, std::uint64_t> record_window(
    std::uint64_t rec_begin, std::uint64_t rec_end, std::uint64_t num_records) {
  const std::uint64_t end =
      rec_end > 0 ? std::min(rec_end, num_records) : num_records;
  return {std::min(rec_begin, end), end};
}

/// One engine launch of `app` on `runtime`: builds the engine with cfg's
/// attachments, maps the app's streams, uploads its tables, runs cfg's
/// record window, records exec_done and downloads the tables. The launch's
/// EngineMetrics land in `engine_metrics` when it is set.
template <class App>
sim::Task<> launch_app(cusim::Runtime& runtime, App& app,
                       const LaunchConfig& cfg,
                       core::EngineMetrics* engine_metrics = nullptr) {
  core::Engine engine(runtime, cfg.engine);
  attach(engine, cfg);
  map_streams(engine, app);
  const auto kernel = app.kernel();
  core::DeviceTables tables =
      co_await core::DeviceTables::upload(runtime, app.tables());
  const auto [begin, end] =
      record_window(cfg.rec_begin, cfg.rec_end, app.num_records());
  co_await launch_window(engine, kernel, begin, end, tables);
  if (cfg.exec_done != nullptr) *cfg.exec_done = runtime.sim().now();
  co_await tables.download();
  tables.release();
  if (engine_metrics != nullptr) *engine_metrics = engine.metrics();
}

/// One run of an app on a fresh simulated system, shared by every GPU
/// runner: a new Simulation and Runtime with sc's tracer, metrics and
/// integrity plane attached, the bigkcheck sanitizer when sc.check asks for
/// one, and `fault_plane` when given. Only the engine runners (run_bigkernel,
/// run_hetero) pass sc.fault_plane: they have the recovery machinery that
/// makes an injected fault survivable. The sanitizer is installed before any
/// table upload so memcheck tracks every allocation from birth.
struct RunScaffold {
  RunScaffold(const gpusim::SystemConfig& config, const SchemeConfig& sc,
              fault::FaultPlane* fault_plane = nullptr)
      : runtime(sim, config) {
    runtime.attach_observability(sc.tracer, sc.metrics);
    runtime.set_integrity(sc.integrity);
    if (fault_plane != nullptr) runtime.set_fault_plane(fault_plane);
    if (sc.check.enabled) {
      sanitizer = std::make_unique<check::Sanitizer>(sc.check, sc.metrics);
      sanitizer->install(runtime.gpu());
    }
  }

  /// The epilogue: fills `metrics`' device fields from the finished run, the
  /// run-level attribution from `metrics.engine`'s stage sums (so
  /// prof.bottleneck always agrees with the Fig. 6 breakdown; runs without
  /// an engine keep -1 and 0) and its check_violations, then detaches the
  /// sanitizer and finalizes it, which throws check::CheckError on any
  /// violation.
  void finish(RunMetrics& metrics) {
    gpusim::Gpu& gpu = runtime.gpu();
    metrics.total_time = sim.now();
    metrics.comm_busy = gpu.h2d_busy() + gpu.d2h_busy();
    metrics.comp_busy = gpu.compute_wall_busy();
    metrics.h2d_bytes = gpu.stats().h2d_bytes;
    metrics.d2h_bytes = gpu.stats().d2h_bytes;
    metrics.kernel_launches = gpu.stats().kernel_launches;
    metrics.pinned_bytes = runtime.pinned_bytes();
    const obs::prof::Attribution attribution =
        obs::prof::attribute(metrics.engine.stage_busy_ps, metrics.total_time);
    metrics.prof.bottleneck = attribution.bottleneck_index();
    metrics.prof.overlap_efficiency = attribution.overlap_efficiency;
    if (sanitizer != nullptr) {
      metrics.check_violations = sanitizer->reporter().total();
      sanitizer->uninstall();
      sanitizer->finalize();
    }
  }

  /// The engine launch this run makes: sc's engine options and this run's
  /// sanitizer.
  LaunchConfig engine_launch(const SchemeConfig& sc) const {
    LaunchConfig cfg;
    cfg.engine = sc.bigkernel;
    cfg.sanitizer = sanitizer.get();
    return cfg;
  }

  sim::Simulation sim;
  cusim::Runtime runtime;
  std::unique_ptr<check::Sanitizer> sanitizer;
};

/// The CPU runners: the kernel never touches the device, so there is no
/// sanitizer, fault plane or device epilogue.
template <class App>
RunMetrics run_cpu(const gpusim::SystemConfig& config, App& app,
                   std::uint32_t num_threads, const SchemeConfig& sc = {}) {
  app.reset();
  sim::Simulation sim;
  cusim::Runtime runtime(sim, config);
  runtime.attach_observability(sc.tracer, sc.metrics);
  auto bindings = detail::make_bindings(app.stream_decls());
  sim.run_until_complete(detail::cpu_fan_out(
      runtime.cpu(), bindings, app.tables(), app.kernel(), 0,
      app.num_records(), num_threads, sc.cpu_batch_records));
  RunMetrics metrics;
  metrics.scheme = num_threads == 1 ? Scheme::kCpuSerial
                                    : Scheme::kCpuMultiThreaded;
  metrics.total_time = sim.now();
  metrics.comp_busy = sim.now();
  return metrics;
}

template <class App>
RunMetrics run_cpu_serial(const gpusim::SystemConfig& config, App& app,
                          const SchemeConfig& sc = {}) {
  return run_cpu(config, app, 1, sc);
}

template <class App>
RunMetrics run_cpu_mt(const gpusim::SystemConfig& config, App& app,
                      const SchemeConfig& sc = {}) {
  return run_cpu(config, app, config.cpu.hw_threads, sc);
}

template <class App>
RunMetrics run_gpu_chunked(const gpusim::SystemConfig& config, App& app,
                           bool double_buffered, const SchemeConfig& sc = {}) {
  app.reset();
  RunScaffold run(config, sc);
  auto bindings = detail::make_bindings(app.stream_decls());
  run.sim.run_until_complete(detail::gpu_chunked_main(
      run.runtime, app, bindings, double_buffered ? 2 : 1, sc));
  RunMetrics metrics;
  metrics.scheme = double_buffered ? Scheme::kGpuDoubleBuffer
                                   : Scheme::kGpuSingleBuffer;
  run.finish(metrics);
  return metrics;
}

template <class App>
RunMetrics run_gpu_single(const gpusim::SystemConfig& config, App& app,
                          const SchemeConfig& sc = {}) {
  return run_gpu_chunked(config, app, /*double_buffered=*/false, sc);
}

template <class App>
RunMetrics run_gpu_double(const gpusim::SystemConfig& config, App& app,
                          const SchemeConfig& sc = {}) {
  return run_gpu_chunked(config, app, /*double_buffered=*/true, sc);
}

template <class App>
RunMetrics run_bigkernel(const gpusim::SystemConfig& config, App& app,
                         const SchemeConfig& sc = {}) {
  app.reset();
  RunScaffold run(config, sc, sc.fault_plane);
  std::unique_ptr<obs::prof::StageProfiler> profiler;
  if (sc.prof_window > 0) {
    profiler = std::make_unique<obs::prof::StageProfiler>(sc.prof_window);
    run.runtime.set_profiler(profiler.get());
  }
  const LaunchConfig launch = run.engine_launch(sc);
  RunMetrics metrics;
  metrics.scheme = Scheme::kBigKernel;
  run.sim.run_until_complete(
      launch_app(run.runtime, app, launch, &metrics.engine));
  run.finish(metrics);
  if (profiler != nullptr) {
    metrics.prof.windows = profiler->window_count();
    metrics.prof.bottleneck_flips = profiler->bottleneck_flips();
    metrics.prof.window_ms = static_cast<double>(sc.prof_window) / 1e9;
  }
  return metrics;
}

}  // namespace bigk::schemes

// run_hetero lives in hetero/run.hpp (which includes this header for the CPU
// runner path and SchemeConfig); forward-declare it so run_scheme can
// dispatch, and pull in the definition at the end of this file so a plain
// #include of runners.hpp is enough to instantiate every scheme.
namespace bigk::hetero {
template <class App>
schemes::RunMetrics run_hetero(const gpusim::SystemConfig& config, App& app,
                               const schemes::SchemeConfig& sc);
}  // namespace bigk::hetero

namespace bigk::schemes {

/// Dispatch by scheme enum (used by the benchmark harness).
template <class App>
RunMetrics run_scheme(Scheme scheme, const gpusim::SystemConfig& config,
                      App& app, const SchemeConfig& sc = {}) {
  switch (scheme) {
    case Scheme::kCpuSerial: return run_cpu_serial(config, app, sc);
    case Scheme::kCpuMultiThreaded: return run_cpu_mt(config, app, sc);
    case Scheme::kGpuSingleBuffer: return run_gpu_single(config, app, sc);
    case Scheme::kGpuDoubleBuffer: return run_gpu_double(config, app, sc);
    case Scheme::kBigKernel: return run_bigkernel(config, app, sc);
    case Scheme::kHetero: return hetero::run_hetero(config, app, sc);
  }
  throw std::invalid_argument("unknown scheme");
}

}  // namespace bigk::schemes

#include "hetero/run.hpp"  // NOLINT: definition of run_hetero (see above)
