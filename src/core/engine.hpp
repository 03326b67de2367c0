// The BigKernel engine: pseudo-virtual memory for streaming GPU kernels via
// the 4-stage pipeline of §III (address generation -> data assembly -> data
// transfer -> computation), plus the write-back stages for modified streams.
//
// Usage mirrors the paper's programming model:
//
//   core::Engine engine(runtime, core::Options{});
//   auto particles = engine.streaming_map<double>(host_span,
//       core::AccessMode::kReadWrite, /*elems_per_record=*/6,
//       /*reads_per_record=*/3, /*writes_per_record=*/1);
//   KmeansKernel kernel{particles, clusters_table, ...};
//   co_await engine.launch(kernel, num_particles, device_tables);
//
// launch() invokes the (transformed) kernel exactly once: twice the
// requested computation threads are launched, warps are split into
// address-generation and computation halves, per-block CPU threads assemble
// prefetch buffers, and a ring of buffer_depth buffer instances per block
// keeps all four stages in flight (Fig. 2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/chunk_cache.hpp"
#include "cache/pinned_pool.hpp"
#include "check/sanitizer.hpp"
#include "fault/fault.hpp"
#include "core/contexts.hpp"
#include "core/device_tables.hpp"
#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/staging.hpp"
#include "core/stream.hpp"
#include "cusim/runtime.hpp"
#include "dur/integrity.hpp"
#include "obs/prof/attribution.hpp"
#include "obs/stage.hpp"
#include "obs/tracer.hpp"
#include "gpusim/gpu.hpp"
#include "hostsim/host_cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace bigk::core {

// Fixed host cache-model region ids. All sit below
// cusim::Runtime::kFirstDynamicRegion, where the ids the runtime hands out
// for pinned buffers begin.
/// Region-id base for mapped streams.
constexpr std::uint32_t kStreamRegionBase = 1000;
/// Region-id base for kernel tables (used by the CPU schemes).
constexpr std::uint32_t kTableRegionBase = 2000;
/// Region-id base for the serving layer's per-device input staging.
constexpr std::uint32_t kStagingRegionBase = 9000;

class Engine {
 public:
  /// Validates `options` against both the static invariants
  /// (Options::validate) and the device this engine will run on: the
  /// computation thread count must be a multiple of the *device's* warp size
  /// (not just the default 32), and an explicit data_buf_bytes must leave a
  /// ring of buffer_depth slots fitting the device arena.
  Engine(cusim::Runtime& runtime, Options options)
      : runtime_(runtime), options_(options) {
    options_.validate();
    const std::uint32_t warp = runtime_.device_properties().warp_size;
    if (warp != 0 && options_.compute_threads_per_block % warp != 0) {
      throw std::invalid_argument(
          "compute_threads_per_block (" +
          std::to_string(options_.compute_threads_per_block) +
          ") must be a multiple of the device warp size (" +
          std::to_string(warp) +
          ") so address-generation and computation threads never share a "
          "warp");
    }
    if (options_.data_buf_bytes > 0) {
      const std::uint64_t ring_bytes =
          options_.data_buf_bytes * options_.buffer_depth;
      const std::uint64_t arena = runtime_.gpu().memory().capacity();
      if (ring_bytes > arena) {
        throw std::invalid_argument(
            "data_buf_bytes (" + std::to_string(options_.data_buf_bytes) +
            ") x buffer_depth (" + std::to_string(options_.buffer_depth) +
            ") = " + std::to_string(ring_bytes) +
            " bytes: even a single block's staging ring exceeds the device "
            "arena (" +
            std::to_string(arena) + " bytes)");
      }
    }
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// streamingMalloc + streamingMap: registers `host` as a mapped stream of
  /// records of `elems_per_record` elements, of which the kernel reads at
  /// most `reads_per_record` and writes at most `writes_per_record` each.
  /// `overfetch_elems` extends each thread's per-chunk window for kernels
  /// that peek a bounded distance past their slice (e.g. a word spanning a
  /// boundary).
  template <class T>
  StreamRef<T> streaming_map(std::span<T> host, AccessMode mode,
                             std::uint32_t elems_per_record,
                             std::uint32_t reads_per_record,
                             std::uint32_t writes_per_record = 0,
                             std::uint32_t overfetch_elems = 0) {
    static_assert(sizeof(T) <= 8, "stream elements must be at most 8 bytes");
    if (bindings_.size() >= kMaxStreams) {
      throw std::invalid_argument("too many mapped streams");
    }
    StreamBinding binding;
    binding.host_data = reinterpret_cast<const std::byte*>(host.data());
    if (mode == AccessMode::kReadWrite) {
      binding.host_out = reinterpret_cast<std::byte*>(host.data());
    }
    binding.num_elements = host.size();
    binding.elem_size = sizeof(T);
    binding.host_region =
        kStreamRegionBase + static_cast<std::uint32_t>(bindings_.size());
    binding.mode = mode;
    binding.elems_per_record = elems_per_record;
    binding.reads_per_record = reads_per_record;
    binding.writes_per_record = writes_per_record;
    overfetch_.push_back(overfetch_elems);
    bindings_.push_back(binding);
    if (writes_per_record > 0) has_writes_ = true;
    return StreamRef<T>{static_cast<std::uint32_t>(bindings_.size() - 1)};
  }

  /// Type-erased registration: maps a pre-built binding (ids are assigned in
  /// registration order, matching StreamRefs constructed by the caller).
  /// Throws std::invalid_argument on an output column the binding cannot
  /// have (StreamBinding::validate).
  std::uint32_t map_stream(const StreamBinding& binding,
                           std::uint32_t overfetch_elems = 0) {
    if (bindings_.size() >= kMaxStreams) {
      throw std::invalid_argument("too many mapped streams");
    }
    binding.validate();
    StreamBinding bound = binding;
    bound.host_region =
        kStreamRegionBase + static_cast<std::uint32_t>(bindings_.size());
    overfetch_.push_back(overfetch_elems);
    bindings_.push_back(bound);
    if (bound.writes_per_record > 0) has_writes_ = true;
    return static_cast<std::uint32_t>(bindings_.size() - 1);
  }

  /// Runs `kernel` over records [0, num_records) through the full pipeline.
  /// `tables` must hold every TableRef the kernel uses, already uploaded.
  template <class Kernel>
  sim::Task<> launch(const Kernel& kernel, std::uint64_t num_records,
                     const DeviceTables& tables);

  /// Totals over every launch of this engine (a fresh engine per launch
  /// reports that launch alone).
  const EngineMetrics& metrics() const noexcept { return metrics_; }
  const Options& options() const noexcept { return options_; }

  /// Uses an externally owned bigkcheck sanitizer (already installed on the
  /// GPU by the caller). The caller keeps responsibility for finalize(); the
  /// engine only feeds the pipeline checker. nullptr detaches.
  void set_sanitizer(check::Sanitizer* sanitizer) noexcept {
    sanitizer_ = sanitizer;
  }

  /// Attaches a bigkcache chunk cache (externally owned; must live on this
  /// engine's device). Read-only streams are then looked up per chunk: on a
  /// hit the assembly and DMA stages are skipped and compute reads the
  /// cached device range; on a miss the assembled image is inserted and the
  /// DMA targets the entry directly. `dataset_id` names the mapped-stream
  /// contents (same id = identical bytes — the caller's contract; the
  /// serving layer hashes the app name). nullptr detaches.
  void set_chunk_cache(cache::ChunkCache* chunk_cache,
                       std::uint64_t dataset_id = 0) noexcept {
    chunk_cache_ = chunk_cache;
    cache_dataset_ = dataset_id;
  }

  /// Attaches a pinned assembly-buffer pool (externally owned): per-slot
  /// prefetch buffers are acquired from / released to it instead of being
  /// freshly pinned every launch. nullptr detaches: each launch then takes
  /// its ring buffers from a pool of its own.
  void set_pinned_pool(cache::PinnedPool* pool) noexcept {
    pinned_pool_ = pool;
  }

  /// bigkstatic: mixes the app's statically derived access-pattern signature
  /// into every chunk-cache key, so kernels with identical launch geometry
  /// but different (verified) access patterns never share cache entries, and
  /// a kernel change that alters the pattern invalidates cached chunks.
  /// 0 = no signature (default).
  void set_static_signature(std::uint64_t signature) noexcept {
    static_signature_ = signature;
  }
  const std::vector<StreamBinding>& bindings() const noexcept {
    return bindings_;
  }

  /// Geometry of the last (or planned) launch.
  std::uint32_t active_blocks() const noexcept { return geometry_.blocks; }
  std::uint64_t records_per_thread_chunk() const noexcept {
    return geometry_.rptc;
  }
  DataLayout layout() const noexcept { return geometry_.layout; }

 private:
  struct Geometry {
    std::uint32_t blocks = 0;
    std::uint64_t rptc = 0;  // records per thread per chunk
    DataLayout layout = DataLayout::kInterleaved;
  };

  struct Range {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    bool empty() const noexcept { return begin >= end; }
    std::uint64_t size() const noexcept { return empty() ? 0 : end - begin; }
  };

  /// Shared-owned so a landing posted for one of its flags can hold it
  /// weakly (raise_on_landing).
  struct BlockState : std::enable_shared_from_this<BlockState> {
    BlockState(sim::Simulation& sim, std::uint32_t depth, cusim::Stream dma)
        : depth(depth),
          addr_ready(sim),
          data_ready(sim),
          wb_landed(sim),
          ring(sim, depth),
          dma(std::move(dma)) {}

    std::uint32_t index = 0;
    /// Ring depth this block actually runs with. Normally
    /// options_.buffer_depth; shrunk when a pinned_alloc_fail degraded the
    /// block to fewer slots (the withheld ring tokens are never released).
    std::uint32_t depth = 0;
    Range records;
    std::uint64_t per_thread = 0;  // record-slice length per compute thread
    std::uint64_t chunks = 0;

    sim::Flag addr_ready;
    sim::Flag data_ready;
    sim::Flag wb_landed;
    sim::Semaphore ring;
    std::vector<ChunkSlot> slots;
    /// Cache leases pinned for the chunk currently in each ring slot;
    /// released (unpinned) when the slot is handed back.
    std::vector<std::vector<std::uint64_t>> slot_leases;
    std::uint32_t addr_region = 0;  // pinned address-buffer region id
    std::optional<hostsim::HostThread> assembly_thread;
    std::optional<hostsim::HostThread> scatter_thread;
    cusim::Stream dma;
  };

  // --- planning / setup (engine.cpp) ------------------------------------
  Geometry plan(std::uint64_t num_records);
  void build_blocks(std::uint64_t num_records);
  void release_buffers();
  Range thread_chunk_range(const BlockState& block, std::uint32_t vtid,
                           std::uint64_t chunk) const;
  gpusim::KernelLaunch launch_shape() const;

  // --- chunk transfer and bigkfault recovery (engine.cpp) ---------------
  /// One H2D copy in flight for a chunk, retained so a failed op can be
  /// re-issued verbatim (the pinned image stays intact until slot release —
  /// the idempotent chunk redo).
  struct PendingCopy {
    std::uint32_t stream = 0;
    std::uint64_t op = 0;        // stream sequence id of the latest issue
    std::uint64_t dev_base = 0;  // destination (ring slot or cache entry)
    const std::byte* host = nullptr;
    std::uint64_t bytes = 0;
    /// bigkdur assembly-time digest of the pinned image (0 = integrity off);
    /// the supervisor re-digests the landed device bytes against it.
    std::uint64_t checksum = 0;
  };

  /// The one raiser of data_ready: awaits the chunk's H2D ops, retries
  /// failed ones with capped exponential backoff, then raises the flag in
  /// chunk order (chained behind the previous chunk so a slow retry never
  /// lets a later flag overtake it), records the transfer span and, with a
  /// tracer, a "data ready" instant on the transfer row. Aborts the launch
  /// on device_lost or exhausted retries.
  sim::Task<> transfer_supervisor(BlockState& block, std::uint64_t chunk,
                                  std::vector<PendingCopy> copies,
                                  sim::TimePs begin);

  /// Marks the launch failed with `error` (first abort wins) and wakes every
  /// stage: stage flags flood past any chunk index and ring tokens are handed
  /// out so blocked drivers observe aborted_ and exit.
  void abort_launch(std::exception_ptr error);

  /// Seeded protocol bug (test-only): true when the runtime's fault plane
  /// carries an always-on spec of `kind` for this device.
  bool seeded_bug(fault::FaultKind kind) const {
    fault::FaultPlane* plane = runtime_.fault_plane();
    return plane != nullptr &&
           plane->protocol_bug(kind, runtime_.fault_device());
  }

  /// Raises `flag`, a member of `block`, to `value` when the transfer that
  /// carries it lands. The wake-up holds the block weakly: an aborted launch
  /// frees its blocks without waiting for posted landings, and a landing
  /// that finds its block gone is dropped (the abort already flooded every
  /// flag past it).
  void raise_on_landing(BlockState& block, sim::Flag& flag,
                        std::uint64_t value, sim::TimePs landed) {
    runtime_.gpu().set_flag_at(
        std::shared_ptr<sim::Flag>(block.shared_from_this(), &flag), value,
        std::max(landed, sim().now()));
  }

  // --- host-side pipeline stages (engine.cpp) ----------------------------
  sim::Task<> assembly_process(BlockState& block);
  sim::Task<> scatter_process(BlockState& block);
  /// bigkdur: digests each stream's staged writes at compute end (verified
  /// by the scatter stage) and hosts the fault.bitflip_writeback injection
  /// point (one staged value flipped *after* the digest was taken).
  void seal_staged_writes(ChunkSlot& slot);
  std::uint64_t assemble_stream(BlockState& block, ChunkSlot& slot,
                                std::uint32_t stream, std::uint64_t chunk,
                                hostsim::HostThread& thread);
  void finalize_addresses(BlockState& block, ChunkSlot& slot,
                          std::uint64_t* wire_bytes);

  // --- bigkcache helpers (engine.cpp) -------------------------------------
  /// A stream is cacheable when the kernel never writes it: a cached device
  /// image of a read-only chunk stays valid across launches.
  bool stream_cacheable(std::uint32_t stream) const noexcept {
    return bindings_[stream].writes_per_record == 0;
  }
  /// Content signature of one stream-chunk: geometry plus the generated
  /// per-thread address streams (patterns or explicit elements), so two
  /// launches only ever share an entry when compute would read identical
  /// staged bytes.
  std::uint64_t chunk_signature(const BlockState& block, const ChunkSlot& slot,
                                std::uint32_t stream,
                                std::uint64_t chunk) const;
  /// Unpins every cache lease taken for the chunk occupying `chunk`'s ring
  /// slot; called right before the slot is handed back to the ring.
  void release_slot_leases(BlockState& block, std::uint64_t chunk);

  // --- GPU-side drivers (templates over the kernel) ----------------------
  template <class Kernel>
  sim::Task<> addr_gen_driver(gpusim::BlockCtx& ctx, BlockState& block,
                              const Kernel& kernel);
  template <class Kernel>
  sim::Task<> compute_driver(gpusim::BlockCtx& ctx, BlockState& block,
                             const Kernel& kernel);

  sim::Simulation& sim() noexcept { return runtime_.sim(); }

  cusim::Runtime& runtime_;
  Options options_;
  std::vector<StreamBinding> bindings_;
  std::vector<std::uint32_t> overfetch_;
  bool has_writes_ = false;

  const DeviceTables* tables_ = nullptr;
  Geometry geometry_;
  std::vector<std::shared_ptr<BlockState>> blocks_;
  std::vector<std::uint64_t> device_allocs_;
  EngineMetrics metrics_;

  // --- bigkfault ----------------------------------------------------------
  /// Launch-failure latch: transfer supervisors and the stage watchdog set it
  /// via abort_launch(); every pipeline loop checks it after each wait and
  /// exits, and launch() rethrows abort_error_ after draining.
  bool aborted_ = false;
  std::exception_ptr abort_error_;
  /// Any block shrank its ring this launch (pinned_alloc_fail absorbed).
  /// Pipecheck is detached for the launch: its slot geometry is fixed at
  /// begin_launch and cannot describe a per-block depth.
  bool degraded_ = false;
  /// One transfer supervisor per chunk (each raises its chunk's ready
  /// flag); joined by launch() after the kernel and host stages complete.
  std::vector<sim::Process> supervisors_;

  // --- bigkcache ---------------------------------------------------------
  cache::ChunkCache* chunk_cache_ = nullptr;  // externally owned, optional
  std::uint64_t cache_dataset_ = 0;
  std::uint64_t static_signature_ = 0;  // bigkstatic pattern signature
  cache::PinnedPool* pinned_pool_ = nullptr;  // externally owned, optional
  /// Without an attached pool, the ring buffers' pool for one launch.
  std::optional<cache::PinnedPool> launch_pool_;
  cache::PinnedPool& ring_pool() {
    return pinned_pool_ != nullptr ? *pinned_pool_ : *launch_pool_;
  }

  // --- bigkcheck ---------------------------------------------------------
  check::Sanitizer* sanitizer_ = nullptr;  // externally owned, optional
  check::PipelineChecker* pipecheck_ = nullptr;  // active during launch()

  /// Replays the per-thread staged-element counts of (block, chunk, stream)
  /// to the pipeline checker after address generation settles them.
  void report_addr_counts(BlockState& block, ChunkSlot& slot,
                          std::uint64_t chunk);

  /// Single accounting point for a stage execution: the busy-time metric,
  /// the runtime profiler's windows and the runtime tracer's span all take
  /// the same interval, so the Fig. 6 breakdown, online attribution and the
  /// timeline agree by construction. For the GPU stages callers pass
  /// [now - SM service time, now]; for the host/DMA stages the wall interval
  /// of the stage.
  void record_stage(obs::Stage stage, std::uint32_t block, std::uint64_t chunk,
                    sim::TimePs begin, sim::TimePs end) {
    metrics_.stage_busy(stage) += end - begin;
    if (end <= begin) return;
    if (obs::prof::StageProfiler* profiler = runtime_.profiler()) {
      profiler->record(stage, begin, end);
    }
    if (obs::Tracer* tracer = runtime_.tracer()) {
      tracer->complete(stage_track(*tracer, stage, block, chunk),
                       obs::stage_name(stage), begin, end, "engine",
                       {{"chunk", static_cast<double>(chunk)}});
    }
  }

  /// The trace row of `stage` for (block, chunk): one "<device prefix>engine
  /// block <b>" process per block, one thread row per stage (data transfer
  /// gets one row per ring slot, since up to buffer_depth transfers are in
  /// flight per block).
  obs::TrackId stage_track(obs::Tracer& tracer, obs::Stage stage,
                           std::uint32_t block, std::uint64_t chunk) const {
    const std::string process =
        runtime_.trace_prefix() + "engine block " + std::to_string(block);
    std::string thread{obs::stage_name(stage)};
    if (stage == obs::Stage::kTransfer) {
      thread += " s" + std::to_string(chunk % options_.buffer_depth);
    }
    return tracer.track(process, thread);
  }
};

// ---------------------------------------------------------------------------
// Template implementations
// ---------------------------------------------------------------------------

template <class Kernel>
sim::Task<> Engine::launch(const Kernel& kernel, std::uint64_t num_records,
                           const DeviceTables& tables) {
  if (bindings_.empty()) {
    throw std::logic_error("launch() requires at least one mapped stream");
  }
  tables_ = &tables;
  geometry_ = plan(num_records);
  aborted_ = false;
  abort_error_ = nullptr;
  degraded_ = false;
  supervisors_.clear();

  pipecheck_ = sanitizer_ != nullptr ? sanitizer_->pipecheck() : nullptr;
  if (pipecheck_ != nullptr) {
    pipecheck_->begin_launch(geometry_.blocks, options_.buffer_depth,
                             options_.compute_threads_per_block,
                             static_cast<std::uint32_t>(bindings_.size()));
  }
  if (chunk_cache_ != nullptr) {
    // The cache reports invalidations/evictions to the same pipeline checker
    // for the duration of this launch (cache freshness invariant).
    chunk_cache_->set_checker(pipecheck_);
  }

  build_blocks(num_records);
  if (degraded_) {
    // A shrunken ring invalidates the slot geometry pipecheck was armed
    // with; run the launch without it rather than raise false violations.
    pipecheck_ = nullptr;
    if (chunk_cache_ != nullptr) chunk_cache_->set_checker(nullptr);
  }

  std::vector<sim::Process> host_processes;
  for (auto& block : blocks_) {
    host_processes.push_back(sim().spawn(assembly_process(*block)));
    if (has_writes_) {
      host_processes.push_back(sim().spawn(scatter_process(*block)));
    }
  }

  const Kernel* kernel_ptr = &kernel;
  co_await runtime_.gpu().run_kernel(
      launch_shape(),
      [this, kernel_ptr](gpusim::BlockCtx& ctx) -> sim::Task<> {
        BlockState& block = *blocks_.at(ctx.block_index());
        sim::Process addr_gen =
            sim().spawn(addr_gen_driver(ctx, block, *kernel_ptr));
        sim::Process compute =
            sim().spawn(compute_driver(ctx, block, *kernel_ptr));
        co_await addr_gen.join();
        co_await compute.join();
      });

  for (sim::Process& process : host_processes) {
    co_await process.join();
  }
  for (sim::Process& process : supervisors_) {
    co_await process.join();
  }
  supervisors_.clear();
  if (aborted_) {
    // Drain the DMA streams before tearing the staging buffers down: an
    // aborted launch can leave retried or later-chunk copies in flight that
    // still reference the device ranges release_buffers() frees.
    for (auto& block : blocks_) {
      co_await block->dma.synchronize();
    }
  }
  release_buffers();

  if (chunk_cache_ != nullptr) chunk_cache_->set_checker(nullptr);
  pipecheck_ = nullptr;
  if (aborted_) {
    std::exception_ptr error = abort_error_;
    abort_error_ = nullptr;
    aborted_ = false;
    std::rethrow_exception(error);
  }
}

template <class Kernel>
sim::Task<> Engine::addr_gen_driver(gpusim::BlockCtx& ctx, BlockState& block,
                                    const Kernel& kernel) {
  const std::uint32_t c_threads = options_.compute_threads_per_block;
  for (std::uint64_t chunk = 0; chunk < block.chunks; ++chunk) {
    co_await block.ring.acquire();
    if (aborted_) co_return;
    if (pipecheck_ != nullptr) {
      pipecheck_->on_slot_acquire(block.index, chunk);
    }
    ChunkSlot& slot = block.slots[chunk % block.depth];
    for (StreamStage& stage : slot.streams) {
      stage.staged_writes.clear();
      stage.cached_dev_base = kNoCachedBase;
      stage.image_checksum = 0;
      stage.staged_checksum = 0;
    }

    std::uint64_t wire_bytes = 0;
    sim::DurationPs busy = 0;
    if (geometry_.layout == DataLayout::kOriginal) {
      // Fallback / overlap-only: the "addresses" are just per-thread chunk
      // ranges — one tiny descriptor each, no per-access generation.
      wire_bytes = std::uint64_t{c_threads} * 16;
      co_await ctx.sync_overhead();
    } else {
      try {
        busy = co_await ctx.run_threads(
            0, c_threads, [&](gpusim::LaneCtx& lane, std::uint32_t tid) {
              const std::uint32_t vtid = tid;
              for (StreamStage& stage : slot.streams) {
                stage.read_addrs[vtid].begin(options_.pattern_recognition);
                stage.write_addrs[vtid].begin(options_.pattern_recognition);
              }
              const Range range = thread_chunk_range(block, vtid, chunk);
              if (range.empty()) return;
              AddrGenCtx addr_ctx(lane, slot, bindings_, *tables_, vtid,
                                  options_.pattern_recognition);
              kernel(addr_ctx, range.begin, range.end, /*stride=*/1);
            });
      } catch (...) {
        // A kernel that breaks its contract aborts the launch, so no stage
        // is left waiting for a chunk that never comes.
        abort_launch(std::current_exception());
        co_return;
      }
      finalize_addresses(block, slot, &wire_bytes);
      co_await ctx.sync_overhead();
    }
    if (pipecheck_ != nullptr) {
      report_addr_counts(block, slot, chunk);
    }

    metrics_.addr_bytes_sent += wire_bytes;
    // Busy = SM service time; the span ends now and sums to the metric.
    record_stage(obs::Stage::kAddrGen, block.index, chunk, sim().now() - busy,
                 sim().now());
    raise_on_landing(block, block.addr_ready, chunk + 1,
                     runtime_.gpu().post_d2h(wire_bytes));
  }
}

template <class Kernel>
sim::Task<> Engine::compute_driver(gpusim::BlockCtx& ctx, BlockState& block,
                                   const Kernel& kernel) {
  const std::uint32_t c_threads = options_.compute_threads_per_block;
  for (std::uint64_t chunk = 0; chunk < block.chunks; ++chunk) {
    if (seeded_bug(fault::FaultKind::kSkipDataReadyWait)) {
      // Seeded bug: wait for the *previous* chunk's flag only (none at all
      // for chunk 0) — the compute stage races the staged DMA.
      if (chunk > 0) co_await block.data_ready.wait_ge(chunk);
    } else {
      co_await block.data_ready.wait_ge(chunk + 1);
    }
    if (aborted_) co_return;
    ChunkSlot& slot = block.slots[chunk % block.depth];
    if (pipecheck_ != nullptr) {
      pipecheck_->on_compute_begin(block.index, chunk,
                                   block.data_ready.value());
    }
    if (chunk_cache_ != nullptr &&
        seeded_bug(fault::FaultKind::kStaleCache)) {
      // Seeded bug: yank every cache entry backing this chunk out from under
      // the compute stage after the hit was declared — the
      // reuse-after-invalidation protocol violation.
      for (std::uint64_t entry : block.slot_leases[chunk % block.depth]) {
        chunk_cache_->invalidate_entry(entry, sim().now());
      }
    }

    sim::DurationPs busy = 0;
    try {
      busy = co_await ctx.run_threads(
          c_threads, c_threads,
          [&](gpusim::LaneCtx& lane, std::uint32_t tid) {
            const std::uint32_t vtid = tid - c_threads;
            const Range range = thread_chunk_range(block, vtid, chunk);
            if (range.empty()) return;
            ComputeCtx compute_ctx(lane, slot, bindings_, *tables_,
                                   geometry_.layout, c_threads, vtid,
                                   range.begin, pipecheck_, block.index,
                                   chunk);
            kernel(compute_ctx, range.begin, range.end, /*stride=*/1);
          });
    } catch (...) {
      abort_launch(std::current_exception());  // as in addr_gen_driver
      co_return;
    }
    ++metrics_.chunks;
    record_stage(obs::Stage::kCompute, block.index, chunk, sim().now() - busy,
                 sim().now());
    co_await ctx.sync_overhead();
    if (aborted_) co_return;

    if (has_writes_) {
      seal_staged_writes(slot);
      std::uint64_t wb_bytes = 0;
      for (std::uint32_t s = 0; s < slot.streams.size(); ++s) {
        wb_bytes +=
            slot.streams[s].staged_writes.size() * bindings_[s].elem_size;
      }
      metrics_.write_bytes_sent += wb_bytes;
      raise_on_landing(block, block.wb_landed, chunk + 1,
                       runtime_.gpu().post_d2h(wb_bytes));
      if (seeded_bug(fault::FaultKind::kEarlyRingRelease)) {
        // Seeded bug: hand the ring slot back while the write-back scatter
        // is still in flight — assembly may overwrite live staged writes.
        // (Deliberately no on_slot_release: the slot is NOT actually safe.)
        block.ring.release();
      }
    } else {
      release_slot_leases(block, chunk);
      if (pipecheck_ != nullptr) {
        pipecheck_->on_slot_release(block.index, chunk);
      }
      block.ring.release();
    }
  }
}

}  // namespace bigk::core
