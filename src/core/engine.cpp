#include "core/engine.hpp"

#include <array>
#include <cassert>
#include <cstring>

#include "sim/hash.hpp"

namespace bigk::core {

namespace {
/// Per-thread registers and per-block shared memory of the BigKernel launch
/// shape, which bound its occupancy (§IV.D).
constexpr std::uint32_t kRegsPerThread = 32;
constexpr std::uint32_t kSharedBytesPerBlock = 8 << 10;

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// bigkdur digest of a stream's staged write-back values.
std::uint64_t staged_checksum_of(const StreamStage& stage) {
  sim::Digest sum;
  for (const StagedWrite& write : stage.staged_writes) {
    sum.mix(write.elem);
    sum.mix(write.raw);
  }
  return sum.value();
}
}  // namespace

Engine::Geometry Engine::plan(std::uint64_t num_records) {
  Geometry geometry;
  geometry.layout = !options_.transfer_reduction
                        ? DataLayout::kOriginal
                        : (options_.coalesced_layout
                               ? DataLayout::kInterleaved
                               : DataLayout::kThreadMajor);

  gpusim::KernelLaunch probe;
  probe.num_blocks = options_.num_blocks;
  probe.threads_per_block = 2 * options_.compute_threads_per_block;
  probe.regs_per_thread = kRegsPerThread;
  probe.shared_bytes_per_block = kSharedBytesPerBlock;
  geometry.blocks = runtime_.gpu().max_active_blocks(probe);
  if (geometry.blocks == 0) {
    throw std::invalid_argument("BigKernel launch shape fits no SM");
  }

  // Buffer budget per (block, ring slot): §IV.D — allocate for active blocks
  // only, so fewer active blocks means larger buffers.
  std::uint64_t budget = options_.data_buf_bytes;
  if (budget == 0) {
    const std::uint64_t free_bytes = runtime_.gpu().memory().free_bytes();
    budget = free_bytes * 7 / 10 /
             (std::uint64_t{geometry.blocks} * options_.buffer_depth);
  }

  const std::uint32_t c_threads = options_.compute_threads_per_block;
  std::uint64_t per_record_bytes = 0;
  std::uint64_t fixed_bytes = 0;
  for (std::uint32_t s = 0; s < bindings_.size(); ++s) {
    const StreamBinding& bind = bindings_[s];
    const std::uint64_t accessed = geometry.layout == DataLayout::kOriginal
                                       ? bind.elems_per_record
                                       : bind.reads_per_record;
    per_record_bytes +=
        std::uint64_t{bind.elem_size} * (accessed + bind.writes_per_record);
    fixed_bytes += std::uint64_t{bind.elem_size} * overfetch_[s];
  }
  if (per_record_bytes == 0) {
    throw std::invalid_argument("mapped streams declare no accesses");
  }
  if (budget / c_threads <= fixed_bytes) {
    throw std::invalid_argument(
        "data buffer budget too small for the declared overfetch window");
  }
  geometry.rptc =
      std::max<std::uint64_t>(1, (budget / c_threads - fixed_bytes) /
                                     per_record_bytes);
  (void)num_records;
  return geometry;
}

gpusim::KernelLaunch Engine::launch_shape() const {
  gpusim::KernelLaunch shape;
  shape.num_blocks = geometry_.blocks;
  shape.threads_per_block = 2 * options_.compute_threads_per_block;
  shape.regs_per_thread = kRegsPerThread;
  shape.shared_bytes_per_block = kSharedBytesPerBlock;
  return shape;
}

void Engine::build_blocks(std::uint64_t num_records) {
  release_buffers();
  // Ring buffers come from the attached pool, or from one that lives for
  // this launch only, so without an attached pool nothing is reused across
  // launches. Either way every ring slot is a pinned_alloc_fail site.
  if (pinned_pool_ == nullptr) launch_pool_.emplace(runtime_);
  cache::PinnedPool& pool = ring_pool();
  auto& memory = runtime_.gpu().memory();
  const std::uint32_t c_threads = options_.compute_threads_per_block;
  const std::uint32_t depth = options_.buffer_depth;
  const std::uint64_t per_block = ceil_div(num_records, geometry_.blocks);
  const std::uint32_t host_threads =
      geometry_.blocks * (has_writes_ ? 2u : 1u);

  blocks_.reserve(geometry_.blocks);
  for (std::uint32_t b = 0; b < geometry_.blocks; ++b) {
    auto block = std::make_shared<BlockState>(sim(), depth,
                                              runtime_.create_stream());
    block->index = b;
    block->records.begin = std::min(std::uint64_t{b} * per_block, num_records);
    block->records.end =
        std::min(block->records.begin + per_block, num_records);
    block->per_thread = ceil_div(block->records.size(), c_threads);
    block->chunks = ceil_div(block->per_thread, geometry_.rptc);
    block->addr_region = runtime_.next_region_id();
    block->assembly_thread.emplace(runtime_.cpu().make_thread(host_threads));
    block->assembly_thread->set_trace_label("assembly b" + std::to_string(b));
    if (has_writes_) {
      block->scatter_thread.emplace(runtime_.cpu().make_thread(host_threads));
      block->scatter_thread->set_trace_label("scatter b" + std::to_string(b));
    }

    block->slots.resize(depth);
    std::uint64_t pinned_addr_bytes = 0;
    for (std::uint32_t slot_idx = 0; slot_idx < block->slots.size();
         ++slot_idx) {
      ChunkSlot& slot = block->slots[slot_idx];
      const std::size_t allocs_before = device_allocs_.size();
      slot.streams.resize(bindings_.size());
      slot.prefetch_offset.resize(bindings_.size());
      std::uint64_t total = 0;
      std::uint64_t slot_addr_bytes = 0;
      for (std::uint32_t s = 0; s < bindings_.size(); ++s) {
        const StreamBinding& bind = bindings_[s];
        StreamStage& stage = slot.streams[s];
        const std::uint64_t accessed =
            geometry_.layout == DataLayout::kOriginal
                ? geometry_.rptc * bind.elems_per_record
                : geometry_.rptc * bind.reads_per_record;
        stage.slots_per_thread = accessed + overfetch_[s];
        stage.write_slots_per_thread =
            geometry_.rptc * bind.writes_per_record;
        stage.data_capacity_bytes =
            std::uint64_t{c_threads} * stage.slots_per_thread * bind.elem_size;
        stage.write_capacity_bytes = std::uint64_t{c_threads} *
                                     stage.write_slots_per_thread *
                                     bind.elem_size;
        stage.dev_data_base = memory.allocate_bytes(stage.data_capacity_bytes);
        device_allocs_.push_back(stage.dev_data_base);
        if (stage.write_capacity_bytes > 0) {
          stage.dev_write_base =
              memory.allocate_bytes(stage.write_capacity_bytes);
          device_allocs_.push_back(stage.dev_write_base);
        }
        stage.read_addrs.resize(c_threads);
        stage.write_addrs.resize(c_threads);
        slot.prefetch_offset[s] = total;
        total += stage.data_capacity_bytes;
        slot_addr_bytes +=
            std::uint64_t{c_threads} * stage.slots_per_thread * 8;
      }
      cache::PinnedPool::Buffer buffer;
      try {
        buffer = pool.acquire(total);
      } catch (const fault::PinnedAllocError&) {
        if (slot_idx < 2) {
          // A ring needs two slots to pipeline at all; below that the
          // failure is fatal and propagates to the caller.
          throw;
        }
        // Graceful degradation: run this block with the slots already
        // built. The extra ring tokens are withheld permanently so the
        // pipeline never acquires the abandoned slot.
        for (std::size_t a = device_allocs_.size(); a > allocs_before; --a) {
          memory.free_offset(device_allocs_[a - 1]);
        }
        device_allocs_.resize(allocs_before);
        block->slots.resize(slot_idx);
        block->depth = slot_idx;
        for (std::uint32_t k = slot_idx; k < depth; ++k) {
          block->ring.try_acquire();
        }
        degraded_ = true;
        ++metrics_.degraded_blocks;
        if (fault::FaultPlane* plane = runtime_.fault_plane()) {
          plane->on_degraded();
          plane->on_recovered(fault::FaultKind::kPinnedAllocFail);
        }
        break;
      }
      slot.prefetch = std::move(buffer.data);
      slot.prefetch_region = buffer.region;
      pinned_addr_bytes += slot_addr_bytes;
    }
    block->slot_leases.resize(block->depth);
    runtime_.note_pinned(pinned_addr_bytes);
    blocks_.push_back(std::move(block));
  }
}

void Engine::release_buffers() {
  for (std::uint64_t offset : device_allocs_) {
    runtime_.gpu().memory().free_offset(offset);
  }
  device_allocs_.clear();
  for (auto& block : blocks_) {
    for (ChunkSlot& slot : block->slots) {
      ring_pool().release(cache::PinnedPool::Buffer{std::move(slot.prefetch),
                                                    slot.prefetch_region});
    }
  }
  blocks_.clear();
  launch_pool_.reset();
}

Engine::Range Engine::thread_chunk_range(const BlockState& block,
                                         std::uint32_t vtid,
                                         std::uint64_t chunk) const {
  const std::uint64_t thread_begin =
      block.records.begin + std::uint64_t{vtid} * block.per_thread;
  if (thread_begin >= block.records.end) return {};
  const std::uint64_t thread_end =
      std::min(block.records.end, thread_begin + block.per_thread);
  const std::uint64_t chunk_begin = thread_begin + chunk * geometry_.rptc;
  if (chunk_begin >= thread_end) return {};
  return {chunk_begin, std::min(thread_end, chunk_begin + geometry_.rptc)};
}

void Engine::finalize_addresses(BlockState& block, ChunkSlot& slot,
                                std::uint64_t* wire_bytes) {
  (void)block;
  for (std::uint32_t s = 0; s < bindings_.size(); ++s) {
    StreamStage& stage = slot.streams[s];
    for (std::uint32_t v = 0; v < stage.read_addrs.size(); ++v) {
      ThreadAddrs& reads = stage.read_addrs[v];
      reads.finalize();
      if (reads.count > 0) {
        ++metrics_.thread_chunks;
        if (reads.pattern) ++metrics_.pattern_hits;
      }
      *wire_bytes += reads.wire_bytes;
      ThreadAddrs& writes = stage.write_addrs[v];
      writes.finalize();
      *wire_bytes += writes.wire_bytes;
    }
  }
}

void Engine::report_addr_counts(BlockState& block, ChunkSlot& slot,
                                std::uint64_t chunk) {
  const std::uint32_t c_threads = options_.compute_threads_per_block;
  for (std::uint32_t s = 0; s < bindings_.size(); ++s) {
    const StreamStage& stage = slot.streams[s];
    std::vector<std::uint32_t> counts(c_threads, 0);
    if (geometry_.layout == DataLayout::kOriginal) {
      // Whole-chunk fetch: the staged count per thread is determined by its
      // chunk range, mirroring the copy in assemble_stream().
      const StreamBinding& bind = bindings_[s];
      for (std::uint32_t v = 0; v < c_threads; ++v) {
        const Range range = thread_chunk_range(block, v, chunk);
        if (range.empty()) continue;
        const std::uint64_t base_elem = range.begin * bind.elems_per_record;
        std::uint64_t count =
            range.size() * bind.elems_per_record + overfetch_[s];
        count = std::min(count, bind.num_elements - base_elem);
        count = std::min(count, stage.slots_per_thread);
        counts[v] = static_cast<std::uint32_t>(count);
      }
    } else {
      for (std::uint32_t v = 0;
           v < c_threads && v < stage.read_addrs.size(); ++v) {
        counts[v] = static_cast<std::uint32_t>(stage.read_addrs[v].count);
      }
    }
    pipecheck_->on_addr_counts(block.index, chunk, s, std::move(counts));
  }
}

sim::Task<> Engine::assembly_process(BlockState& block) {
  hostsim::HostThread& thread = *block.assembly_thread;
  fault::FaultPlane* plane = runtime_.fault_plane();
  const std::uint32_t device = runtime_.fault_device();
  dur::Integrity* integrity = runtime_.integrity();
  for (std::uint64_t chunk = 0; chunk < block.chunks; ++chunk) {
    co_await block.addr_ready.wait_ge(chunk + 1);
    if (aborted_) co_return;
    if (plane != nullptr) {
      if (const auto stall = plane->stall_duration(device, sim().now())) {
        if (*stall == 0 || *stall >= options_.recovery.watchdog_timeout) {
          // The stage would hang (stall=0 models "forever") or outlast the
          // watchdog: the watchdog fires at the timeout and converts the
          // stall into a TimeoutError instead of wedging the pipeline.
          co_await sim().delay(options_.recovery.watchdog_timeout);
          abort_launch(std::make_exception_ptr(fault::TimeoutError(
              "stage watchdog: assembly for block " +
              std::to_string(block.index) + " chunk " + std::to_string(chunk) +
              " stalled past the watchdog timeout")));
          co_return;
        }
        // Finite stall: absorbed as pipeline delay and counted recovered.
        // The stall occupies the assembly stage, so it is attributed as
        // assembly busy time — a stalled stage must show up as the
        // bottleneck in the profiler's window, not vanish from accounting.
        const sim::TimePs stall_begin = sim().now();
        co_await sim().delay(*stall);
        if (aborted_) co_return;
        plane->on_recovered(fault::FaultKind::kStageStall);
        record_stage(obs::Stage::kAssembly, block.index, chunk, stall_begin,
                     sim().now());
      }
    }
    ChunkSlot& slot = block.slots[chunk % block.depth];
    if (pipecheck_ != nullptr) {
      pipecheck_->on_assembly_begin(block.index, chunk);
    }

    const sim::TimePs start = sim().now();
    std::vector<std::uint64_t> bytes(bindings_.size(), 0);
    std::vector<std::uint64_t>& leases =
        block.slot_leases[chunk % block.depth];
    for (std::uint32_t s = 0; s < bindings_.size(); ++s) {
      StreamStage& stage = slot.streams[s];
      const bool cached = chunk_cache_ != nullptr && stream_cacheable(s);
      cache::CacheKey key;
      if (cached) {
        key.dataset = cache_dataset_;
        key.stream = s;
        key.range_begin = block.records.begin;
        key.range_end = block.records.end;
        key.chunk = chunk;
        key.layout = static_cast<std::uint8_t>(geometry_.layout);
        key.signature = chunk_signature(block, slot, s, chunk);
        if (auto lease = chunk_cache_->lookup(key, sim().now())) {
          // Hit: the entry's device range already holds this exact image —
          // skip assembly and the H2D DMA entirely; compute reads the entry.
          stage.cached_dev_base = lease->dev_base;
          leases.push_back(lease->entry);
          ++metrics_.cache_hits;
          metrics_.cache_bytes_saved += lease->bytes;
          if (pipecheck_ != nullptr) {
            pipecheck_->on_cache_slot(block.index, chunk, s, lease->entry,
                                      /*hit=*/true);
          }
          // Lookup + bookkeeping cost on the assembly thread (tiny next to
          // the gather it replaces).
          thread.compute(
              static_cast<double>(options_.compute_threads_per_block) * 0.25);
          continue;
        }
        ++metrics_.cache_misses;
      }
      bytes[s] = assemble_stream(block, slot, s, chunk, thread);
      if (bytes[s] == 0) continue;
      if (integrity != nullptr) {
        // Digest the image once here; the same digest covers the cache
        // entry (hit/scrub verification) and the post-DMA check.
        stage.image_checksum = sim::digest_bytes(
            {slot.prefetch.data() + slot.prefetch_offset[s], bytes[s]});
      }
      if (!cached) continue;
      if (auto lease = chunk_cache_->insert(key, bytes[s], sim().now(),
                                            stage.image_checksum)) {
        // The DMA below lands in the entry's range directly, so the image
        // is cached as a side effect of the transfer it had to do anyway.
        stage.cached_dev_base = lease->dev_base;
        leases.push_back(lease->entry);
        if (pipecheck_ != nullptr) {
          pipecheck_->on_cache_slot(block.index, chunk, s, lease->entry,
                                    /*hit=*/false);
        }
      }
    }
    co_await thread.commit();
    if (aborted_) co_return;
    record_stage(obs::Stage::kAssembly, block.index, chunk, start,
                 sim().now());

    std::vector<PendingCopy> copies;
    for (std::uint32_t s = 0; s < bindings_.size(); ++s) {
      if (bytes[s] == 0) continue;
      const StreamStage& stage = slot.streams[s];
      const std::byte* host = slot.prefetch.data() + slot.prefetch_offset[s];
      const std::uint64_t op =
          block.dma.memcpy_h2d_async(stage.active_data_base(), host, bytes[s]);
      metrics_.data_bytes_sent += bytes[s];
      copies.push_back(PendingCopy{s, op, stage.active_data_base(), host,
                                   bytes[s], stage.image_checksum});
    }
    // The chunk's supervisor raises its ready flag once the in-order stream
    // reports every copy done (verified, and retried if an op failed), so a
    // flag never signals data that has not landed (§IV.C).
    supervisors_.push_back(sim().spawn(
        transfer_supervisor(block, chunk, std::move(copies), sim().now())));
  }
}

sim::Task<> Engine::transfer_supervisor(BlockState& block, std::uint64_t chunk,
                                        std::vector<PendingCopy> copies,
                                        sim::TimePs begin) {
  fault::FaultPlane* plane = runtime_.fault_plane();
  const std::uint32_t device = runtime_.fault_device();
  dur::Integrity* integrity = runtime_.integrity();
  std::array<std::uint64_t, fault::kNumFaultKinds> absorbed{};
  for (std::uint32_t attempt = 0;; ++attempt) {
    for (const PendingCopy& copy : copies) {
      co_await block.dma.wait_for(copy.op);
    }
    if (aborted_) co_return;
    std::vector<PendingCopy> failed;
    bool lost = false;
    for (const PendingCopy& copy : copies) {
      if (const auto fault = block.dma.take_failure(copy.op)) {
        if (*fault == fault::FaultKind::kDeviceLost) {
          lost = true;
        } else {
          ++absorbed[static_cast<std::size_t>(*fault)];
        }
        failed.push_back(copy);
      }
    }
    if (lost || (plane != nullptr && plane->device_lost(device))) {
      abort_launch(std::make_exception_ptr(fault::DeviceLostError(
          "device lost during the chunk " + std::to_string(chunk) +
          " transfer (block " + std::to_string(block.index) + ")")));
      co_return;
    }
    // bigkdur post-DMA verification: re-digest the landed device bytes of
    // every cleanly-completed copy against the assembly-time checksum. A
    // silent flip (fault.bitflip_dma) looks like a successful op — only this
    // check catches it; the mismatch joins the failed set and rides the same
    // retry machinery (the pinned image is intact, so the redo is clean).
    bool mismatch = false;
    if (integrity != nullptr) {
      for (const PendingCopy& copy : copies) {
        if (copy.checksum == 0) continue;
        bool already_failed = false;
        for (const PendingCopy& f : failed) {
          if (f.op == copy.op) {
            already_failed = true;
            break;
          }
        }
        if (already_failed) continue;
        const auto landed =
            runtime_.gpu().memory().bytes(copy.dev_base, copy.bytes);
        if (sim::digest_bytes(landed) == copy.checksum) {
          integrity->note_verified(dur::Site::kDma);
        } else {
          integrity->note_detected(dur::Site::kDma, device, sim().now());
          ++absorbed[static_cast<std::size_t>(fault::FaultKind::kBitflipDma)];
          failed.push_back(copy);
          mismatch = true;
        }
      }
    }
    if (failed.empty()) break;
    if (attempt >= kMaxChunkRetries) {
      const std::string what =
          "block " + std::to_string(block.index) + " chunk " +
          std::to_string(chunk) + " H2D still failing after " +
          std::to_string(attempt + 1) + " attempts";
      abort_launch(mismatch ? std::make_exception_ptr(dur::IntegrityError(
                                  what + " (integrity mismatch persists)"))
                            : std::make_exception_ptr(fault::DmaError(what)));
      co_return;
    }
    // Capped exponential backoff before the redo.
    const sim::DurationPs backoff = retry_backoff_for(attempt);
    co_await sim().delay(backoff);
    if (aborted_) co_return;
    ++metrics_.chunk_retries;
    for (PendingCopy& copy : failed) {
      // Idempotent chunk redo: the pinned image for this ring slot stays
      // intact until the slot is released, so re-issuing the same copy
      // replays the transfer (and overwrites ECC-corrupted device bytes).
      copy.op = block.dma.memcpy_h2d_async(copy.dev_base, copy.host,
                                           copy.bytes);
      metrics_.retried_bytes += copy.bytes;
    }
    copies = std::move(failed);
  }
  // In-order flag protocol: chunk N's flag must not overtake chunk N-1's (a
  // retry can finish after the next chunk's clean transfer), so each
  // supervisor chains behind its predecessor before raising.
  co_await block.data_ready.wait_ge(chunk);
  if (aborted_) co_return;
  block.data_ready.advance_to(chunk + 1);
  // The transfer stage is the wall time from enqueue to the ready flag
  // (PCIe contention with other blocks included), like the paper's
  // continuous transfer-status pinging (fn. 7).
  record_stage(obs::Stage::kTransfer, block.index, chunk, begin, sim().now());
  if (obs::Tracer* tracer = runtime_.tracer()) {
    tracer->instant(
        stage_track(*tracer, obs::Stage::kTransfer, block.index, chunk),
        "data ready", sim().now(), "engine");
  }
  if (plane != nullptr) {
    for (std::size_t k = 0; k < absorbed.size(); ++k) {
      if (absorbed[k] > 0) {
        plane->on_recovered(static_cast<fault::FaultKind>(k), absorbed[k]);
      }
    }
  }
  if (integrity != nullptr) {
    const std::uint64_t flips =
        absorbed[static_cast<std::size_t>(fault::FaultKind::kBitflipDma)];
    for (std::uint64_t i = 0; i < flips; ++i) {
      integrity->note_repaired(dur::Site::kDma);
    }
  }
}

void Engine::abort_launch(std::exception_ptr error) {
  if (!aborted_) {
    aborted_ = true;
    abort_error_ = std::move(error);
  }
  // Wake every parked stage: flags flood past any chunk index and enough
  // ring tokens are handed out that blocked drivers resume, observe
  // aborted_, and exit. Flags are monotone, so the flood is idempotent.
  for (auto& block : blocks_) {
    const std::uint64_t flood = block->chunks + block->depth + 2;
    block->addr_ready.advance_to(flood);
    block->data_ready.advance_to(flood);
    block->wb_landed.advance_to(flood);
    for (std::uint32_t k = 0; k < block->depth; ++k) {
      block->ring.release();
    }
  }
}

std::uint64_t Engine::assemble_stream(BlockState& block, ChunkSlot& slot,
                                      std::uint32_t s, std::uint64_t chunk,
                                      hostsim::HostThread& thread) {
  const StreamBinding& bind = bindings_[s];
  StreamStage& stage = slot.streams[s];
  const std::uint32_t c_threads = options_.compute_threads_per_block;
  const std::uint32_t elem_size = bind.elem_size;
  std::byte* prefetch = slot.prefetch.data() + slot.prefetch_offset[s];

  if (geometry_.layout == DataLayout::kOriginal) {
    // Whole-chunk copy, one contiguous run per computation thread.
    std::uint64_t used_bytes = 0;
    for (std::uint32_t v = 0; v < c_threads; ++v) {
      const Range range = thread_chunk_range(block, v, chunk);
      if (range.empty()) continue;
      const std::uint64_t base_elem = range.begin * bind.elems_per_record;
      std::uint64_t count = range.size() * bind.elems_per_record +
                            overfetch_[s];
      count = std::min(count, bind.num_elements - base_elem);
      count = std::min(count, stage.slots_per_thread);
      thread.read_sequential(bind.host_region, base_elem * elem_size,
                             count * elem_size);
      thread.write_stream(count * elem_size);
      thread.compute(static_cast<double>(count) * 0.25);  // copy-loop overhead
      std::memcpy(prefetch +
                      std::uint64_t{v} * stage.slots_per_thread * elem_size,
                  bind.host_data + base_elem * elem_size, count * elem_size);
      used_bytes =
          (std::uint64_t{v} * stage.slots_per_thread + count) * elem_size;
      metrics_.elements_fetched += count;
      metrics_.source_bytes_read += count * elem_size;
    }
    return used_bytes;
  }

  std::uint64_t max_count = 0;
  for (const ThreadAddrs& addrs : stage.read_addrs) {
    max_count = std::max(max_count, addrs.count);
  }
  if (max_count == 0) return 0;

  auto gather_one = [&](std::uint32_t v, const ThreadAddrs& addrs,
                        std::uint64_t k, bool addr_from_buffer,
                        bool thread_major_order) {
    const std::uint64_t elem = addrs.element_at(k, elem_size);
    if (addr_from_buffer) {
      // Without a pattern the CPU must first read the DMA-delivered address
      // (the extra read of §III's "two reads and two writes").
      thread.read_sequential(
          block.addr_region,
          (std::uint64_t{v} * stage.slots_per_thread + k) * kAddrBytes,
          kAddrBytes);
    }
    if (thread_major_order) {
      // One GPU thread's data at a time (Â§IV.B): addresses ascend
      // monotonically, so the hardware prefetcher covers them.
      thread.read_sequential(bind.host_region, elem * elem_size, elem_size);
    } else {
      // Slot-major order hops between every thread's region per step.
      thread.read(bind.host_region, elem * elem_size, elem_size);
    }
    thread.compute(1.0);
    const std::uint64_t pos = prefetch_position(
        stage, geometry_.layout, c_threads, v, k, elem_size);
    std::memcpy(prefetch + pos, bind.host_data + elem * elem_size, elem_size);
    thread.write_stream(elem_size);
    ++metrics_.elements_fetched;
    metrics_.source_bytes_read += elem_size;
  };

  // Pass 1 (§IV.B): pattern-covered threads gathered one thread at a time —
  // consecutive source elements, high cache locality. A unit-stride pattern
  // (character streams) degenerates to a bulk copy of the run: the CPU reads
  // it sequentially and scatters into the layout with vectorizable stores.
  for (std::uint32_t v = 0; v < c_threads; ++v) {
    const ThreadAddrs& addrs = stage.read_addrs[v];
    if (addrs.pattern && options_.locality_assembly) {
      const bool dense = addrs.pattern->strides.size() == 1 &&
                         addrs.pattern->strides[0] ==
                             static_cast<std::int64_t>(elem_size);
      if (dense) {
        const std::uint64_t first = addrs.element_at(0, elem_size);
        const std::uint64_t bytes = addrs.count * elem_size;
        thread.read_sequential(bind.host_region, first * elem_size, bytes);
        thread.write_stream(bytes);
        thread.compute(static_cast<double>(addrs.count) * 0.25);
        for (std::uint64_t k = 0; k < addrs.count; ++k) {
          const std::uint64_t pos = prefetch_position(
              stage, geometry_.layout, c_threads, v, k, elem_size);
          std::memcpy(prefetch + pos,
                      bind.host_data + (first + k) * elem_size, elem_size);
        }
        metrics_.elements_fetched += addrs.count;
        metrics_.source_bytes_read += bytes;
        continue;
      }
      for (std::uint64_t k = 0; k < addrs.count; ++k) {
        gather_one(v, addrs, k, /*addr_from_buffer=*/false,
                   /*thread_major_order=*/true);
      }
    }
  }
  // Pass 2: everything else in the order the GPU consumes it (slot-major).
  for (std::uint64_t k = 0; k < max_count; ++k) {
    for (std::uint32_t v = 0; v < c_threads; ++v) {
      const ThreadAddrs& addrs = stage.read_addrs[v];
      if (addrs.pattern && options_.locality_assembly) continue;
      if (k >= addrs.count) continue;
      gather_one(v, addrs, k, /*addr_from_buffer=*/!addrs.pattern,
                 /*thread_major_order=*/false);
    }
  }

  if (geometry_.layout == DataLayout::kInterleaved) {
    return max_count * c_threads * elem_size;
  }
  // Thread-major: transfer up to the end of the last used thread region.
  std::uint64_t used_bytes = 0;
  for (std::uint32_t v = 0; v < c_threads; ++v) {
    const ThreadAddrs& addrs = stage.read_addrs[v];
    if (addrs.count > 0) {
      used_bytes =
          (std::uint64_t{v} * stage.slots_per_thread + addrs.count) *
          elem_size;
    }
  }
  return used_bytes;
}

std::uint64_t Engine::chunk_signature(const BlockState& block,
                                      const ChunkSlot& slot,
                                      std::uint32_t stream,
                                      std::uint64_t chunk) const {
  const StreamStage& stage = slot.streams[stream];
  const std::uint32_t c_threads = options_.compute_threads_per_block;
  sim::Digest hash;
  hash.mix(c_threads);
  hash.mix(stage.slots_per_thread);
  hash.mix(geometry_.rptc);
  if (static_signature_ != 0) hash.mix(static_signature_);
  if (geometry_.layout == DataLayout::kOriginal) {
    // Whole-chunk fetch: the image is fully determined by the per-thread
    // chunk ranges (mirroring the copy in assemble_stream).
    for (std::uint32_t v = 0; v < c_threads; ++v) {
      const Range range = thread_chunk_range(block, v, chunk);
      hash.mix(range.begin);
      hash.mix(range.size());
    }
    return hash.value();
  }
  for (std::uint32_t v = 0; v < c_threads && v < stage.read_addrs.size();
       ++v) {
    const ThreadAddrs& addrs = stage.read_addrs[v];
    hash.mix(addrs.count);
    if (addrs.pattern) {
      hash.mix(addrs.pattern->base);
      for (std::int64_t stride : addrs.pattern->strides) {
        hash.mix(static_cast<std::uint64_t>(stride));
      }
    } else {
      for (std::uint64_t elem : addrs.elems) hash.mix(elem);
    }
  }
  return hash.value();
}

void Engine::release_slot_leases(BlockState& block, std::uint64_t chunk) {
  if (chunk_cache_ == nullptr || block.slot_leases.empty()) return;
  std::vector<std::uint64_t>& leases =
      block.slot_leases[chunk % block.depth];
  for (std::uint64_t entry : leases) chunk_cache_->unpin(entry);
  leases.clear();
}

void Engine::seal_staged_writes(ChunkSlot& slot) {
  fault::FaultPlane* plane = runtime_.fault_plane();
  const std::uint32_t device = runtime_.fault_device();
  dur::Integrity* integrity = runtime_.integrity();
  for (StreamStage& stage : slot.streams) {
    if (integrity != nullptr) {
      stage.staged_checksum = staged_checksum_of(stage);
    }
    if (plane != nullptr && !stage.staged_writes.empty() &&
        plane->should_inject(fault::FaultKind::kBitflipWriteback, device,
                             sim().now())) {
      // Flip one bit of a staged value *after* the digest was taken: models
      // corruption between compute and the write-back scatter. With
      // integrity off this silently reaches the host output.
      stage.staged_writes.front().raw ^= 1;
    }
  }
}

sim::Task<> Engine::scatter_process(BlockState& block) {
  hostsim::HostThread& thread = *block.scatter_thread;
  fault::FaultPlane* plane = runtime_.fault_plane();
  const std::uint32_t device = runtime_.fault_device();
  dur::Integrity* integrity = runtime_.integrity();
  for (std::uint64_t chunk = 0; chunk < block.chunks; ++chunk) {
    co_await block.wb_landed.wait_ge(chunk + 1);
    if (aborted_) co_return;
    ChunkSlot& slot = block.slots[chunk % block.depth];

    const sim::TimePs start = sim().now();
    for (std::uint32_t s = 0; s < bindings_.size(); ++s) {
      StreamBinding& bind = bindings_[s];
      StreamStage& stage = slot.streams[s];
      const std::uint32_t elem_size = bind.elem_size;
      if (integrity != nullptr && !stage.staged_writes.empty()) {
        // bigkdur write-back verification: re-digest the staged values
        // against the compute-end checksum before any host byte moves.
        if (staged_checksum_of(stage) != stage.staged_checksum) {
          integrity->note_detected(dur::Site::kWriteback, device, sim().now());
          // Repair in place: the device write buffer still holds the values
          // the kernel actually stored — re-fetch each staged value from
          // its recorded device address.
          for (StagedWrite& write : stage.staged_writes) {
            std::uint64_t raw = 0;
            const auto src =
                runtime_.gpu().memory().bytes(write.dev_addr, elem_size);
            std::memcpy(&raw, src.data(), elem_size);
            write.raw = raw;
          }
          if (staged_checksum_of(stage) != stage.staged_checksum) {
            abort_launch(std::make_exception_ptr(dur::IntegrityError(
                "block " + std::to_string(block.index) + " chunk " +
                std::to_string(chunk) + " stream " + std::to_string(s) +
                " staged write-back corrupt and unrepairable from the "
                "device write buffer")));
            co_return;
          }
          integrity->note_repaired(dur::Site::kWriteback);
          if (plane != nullptr) {
            plane->on_recovered(fault::FaultKind::kBitflipWriteback);
          }
        } else {
          integrity->note_verified(dur::Site::kWriteback);
        }
      }
      std::uint64_t index = 0;
      for (const StagedWrite& write : stage.staged_writes) {
        thread.read_sequential(block.addr_region, index * kAddrBytes,
                               kAddrBytes);
        thread.write(bind.host_region, write.elem * elem_size, elem_size);
        thread.compute(1.0);
        std::memcpy(bind.out(write.elem), &write.raw, elem_size);
        ++metrics_.elements_written;
        ++index;
      }
      stage.staged_writes.clear();
    }
    co_await thread.commit();
    record_stage(obs::Stage::kWriteback, block.index, chunk, start,
                 sim().now());
    release_slot_leases(block, chunk);
    if (pipecheck_ != nullptr) {
      pipecheck_->on_slot_release(block.index, chunk);
    }
    block.ring.release();
  }
}

}  // namespace bigk::core
