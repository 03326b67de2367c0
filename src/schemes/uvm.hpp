// A sixth execution scheme, beyond the paper: unified-virtual-memory style
// demand paging (the mechanism that later CUDA releases offered as the
// "easy" alternative to explicit chunking, and the natural modern
// comparator for BigKernel's pseudo-virtual memory).
//
// The kernel is launched once over the whole mapped stream, as with
// BigKernel — but instead of pipelined prefetching, every access to a
// non-resident 4 KiB page takes a demand fault: the faulting warp stalls
// for the fault latency while the page migrates over PCIe; an LRU keeps the
// resident set within device memory, and dirty pages migrate back on
// eviction. No overlap, no layout transformation, no transfer reduction —
// which is exactly why BigKernel's pipeline beats it on streaming
// workloads despite offering the same programming model.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/stream.hpp"
#include "cusim/runtime.hpp"
#include "gpusim/gpu.hpp"
#include "schemes/metrics.hpp"
#include "schemes/runners.hpp"

namespace bigk::schemes {

/// Migration granule of the demand pager.
inline constexpr std::uint64_t kUvmPageBytes = 4 << 10;
/// Fraction (percent) of free device memory usable for resident pages.
inline constexpr std::uint32_t kUvmResidentBudgetPct = 80;
/// Fault service latency (driver + interrupt + map), on top of the page's
/// PCIe transfer time. 2014-era UVM faults were tens of microseconds.
inline constexpr sim::DurationPs kUvmFaultLatency = sim::microseconds(20);

namespace detail {

/// LRU page table over all mapped streams; functional residency plus fault
/// and write-back accounting.
class UvmPageTable {
 public:
  UvmPageTable(std::uint64_t capacity_pages, std::uint64_t page_bytes)
      : capacity_(capacity_pages), page_bytes_(page_bytes) {}

  struct TouchResult {
    bool fault = false;
    bool writeback = false;  // a dirty page was evicted
  };

  /// Touches the page holding (stream, byte offset); marks dirty on writes.
  TouchResult touch(std::uint32_t stream, std::uint64_t offset, bool write) {
    TouchResult result;
    const std::uint64_t key =
        (std::uint64_t{stream} << 48) | (offset / page_bytes_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->dirty |= write;
      return result;
    }
    result.fault = true;
    ++faults_;
    if (map_.size() >= capacity_) {
      const Entry& victim = lru_.back();
      if (victim.dirty) {
        result.writeback = true;
        ++writebacks_;
      }
      map_.erase(victim.key);
      lru_.pop_back();
    }
    lru_.push_front(Entry{key, write});
    map_[key] = lru_.begin();
    return result;
  }

  /// Dirty pages still resident at the end of the run (flushed then).
  std::uint64_t dirty_resident() const {
    std::uint64_t count = 0;
    for (const Entry& entry : lru_) count += entry.dirty ? 1 : 0;
    return count;
  }

  std::uint64_t faults() const noexcept { return faults_; }
  std::uint64_t writebacks() const noexcept { return writebacks_; }
  std::uint64_t page_bytes() const noexcept { return page_bytes_; }

 private:
  struct Entry {
    std::uint64_t key;
    bool dirty;
  };
  std::uint64_t capacity_;
  std::uint64_t page_bytes_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  std::uint64_t faults_ = 0;
  std::uint64_t writebacks_ = 0;
};

/// Kernel context for demand-paged execution: stream accesses consult the
/// page table; faults charge stall cycles on the issuing lane and queue the
/// page migration. Data accesses are traced at their *original* layout
/// addresses (UVM does not transform layouts).
class GpuUvmCtx {
 public:
  static constexpr bool kSimd = true;

  GpuUvmCtx(gpusim::LaneCtx& lane, std::vector<core::StreamBinding>& bindings,
            const core::DeviceTables& tables, UvmPageTable* pages,
            double fault_stall_cycles, std::uint64_t* h2d_pages,
            std::uint64_t* d2h_pages)
      : lane_(lane),
        bindings_(bindings),
        tables_(tables),
        pages_(pages),
        fault_stall_cycles_(fault_stall_cycles),
        h2d_pages_(h2d_pages),
        d2h_pages_(d2h_pages) {}

  template <class T>
  T read(core::StreamRef<T> stream, std::uint64_t elem) {
    page_touch(stream.id, elem * sizeof(T), false);
    // The access itself: original layout, as if the page were mapped at its
    // stream offset (a synthetic per-stream base keeps streams disjoint for
    // the coalescing analysis).
    trace(stream.id, elem * sizeof(T), sizeof(T));
    return bindings_[stream.id].template load<T>(elem);
  }

  template <class T>
  void write(core::StreamRef<T> stream, std::uint64_t elem, const T& value) {
    page_touch(stream.id, elem * sizeof(T), true);
    trace(stream.id, elem * sizeof(T), sizeof(T));
    bindings_[stream.id].template store<T>(elem, value);
  }

  template <class T>
  T load_table(core::TableRef<T> table, std::uint64_t index) {
    return lane_.load(tables_.device_ptr(table), index);
  }
  template <class T>
  T load_addr_table(core::TableRef<T> table, std::uint64_t index) {
    return load_table(table, index);
  }
  template <class T>
  void store_table(core::TableRef<T> table, std::uint64_t index,
                   const T& value) {
    lane_.store(tables_.device_ptr(table), index, value);
  }
  template <class T>
  T atomic_add_table(core::TableRef<T> table, std::uint64_t index, T delta) {
    return lane_.atomic_add(tables_.device_ptr(table), index, delta);
  }
  void alu(double ops) { lane_.alu(ops); }

 private:
  void page_touch(std::uint32_t stream, std::uint64_t offset, bool write) {
    const UvmPageTable::TouchResult result =
        pages_->touch(stream, offset, write);
    if (result.fault) {
      lane_.alu(fault_stall_cycles_);  // warp stalls on the fault
      ++*h2d_pages_;
    }
    if (result.writeback) ++*d2h_pages_;
  }

  void trace(std::uint32_t stream, std::uint64_t offset, std::uint32_t size) {
    const std::uint64_t base = std::uint64_t{stream} << 40;
    lane_.trace_access(base + offset, size);
  }

  gpusim::LaneCtx& lane_;
  std::vector<core::StreamBinding>& bindings_;
  const core::DeviceTables& tables_;
  UvmPageTable* pages_;
  double fault_stall_cycles_;
  std::uint64_t* h2d_pages_;
  std::uint64_t* d2h_pages_;
};

}  // namespace detail

/// Runs `app` under demand-paged unified memory: one launch, no pipeline.
template <class App>
RunMetrics run_gpu_uvm(const gpusim::SystemConfig& config, App& app,
                       const SchemeConfig& sc = {}) {
  app.reset();
  RunScaffold run(config, sc);
  auto bindings = detail::make_bindings(app.stream_decls());
  const auto kernel = app.kernel();
  const std::uint64_t num_records = app.num_records();

  run.sim.run_until_complete([](cusim::Runtime& rt, App& application,
                                std::vector<core::StreamBinding>& binds,
                                decltype(kernel) k, std::uint64_t records,
                                const SchemeConfig& scheme_config)
                                   -> sim::Task<> {
    core::DeviceTables tables =
        co_await core::DeviceTables::upload(rt, application.tables());

    const std::uint64_t budget = rt.gpu().memory().free_bytes() *
                                 kUvmResidentBudgetPct / 100;
    detail::UvmPageTable pages(
        std::max<std::uint64_t>(1, budget / kUvmPageBytes), kUvmPageBytes);
    // Fault stall expressed in warp cycles so it lands on the faulting lane.
    const double stall_cycles = static_cast<double>(kUvmFaultLatency) /
                                1000.0 * rt.gpu().config().core_clock_ghz;

    std::uint64_t h2d_pages = 0;
    std::uint64_t d2h_pages = 0;
    gpusim::KernelLaunch launch;
    launch.num_blocks = scheme_config.gpu_blocks;
    launch.threads_per_block = scheme_config.gpu_threads_per_block;
    launch.regs_per_thread = kBaselineRegsPerThread;
    const std::uint64_t total_threads =
        std::uint64_t{launch.num_blocks} * launch.threads_per_block;

    co_await rt.gpu().run_simple_kernel(
        launch, [&](gpusim::LaneCtx& lane, std::uint32_t) {
          detail::GpuUvmCtx ctx(lane, binds, tables, &pages, stall_cycles,
                                &h2d_pages, &d2h_pages);
          detail::run_thread_records(k, ctx, lane.global_thread(),
                                     total_threads, 0, records,
                                     application.interleaved_records());
        });

    // The migrations the faults implied, serialized over PCIe.
    co_await rt.gpu().h2d_transfer(h2d_pages * kUvmPageBytes);
    const std::uint64_t flush = d2h_pages + pages.dirty_resident();
    if (flush > 0) {
      co_await rt.gpu().d2h_transfer(flush * kUvmPageBytes);
    }
    co_await tables.download();
    tables.release();
  }(run.runtime, app, bindings, kernel, num_records, sc));

  RunMetrics metrics;
  metrics.scheme = Scheme::kGpuSingleBuffer;  // closest bucket for reporting
  run.finish(metrics);  // pinned_bytes stays 0: paging stages nothing
  return metrics;
}

}  // namespace bigk::schemes
