// The two kernel instantiations BigKernel's "compiler transformation"
// produces from one kernel source (§III):
//
//  * AddrGenCtx — the prefetch address-generation stage: stream reads record
//    their addresses (feeding the pattern detector) and return dummy zero
//    values; everything that does not contribute to addresses (arithmetic,
//    table access, atomics) is stripped to a no-op, exactly like the paper's
//    statement removal. load_addr_table() is the one table access kept: it
//    marks loads that feed address computation (e.g. the indexed MasterCard
//    offset array).
//
//  * ComputeCtx — the computation stage: stream reads are redirected to the
//    assembled data buffer (dataBuf[counter++][tid] in the paper), stream
//    writes go to the write buffer and are staged for CPU-side scatter, and
//    all stripped operations run for real.
//
// Kernels must satisfy the streaming restriction of the paper: the sequence
// of stream accesses may not depend on stream *values* except that a kernel
// may stop early (dummy zeros must take the maximal access path), so the
// computation stage consumes a prefix of the recorded access sequence.
#pragma once

#include <array>
#include <cstring>

#include "check/pipecheck.hpp"
#include "core/device_tables.hpp"
#include "core/staging.hpp"
#include "core/stream.hpp"
#include "gpusim/gpu.hpp"

namespace bigk::core {

/// Maximum mapped streams per kernel (fixed-size counters keep the hot path
/// allocation-free).
constexpr std::uint32_t kMaxStreams = 4;

/// Cycles charged per generated address (the surviving address arithmetic).
constexpr double kAddrGenCyclesPerAccess = 2.0;
/// Extra cycles for the online pattern check of §IV.A.
constexpr double kPatternCheckCycles = 0.5;

class AddrGenCtx {
 public:
  /// SIMD lock-step execution: kernels inflate branchy work on such
  /// contexts by their declared warp-divergence factor.
  static constexpr bool kSimd = true;

  AddrGenCtx(gpusim::LaneCtx& lane, ChunkSlot& slot,
             const std::vector<StreamBinding>& bindings,
             const DeviceTables& tables, std::uint32_t vtid,
             bool detect_patterns)
      : lane_(lane),
        slot_(slot),
        bindings_(bindings),
        tables_(tables),
        vtid_(vtid),
        detect_(detect_patterns) {}

  template <class T>
  T read(StreamRef<T> stream, std::uint64_t elem) {
    ThreadAddrs& addrs = slot_.streams[stream.id].read_addrs[vtid_];
    addrs.feed(elem, sizeof(T));
    lane_.alu(kAddrGenCyclesPerAccess +
              (detect_ ? kPatternCheckCycles : 0.0));
    return T{};
  }

  template <class T>
  void write(StreamRef<T> stream, std::uint64_t elem, const T&) {
    ThreadAddrs& addrs = slot_.streams[stream.id].write_addrs[vtid_];
    addrs.feed(elem, sizeof(T));
    lane_.alu(kAddrGenCyclesPerAccess +
              (detect_ ? kPatternCheckCycles : 0.0));
  }

  /// Kept: a device load that feeds address computation.
  template <class T>
  T load_addr_table(TableRef<T> table, std::uint64_t index) {
    return lane_.load(tables_.device_ptr(table), index);
  }

  // Stripped statements: no cost, no effect, dummy values.
  template <class T>
  T load_table(TableRef<T>, std::uint64_t) {
    return T{};
  }
  template <class T>
  void store_table(TableRef<T>, std::uint64_t, const T&) {}
  template <class T>
  T atomic_add_table(TableRef<T>, std::uint64_t, T) {
    return T{};
  }
  void alu(double) {}

 private:
  gpusim::LaneCtx& lane_;
  ChunkSlot& slot_;
  const std::vector<StreamBinding>& bindings_;
  const DeviceTables& tables_;
  std::uint32_t vtid_;
  bool detect_;
};

class ComputeCtx {
 public:
  static constexpr bool kSimd = true;

  ComputeCtx(gpusim::LaneCtx& lane, ChunkSlot& slot,
             const std::vector<StreamBinding>& bindings,
             const DeviceTables& tables, DataLayout layout,
             std::uint32_t compute_threads, std::uint32_t vtid,
             std::uint64_t rec_begin,
             check::PipelineChecker* checker = nullptr,
             std::uint32_t block = 0, std::uint64_t chunk = 0)
      : lane_(lane),
        slot_(slot),
        bindings_(bindings),
        tables_(tables),
        layout_(layout),
        compute_threads_(compute_threads),
        vtid_(vtid),
        rec_begin_(rec_begin),
        checker_(checker),
        block_(block),
        chunk_(chunk) {
    read_counter_.fill(0);
    write_counter_.fill(0);
  }

  template <class T>
  T read(StreamRef<T> stream, std::uint64_t elem) {
    StreamStage& stage = slot_.streams[stream.id];
    std::uint64_t k;
    if (layout_ == DataLayout::kOriginal) {
      const std::uint64_t base =
          rec_begin_ * bindings_[stream.id].elems_per_record;
      check_contract(elem >= base, "compute read below its chunk's records",
                     elem, base);
      k = elem - base;
    } else {
      k = read_counter_[stream.id]++;
    }
    if (checker_ != nullptr) {
      checker_->on_compute_read(block_, chunk_, stream.id, vtid_, k);
    }
    check_contract(k < stage.slots_per_thread, "data buffer slot overflow", k,
                   stage.slots_per_thread);
    const std::uint64_t addr = data_slot_address(
        stage, layout_, compute_threads_, vtid_, k, sizeof(T));
    return lane_.load(gpusim::DevicePtr<T>{addr});
  }

  template <class T>
  void write(StreamRef<T> stream, std::uint64_t elem, const T& value) {
    // The write contract, checked where the kernel writes; the scatter
    // stage lands the value at the same out() later.
    (void)bindings_[stream.id].out(elem);
    StreamStage& stage = slot_.streams[stream.id];
    const std::uint64_t k = write_counter_[stream.id]++;
    check_contract(k < stage.write_slots_per_thread,
                   "write buffer slot overflow", k,
                   stage.write_slots_per_thread);
    const std::uint64_t addr =
        write_slot_address(stage, compute_threads_, vtid_, k, sizeof(T));
    lane_.store(gpusim::DevicePtr<T>{addr}, 0, value);
    std::uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(T));
    stage.staged_writes.push_back(StagedWrite{elem, raw, addr});
  }

  template <class T>
  T load_addr_table(TableRef<T> table, std::uint64_t index) {
    return lane_.load(tables_.device_ptr(table), index);
  }
  template <class T>
  T load_table(TableRef<T> table, std::uint64_t index) {
    return lane_.load(tables_.device_ptr(table), index);
  }
  template <class T>
  void store_table(TableRef<T> table, std::uint64_t index, const T& value) {
    lane_.store(tables_.device_ptr(table), index, value);
  }
  template <class T>
  T atomic_add_table(TableRef<T> table, std::uint64_t index, T delta) {
    return lane_.atomic_add(tables_.device_ptr(table), index, delta);
  }
  void alu(double ops) { lane_.alu(ops); }

 private:
  gpusim::LaneCtx& lane_;
  ChunkSlot& slot_;
  const std::vector<StreamBinding>& bindings_;
  const DeviceTables& tables_;
  DataLayout layout_;
  std::uint32_t compute_threads_;
  std::uint32_t vtid_;
  std::uint64_t rec_begin_;
  check::PipelineChecker* checker_;
  std::uint32_t block_;
  std::uint64_t chunk_;
  std::array<std::uint64_t, kMaxStreams> read_counter_{};
  std::array<std::uint64_t, kMaxStreams> write_counter_{};
};

}  // namespace bigk::core
