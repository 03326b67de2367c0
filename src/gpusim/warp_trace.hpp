// Warp execution tracing and the coalescing cost model.
//
// Warp lanes execute their (functional) C++ code sequentially in the
// simulator, but each lane records its global-memory accesses in program
// order. Lock-step SIMD timing is recovered afterwards: the i-th access of
// every lane is assumed to issue in the same warp instruction (exactly true
// for uniform control flow, and a faithful divergence penalty otherwise,
// because drifting lanes stop sharing 128-byte transaction segments).
//
// For each access step, the number of global-memory transactions equals the
// number of distinct aligned transaction segments the 32 lanes touch — 1 for
// a perfectly coalesced access, up to 32 for a fully scattered one.
//
// finish() prices a warp in one step-major pass over its accesses, probing a
// reusable open-addressing table keyed by segment that stores the step which
// last touched each segment. The table and the lane vectors keep their
// capacity across reset(), so once grown, tracing a warp allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/config.hpp"
#include "sim/time.hpp"

namespace bigk::gpusim {

/// Aggregate cost of one warp's instruction segment.
struct WarpCost {
  double alu_cycles = 0.0;            // lock-step cycles (max over lanes)
  std::uint64_t mem_transactions = 0;  // distinct segments touched (DRAM)
  std::uint64_t mem_bytes = 0;         // transactions * transaction size
  /// Transactions *issued* step by step (before cross-step reuse): the
  /// coalescing quality of each lock-step access.
  std::uint64_t issue_transactions = 0;
  std::uint64_t atomic_ops = 0;        // updates routed to the atomic units

  WarpCost& operator+=(const WarpCost& other) {
    alu_cycles += other.alu_cycles;
    mem_transactions += other.mem_transactions;
    mem_bytes += other.mem_bytes;
    issue_transactions += other.issue_transactions;
    atomic_ops += other.atomic_ops;
    return *this;
  }
};

/// Collects per-lane traces for one warp and merges them into a WarpCost.
class WarpTracer {
 public:
  /// Access-kind bits carried by each traced access (the cost model ignores
  /// them; the data-race checker consumes them).
  static constexpr std::uint8_t kFlagWrite = 1;
  static constexpr std::uint8_t kFlagAtomic = 2;
  /// Synthetic addresses (LaneCtx::trace_access): modelled but never
  /// materialized in the arena, so they may alias real offsets by accident.
  static constexpr std::uint8_t kFlagSynthetic = 4;

  explicit WarpTracer(std::uint32_t warp_size)
      : lanes_(warp_size),
        table_(std::size_t{1} << kInitialTableBits),
        table_shift_(64 - kInitialTableBits) {}

  /// Directs subsequent record_* calls at lane `lane` (0-based in the warp).
  void begin_lane(std::uint32_t lane) { current_ = &lanes_.at(lane); }

  /// Records one global-memory access of `size` bytes at device address
  /// `addr`. Each access also costs one issue cycle.
  void record_access(std::uint64_t addr, std::uint32_t size,
                     std::uint8_t flags = 0) {
    current_->accesses.push_back(Access{addr, size, flags});
    current_->alu_cycles += 1.0;
  }

  /// Records `cycles` of arithmetic on the current lane.
  void record_alu(double cycles) { current_->alu_cycles += cycles; }

  /// Records one atomic read-modify-write (serialized GPU-wide).
  void record_atomic() { ++atomic_ops_; }

  /// Merges the lane traces into the warp's cost under `config`'s
  /// transaction size. The tracer can be reused after calling reset().
  WarpCost finish(const GpuConfig& config);

  void reset();

  /// Visits every recorded access of every lane in program order:
  /// fn(lane, addr, size, flags). Used to forward the per-lane access
  /// streams to a WarpAccessObserver.
  template <class Fn>
  void for_each_access(Fn&& fn) const {
    for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane) {
      for (const Access& access : lanes_[lane].accesses) {
        fn(lane, access.addr, access.size, access.flags);
      }
    }
  }

 private:
  struct Access {
    std::uint64_t addr;
    std::uint32_t size;
    std::uint8_t flags = 0;
  };
  struct Lane {
    std::vector<Access> accesses;
    double alu_cycles = 0.0;
  };

  static constexpr std::uint32_t kInitialTableBits = 10;

  /// One slot of the segment table. A slot whose stamp predates the current
  /// finish() call is empty, so the table clears in O(1) per warp; the
  /// 64-bit step clock cannot wrap in practice.
  struct Slot {
    std::uint64_t segment = 0;
    std::uint64_t stamp = 0;  // clock_ value of the last step touching it
  };

  /// Returns the index of the slot of `table` (size mask + 1, indexed by the
  /// top 64 - shift bits of the hash) holding `segment`, or of the empty slot
  /// where it belongs.
  static std::size_t probe(const Slot* table, std::size_t mask,
                           std::uint32_t shift, std::uint64_t segment,
                           std::uint64_t warp_begin);
  /// Doubles the table, keeping the current warp's slots.
  void grow(std::uint64_t warp_begin);

  std::vector<Lane> lanes_;
  Lane* current_ = nullptr;
  std::uint64_t atomic_ops_ = 0;

  std::vector<Slot> table_;        // power-of-two size
  std::uint32_t table_shift_ = 0;  // 64 - log2(table_.size())
  std::uint64_t clock_ = 0;        // advanced once per lock-step step
};

/// Converts a warp cost into occupancy time on an SM's timing server: the SM
/// retires warp_parallelism() warp-instructions per cycle and owns a per-SM
/// share of global-memory bandwidth; a memory-bound segment is limited by the
/// latter, a compute-bound one by the former.
sim::DurationPs sm_request_cost(const WarpCost& cost, const GpuConfig& config);

}  // namespace bigk::gpusim
