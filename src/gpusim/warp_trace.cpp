#include "gpusim/warp_trace.hpp"

#include <algorithm>
#include <bit>

namespace bigk::gpusim {

WarpCost WarpTracer::finish(const GpuConfig& config) {
  WarpCost cost;
  std::size_t max_steps = 0;
  for (const Lane& lane : lanes_) {
    cost.alu_cycles = std::max(cost.alu_cycles, lane.alu_cycles);
    max_steps = std::max(max_steps, lane.accesses.size());
  }

  // DRAM traffic: each *distinct* 128-byte segment the warp touches during
  // this execution segment costs one transaction — segments shared by lanes
  // in the same step coalesce, and segments re-touched in later steps hit
  // the warp-local cache (L1/L2 capturing the immediate spatial/temporal
  // reuse of streaming kernels).
  //
  // Issue cost: per lock-step access, lanes spread over k segments issue k
  // transactions (counted per step, before reuse) — the classic coalescing
  // penalty that serializes scattered warp accesses.
  //
  // Both fall out of one pass in step order. A segment the table has not
  // seen this warp is a new DRAM transaction and an issued one; a segment
  // last touched in an earlier step is issued again; a repeat within the
  // same step coalesces and adds nothing.
  const std::uint64_t txn = config.mem_transaction_bytes;
  const int txn_shift = std::has_single_bit(txn) ? std::countr_zero(txn) : -1;
  const auto segment_of = [txn, txn_shift](std::uint64_t addr) {
    return txn_shift >= 0 ? addr >> txn_shift : addr / txn;
  };
  // The hot state lives in locals: a store to a slot may alias `this` as far
  // as the compiler knows, so member fields would be reloaded (and the cost
  // and clock kept in memory) on every probe. grow() works on the members,
  // so the clock is written back before it and the table view reloaded
  // after.
  std::uint64_t mem = 0;
  std::uint64_t issue = 0;
  std::uint64_t now = clock_;
  Slot* table = table_.data();
  std::size_t mask = table_.size() - 1;
  std::uint32_t shift = table_shift_;
  const std::uint64_t warp_begin = now + 1;
  std::size_t table_used = 0;  // slots filled by this warp
  for (std::size_t step = 0; step < max_steps; ++step) {
    ++now;
    for (const Lane& lane : lanes_) {
      if (step >= lane.accesses.size()) continue;
      const Access& access = lane.accesses[step];
      const std::uint64_t first = segment_of(access.addr);
      const std::uint64_t last = segment_of(
          access.addr + std::max<std::uint32_t>(access.size, 1) - 1);
      for (std::uint64_t seg = first; seg <= last; ++seg) {
        Slot* slot = &table[probe(table, mask, shift, seg, warp_begin)];
        if (slot->stamp < warp_begin) {
          if (2 * (table_used + 1) > mask + 1) {
            clock_ = now;
            grow(warp_begin);
            table = table_.data();
            mask = table_.size() - 1;
            shift = table_shift_;
            slot = &table[probe(table, mask, shift, seg, warp_begin)];
          }
          *slot = Slot{seg, now};
          ++table_used;
          ++mem;
          ++issue;
        } else if (slot->stamp != now) {
          slot->stamp = now;
          ++issue;
        }
      }
    }
  }
  clock_ = now;
  cost.mem_transactions = mem;
  cost.issue_transactions = issue;
  cost.mem_bytes = mem * txn;
  cost.atomic_ops = atomic_ops_;
  return cost;
}

std::size_t WarpTracer::probe(const Slot* table, std::size_t mask,
                              std::uint32_t shift, std::uint64_t segment,
                              std::uint64_t warp_begin) {
  // Fibonacci hashing spreads the consecutive segments of coalesced
  // accesses; linear probing stops at the first slot this warp has not
  // filled.
  std::size_t index = (segment * 0x9E3779B97F4A7C15ull) >> shift;
  while (table[index].stamp >= warp_begin &&
         table[index].segment != segment) {
    index = (index + 1) & mask;
  }
  return index;
}

void WarpTracer::grow(std::uint64_t warp_begin) {
  std::vector<Slot> old(table_.size() * 2);
  old.swap(table_);
  --table_shift_;
  const std::size_t mask = table_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.stamp >= warp_begin) {
      table_[probe(table_.data(), mask, table_shift_, slot.segment,
                   warp_begin)] = slot;
    }
  }
}

void WarpTracer::reset() {
  for (Lane& lane : lanes_) {
    lane.accesses.clear();
    lane.alu_cycles = 0.0;
  }
  current_ = nullptr;
  atomic_ops_ = 0;
}

sim::DurationPs sm_request_cost(const WarpCost& cost,
                                const GpuConfig& config) {
  const double issue_cycles =
      cost.alu_cycles + static_cast<double>(cost.issue_transactions) *
                            config.txn_issue_cycles;
  const sim::DurationPs alu = sim::cycles_time(
      issue_cycles / config.warp_parallelism(), config.core_clock_ghz);
  const sim::DurationPs mem =
      sim::transfer_time(cost.mem_bytes, config.mem_gbps_per_sm());
  return std::max(alu, mem);
}

}  // namespace bigk::gpusim
