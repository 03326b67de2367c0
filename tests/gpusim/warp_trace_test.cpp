// Tests for the coalescing model: the heart of BigKernel's third claimed
// benefit (assembled data enables coalesced GPU accesses).
#include "gpusim/warp_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "gpusim/config.hpp"

namespace bigk::gpusim {
namespace {

GpuConfig test_config() {
  GpuConfig config;
  config.mem_transaction_bytes = 128;
  return config;
}

TEST(WarpTraceTest, PerfectlyCoalescedAccessIsOneTransaction) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);  // 32 lanes x 4B = one 128B segment
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 1u);
  EXPECT_EQ(cost.mem_bytes, 128u);
}

TEST(WarpTraceTest, StridedAccessSerializesIntoManyTransactions) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(std::uint64_t{lane} * 512, 4);  // 512B stride
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 32u);  // fully scattered
}

TEST(WarpTraceTest, EightByteElementsCoalesceIntoTwoTransactions) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 8, 8);  // 256B footprint
  }
  EXPECT_EQ(tracer.finish(config).mem_transactions, 2u);
}

TEST(WarpTraceTest, MultipleStepsAccumulate) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);        // step 0: coalesced
    tracer.record_access(lane * 4 + 4096, 4);  // step 1: coalesced
  }
  EXPECT_EQ(tracer.finish(config).mem_transactions, 2u);
}

TEST(WarpTraceTest, AccessSpanningSegmentsCountsEach) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_access(120, 16);  // crosses a 128B boundary
  EXPECT_EQ(tracer.finish(config).mem_transactions, 2u);
}

TEST(WarpTraceTest, AluCyclesAreLockStepMaxOverLanes) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_alu(lane == 7 ? 100.0 : 10.0);
  }
  EXPECT_DOUBLE_EQ(tracer.finish(config).alu_cycles, 100.0);
}

TEST(WarpTraceTest, EachAccessCostsOneIssueCycle) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_access(0, 4);
  tracer.record_access(128, 4);
  EXPECT_DOUBLE_EQ(tracer.finish(config).alu_cycles, 2.0);
}

TEST(WarpTraceTest, DivergedLaneCountsAreHandled) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  // Lane 0 makes 3 accesses, others only 1: steps 1-2 have a single active
  // lane each.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);
  }
  tracer.begin_lane(0);
  tracer.record_access(4096, 4);
  tracer.record_access(8192, 4);
  EXPECT_EQ(tracer.finish(config).mem_transactions, 3u);
}

TEST(WarpTraceTest, ResetClearsState) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_access(0, 4);
  tracer.reset();
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 0u);
  EXPECT_DOUBLE_EQ(cost.alu_cycles, 0.0);
}

TEST(WarpTraceTest, SmRequestCostIsMaxOfAluAndMemory) {
  GpuConfig config = test_config();
  config.core_clock_ghz = 1.0;
  config.num_sms = 8;
  config.global_mem_gbps = 192.0;  // 24 GB/s per SM
  config.lanes_per_sm = 192;       // warp parallelism 6

  // Memory-bound: 1000 transactions x 128B = 128000 B at 24 GB/s = 5333 ns;
  // ALU is negligible by comparison.
  WarpCost mem_bound{600.0, 1000, 128'000};
  EXPECT_EQ(sm_request_cost(mem_bound, config),
            sim::transfer_time(128'000, 24.0));

  // Compute-bound: trivial memory, heavy ALU. Issue rate is the SM's warp
  // parallelism derated by issue_efficiency.
  WarpCost alu_bound{60'000.0, 1, 128};
  EXPECT_EQ(sm_request_cost(alu_bound, config),
            sim::cycles_time(60'000.0 / config.warp_parallelism(), 1.0));
}

// Property: the coalesced layout BigKernel produces (thread i's k-th element
// at [k * num_threads + i]) touches only ~bytes-accessed worth of segments,
// while a record-strided layout touches one full transaction segment per
// lane once records exceed the transaction size.
TEST(WarpTraceProperty, InterleavedLayoutBeatsRecordStridedLayout) {
  const GpuConfig config = test_config();
  for (std::uint32_t record_size = 128; record_size <= 1024;
       record_size *= 2) {
    WarpTracer interleaved(32);
    WarpTracer strided(32);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      interleaved.begin_lane(lane);
      strided.begin_lane(lane);
      for (std::uint32_t k = 0; k < 4; ++k) {
        interleaved.record_access((k * 32 + lane) * 8, 8);
        strided.record_access(std::uint64_t{lane} * record_size + k * 8, 8);
      }
    }
    const auto a = interleaved.finish(config).mem_transactions;
    const auto b = strided.finish(config).mem_transactions;
    // Interleaved: 4 steps x 32 lanes x 8B = 1 KB packed into 8 segments.
    EXPECT_EQ(a, 8u);
    // Strided: each lane's 4 x 8B sit inside its own record's segment.
    EXPECT_EQ(b, 32u) << "record_size=" << record_size;
    EXPECT_LT(a, b);
  }
}


TEST(WarpTraceTest, IssueTransactionsCountPerStepBeforeReuse) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  // Two steps touching the same coalesced segment: 1 DRAM transaction but
  // 2 issued transactions.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);
    tracer.record_access(lane * 4, 4);
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 1u);
  EXPECT_EQ(cost.issue_transactions, 2u);
}

TEST(WarpTraceTest, ScatteredStepIssuesOneTransactionPerLane) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(std::uint64_t{lane} * 4096, 1);
  }
  EXPECT_EQ(tracer.finish(config).issue_transactions, 32u);
}

TEST(WarpTraceTest, SequentialPerLaneScanReusesSegmentsButIssuesPerStep) {
  // Each lane scans its own 128B region byte by byte: DRAM bytes stay at one
  // segment per lane, but every step issues 32 transactions -- the
  // non-coalesced byte-scan penalty BigKernel's interleaved layout removes.
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    for (std::uint32_t i = 0; i < 128; ++i) {
      tracer.record_access(std::uint64_t{lane} * 128 + i, 1);
    }
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 32u);          // one segment per lane
  EXPECT_EQ(cost.issue_transactions, 32u * 128);  // but issued every step
}

TEST(WarpTraceTest, AtomicOpsAreCounted) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_atomic();
  tracer.record_atomic();
  EXPECT_EQ(tracer.finish(config).atomic_ops, 2u);
  tracer.reset();
  EXPECT_EQ(tracer.finish(config).atomic_ops, 0u);
}

TEST(WarpTraceTest, IssueCostRaisesSmRequestTime) {
  GpuConfig config = test_config();
  config.txn_issue_cycles = 8.0;
  WarpCost coalesced{100.0, 10, 1280, 10, 0};
  WarpCost scattered{100.0, 10, 1280, 320, 0};
  EXPECT_LT(sm_request_cost(coalesced, config),
            sm_request_cost(scattered, config));
}

// --- differential test against the sort-based merge -----------------------

// One warp's traces, kept outside the tracer so the reference can merge them.
struct TracedLane {
  struct Access {
    std::uint64_t addr;
    std::uint32_t size;
  };
  std::vector<Access> accesses;
  double extra_alu = 0.0;  // record_alu() on top of one cycle per access
};

// The reference merge: collect each lock-step step's segments, sort and
// dedupe them for the issued count, then sort and dedupe the union of all
// steps for the DRAM count. Slow but obviously right.
WarpCost reference_cost(const std::vector<TracedLane>& lanes,
                        std::uint64_t atomic_ops, const GpuConfig& config) {
  WarpCost cost;
  for (const TracedLane& lane : lanes) {
    cost.alu_cycles =
        std::max(cost.alu_cycles,
                 static_cast<double>(lane.accesses.size()) + lane.extra_alu);
  }
  const std::uint64_t txn = config.mem_transaction_bytes;
  std::size_t max_steps = 0;
  for (const TracedLane& lane : lanes) {
    max_steps = std::max(max_steps, lane.accesses.size());
  }
  std::vector<std::uint64_t> segments;
  std::vector<std::uint64_t> step_segments;
  for (std::size_t step = 0; step < max_steps; ++step) {
    step_segments.clear();
    for (const TracedLane& lane : lanes) {
      if (step >= lane.accesses.size()) continue;
      const TracedLane::Access& access = lane.accesses[step];
      const std::uint64_t first = access.addr / txn;
      const std::uint64_t last =
          (access.addr + std::max<std::uint32_t>(access.size, 1) - 1) / txn;
      for (std::uint64_t seg = first; seg <= last; ++seg) {
        step_segments.push_back(seg);
      }
    }
    std::sort(step_segments.begin(), step_segments.end());
    step_segments.erase(
        std::unique(step_segments.begin(), step_segments.end()),
        step_segments.end());
    cost.issue_transactions += step_segments.size();
    segments.insert(segments.end(), step_segments.begin(),
                    step_segments.end());
  }
  std::sort(segments.begin(), segments.end());
  segments.erase(std::unique(segments.begin(), segments.end()),
                 segments.end());
  cost.mem_transactions = segments.size();
  cost.mem_bytes = cost.mem_transactions * txn;
  cost.atomic_ops = atomic_ops;
  return cost;
}

// Draws a warp mixing the shapes the engine produces: coalesced runs,
// per-lane scans, scattered gathers, and hot addresses that repeat within
// and across steps. Lane counts below the warp size make partial warps,
// unequal lengths make divergence, and sizes run from 0 to three segments.
std::vector<TracedLane> random_warp(std::mt19937_64& rng,
                                    std::uint32_t warp_size,
                                    std::uint64_t txn) {
  std::uniform_int_distribution<std::uint32_t> lanes_dist(1, warp_size);
  const std::uint32_t lanes =
      rng() % 4 == 0 ? lanes_dist(rng) : warp_size;  // a quarter partial
  const std::uint32_t max_steps = rng() % 8 == 0 ? 200 : 12;
  const std::uint32_t pattern = rng() % 4;
  const std::uint64_t base = (rng() % 1024) * 4096;
  const std::vector<std::uint64_t> hot = {base, base + 2 * txn - 2,
                                          base + 5 * txn, base + 1};
  std::vector<TracedLane> warp(lanes);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    const std::uint32_t steps =
        rng() % 3 == 0 ? static_cast<std::uint32_t>(rng() % (max_steps + 1))
                       : max_steps;
    for (std::uint32_t step = 0; step < steps; ++step) {
      std::uint64_t addr = 0;
      switch (pattern) {
        case 0:  // coalesced: lane-interleaved elements
          addr = base + (std::uint64_t{step} * lanes + lane) * 4;
          break;
        case 1:  // each lane scans its own record
          addr = base + std::uint64_t{lane} * 300 + step * 7;
          break;
        case 2:  // scattered gather
          addr = rng() % (std::uint64_t{1} << 40);
          break;
        default:  // hot addresses repeat within and across steps
          addr = hot[rng() % hot.size()] + rng() % 3;
          break;
      }
      const std::uint32_t size =
          rng() % 10 == 0
              ? 0
              : static_cast<std::uint32_t>(rng() % (3 * txn + 1));
      warp[lane].accesses.push_back({addr, size});
    }
    warp[lane].extra_alu = static_cast<double>(rng() % 50) * 0.25;
  }
  return warp;
}

// One tracer prices thousands of seeded warps under four transaction sizes
// through reset(), so its segment table is reused, grown by the 200-step
// scattered warps, and read with stale slots from earlier warps in place.
// Its step clock is 64 bits wide and never wraps, so there is no wrap path
// to cover.
TEST(WarpTraceProperty, SinglePassMatchesSortedMergeFieldForField) {
  WarpTracer tracer(32);
  for (const std::uint32_t txn : {128u, 96u, 32u, 1u}) {
    GpuConfig config = test_config();
    config.mem_transaction_bytes = txn;
    std::mt19937_64 rng(txn);
    for (int warp_index = 0; warp_index < 1500; ++warp_index) {
      const std::vector<TracedLane> warp = random_warp(rng, 32, txn);
      const std::uint64_t atomics = rng() % 3;
      tracer.reset();
      for (std::uint32_t lane = 0; lane < warp.size(); ++lane) {
        tracer.begin_lane(lane);
        for (const TracedLane::Access& access : warp[lane].accesses) {
          tracer.record_access(access.addr, access.size);
        }
        tracer.record_alu(warp[lane].extra_alu);
      }
      for (std::uint64_t a = 0; a < atomics; ++a) tracer.record_atomic();
      const WarpCost expected = reference_cost(warp, atomics, config);
      const WarpCost actual = tracer.finish(config);
      SCOPED_TRACE(testing::Message() << "txn=" << txn
                                      << " warp=" << warp_index);
      ASSERT_EQ(actual.alu_cycles, expected.alu_cycles);
      ASSERT_EQ(actual.mem_transactions, expected.mem_transactions);
      ASSERT_EQ(actual.mem_bytes, expected.mem_bytes);
      ASSERT_EQ(actual.issue_transactions, expected.issue_transactions);
      ASSERT_EQ(actual.atomic_ops, expected.atomic_ops);
    }
  }
}

}  // namespace
}  // namespace bigk::gpusim
