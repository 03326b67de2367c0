// bigkcheck demo: seeds one instance of every bug class the checkers
// diagnose — against a raw device arena (memcheck), a data-racing kernel
// (racecheck), and a BigKernel engine run with its staging protocol
// deliberately broken (pipecheck) — then prints the collected diagnostics.
//
//   ./check_demo [--report-out=<file>]
//
// With --report-out the full violation list is written as JSONL (one JSON
// object per line), the machine-readable schema scripts/check_report.py
// locks down in CI. The demo self-validates: it exits non-zero if any
// expected violation kind was not diagnosed.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "check/options.hpp"
#include "check/sanitizer.hpp"
#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "cusim/runtime.hpp"
#include "fault/fault.hpp"
#include "gpusim/gpu.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace bigk;

struct ScaleKernel {
  core::StreamRef<std::uint64_t> data;
  core::TableRef<std::uint64_t> bias;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t a = ctx.read(data, r * 4);
      const std::uint64_t b = ctx.read(data, r * 4 + 1);
      const std::uint64_t bias_value = ctx.load_table(bias, 0);
      ctx.alu(5);
      ctx.write(data, r * 4 + 3, a + b + bias_value);
    }
  }
};

gpusim::SystemConfig small_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 8 << 20;
  return config;
}

/// Part 1: device-memory bugs against a raw arena.
void seed_memcheck_violations(check::Sanitizer& sanitizer) {
  sim::Simulation sim;
  gpusim::Gpu gpu(sim, small_config());
  sanitizer.install(gpu);
  gpusim::DeviceMemory& memory = gpu.memory();

  auto tile = memory.allocate<std::uint32_t>(3);  // 12 bytes in a 256B block
  for (std::uint64_t i = 0; i < 3; ++i) memory.write(tile, i, 7u);
  (void)memory.read(tile, 3);  // out_of_bounds: into the alignment padding

  auto buffer = memory.allocate<std::uint64_t>(8);
  (void)memory.read(buffer, 0);  // uninitialized_read: never written
  gpusim::DevicePtr<std::uint32_t> skewed{buffer.byte_offset + 2};
  (void)memory.read(skewed, 0);  // misaligned_access: offset % 4 != 0
  memory.free(buffer);
  (void)memory.read(buffer, 0);  // use_after_free

  try {
    memory.free(buffer);  // double_free
  } catch (const gpusim::DoubleFree&) {
  }
  try {
    memory.free_offset(tile.byte_offset + 4);  // invalid_free: interior
  } catch (const gpusim::InvalidFree&) {
  }
  sanitizer.uninstall();
}

/// Part 2: a cross-warp write-write race inside one kernel launch.
void seed_racecheck_violation(check::Sanitizer& sanitizer) {
  sim::Simulation sim;
  gpusim::Gpu gpu(sim, small_config());
  sanitizer.install(gpu);
  auto cell = gpu.memory().allocate<std::uint64_t>(1);
  gpusim::KernelLaunch launch;
  launch.num_blocks = 1;
  launch.threads_per_block = 64;  // two warps
  sim.run_until_complete(gpu.run_simple_kernel(
      launch, [&](gpusim::LaneCtx& lane, std::uint32_t tid) {
        // Lane 0 of each warp stores to the same cell with no barrier.
        if (tid % 32 == 0) lane.store(cell, 0, std::uint64_t{tid});
      }));
  sanitizer.uninstall();
}

/// Part 3: a full engine run with the staging protocol deliberately broken
/// by `seeded_bug`, an always-on protocol-bug fault spec.
void seed_pipecheck_violations(check::Sanitizer& sanitizer,
                               const char* seeded_bug) {
  constexpr std::uint64_t kRecords = 20'000;
  std::vector<std::uint64_t> host(kRecords * 4);
  for (std::uint64_t r = 0; r < kRecords; ++r) {
    host[r * 4] = r * 3;
    host[r * 4 + 1] = r ^ 5;
    host[r * 4 + 2] = 0xDEAD;
    host[r * 4 + 3] = 0;
  }

  sim::Simulation sim;
  fault::FaultPlane plane;
  plane.add_all(fault::FaultSpec::parse(seeded_bug));
  cusim::Runtime runtime(sim, small_config());
  runtime.set_fault_plane(&plane);
  sanitizer.install(runtime.gpu());
  core::Options options;
  options.num_blocks = 4;
  options.compute_threads_per_block = 64;
  options.data_buf_bytes = 16 << 10;
  core::Engine engine(runtime, options);
  engine.set_sanitizer(&sanitizer);  // collect; do not throw at launch end
  auto stream = engine.streaming_map<std::uint64_t>(
      std::span(host), core::AccessMode::kReadWrite, 4, 2, 1);
  core::TableSet tables;
  auto bias = tables.add<std::uint64_t>(1);
  tables.host_span(bias)[0] = 7;
  ScaleKernel kernel{stream, bias};
  sim.run_until_complete(
      [](cusim::Runtime& rt, core::Engine& eng, core::TableSet& tbl,
         ScaleKernel k, std::uint64_t records) -> sim::Task<> {
        core::DeviceTables device = co_await core::DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, records, device);
        device.release();
      }(runtime, engine, tables, kernel, kRecords));
  sanitizer.uninstall();
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--report-out=", 0) == 0) report_path = arg.substr(13);
  }

  check::CheckOptions options = check::CheckOptions::all_enabled();
  // The faulty engine runs report one flag_before_data per affected chunk;
  // keep every diagnostic so the later slot_overrun run is still recorded.
  options.max_recorded = 4096;
  check::Sanitizer sanitizer(options);

  std::printf("bigkcheck demo: seeding device-memory bugs...\n");
  seed_memcheck_violations(sanitizer);
  std::printf("bigkcheck demo: seeding a cross-warp data race...\n");
  seed_racecheck_violation(sanitizer);
  std::printf(
      "bigkcheck demo: running the engine with the data_ready wait "
      "skipped...\n");
  seed_pipecheck_violations(sanitizer, "skip_data_ready_wait");
  std::printf(
      "bigkcheck demo: running the engine with the ring slot released "
      "early...\n");
  seed_pipecheck_violations(sanitizer, "early_ring_release");

  const check::Reporter& reporter = sanitizer.reporter();
  std::printf("\n%s\n", reporter.summary(12).c_str());

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    reporter.write_jsonl(out);
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write report to %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("report: %s (%zu diagnostics, %llu total violations)\n",
                report_path.c_str(), reporter.recorded().size(),
                static_cast<unsigned long long>(reporter.total()));
  }

  // Self-validation: every seeded bug class must have been diagnosed.
  std::set<std::string> kinds;
  for (const check::Violation& violation : reporter.recorded()) {
    kinds.insert(violation.kind);
  }
  const char* expected[] = {
      "out_of_bounds",   "uninitialized_read", "misaligned_access",
      "use_after_free",  "double_free",        "invalid_free",
      "write_write_race", "flag_before_data",  "slot_overrun",
  };
  bool ok = true;
  for (const char* kind : expected) {
    if (kinds.count(kind) == 0) {
      std::fprintf(stderr, "check_demo: expected a %s diagnosis, got none\n",
                   kind);
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("check_demo: OK: all %zu seeded bug classes diagnosed\n",
              std::size(expected));
  return 0;
}
