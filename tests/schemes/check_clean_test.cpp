// Acceptance guard for the bigkcheck layer: every execution scheme must run
// a real (atomics + read-modify-write) workload with zero violations under
// full checking, and the runners must surface the count in RunMetrics.
#include "schemes/runners.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "check/options.hpp"
#include "check/sanitizer.hpp"
#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "cusim/device_pool.hpp"
#include "schemes/metrics.hpp"
#include "schemes/uvm.hpp"
#include "sim/simulation.hpp"

namespace bigk::schemes {
namespace {

// Same shape as runners_test's toy: records of 4 uint64 [a, b, pad, out];
// out = a * 2 + b, plus an atomic checksum table.
struct ToyApp {
  static constexpr std::uint32_t kElemsPerRecord = 4;
  std::uint64_t records;
  std::vector<std::uint64_t> data;
  core::TableSet table_set;
  core::TableRef<std::uint64_t> checksum;

  explicit ToyApp(std::uint64_t n) : records(n) {
    data.resize(records * kElemsPerRecord);
    checksum = table_set.add<std::uint64_t>(1);
    reset();
  }

  void reset() {
    for (std::uint64_t r = 0; r < records; ++r) {
      data[r * 4] = r * 7 + 1;
      data[r * 4 + 1] = r ^ 0x55;
      data[r * 4 + 2] = 99;
      data[r * 4 + 3] = 0;
    }
    table_set.host_span(checksum)[0] = 0;
  }

  std::uint64_t num_records() const { return records; }
  core::TableSet& tables() { return table_set; }
  bool interleaved_records() const { return true; }

  std::vector<StreamDecl> stream_decls() {
    StreamDecl decl;
    decl.binding.host_data = reinterpret_cast<const std::byte*>(data.data());
    decl.binding.host_out = reinterpret_cast<std::byte*>(data.data());
    decl.binding.num_elements = data.size();
    decl.binding.elem_size = 8;
    decl.binding.mode = core::AccessMode::kReadWrite;
    decl.binding.elems_per_record = kElemsPerRecord;
    decl.binding.reads_per_record = 2;
    decl.binding.writes_per_record = 1;
    return {decl};
  }

  struct Kernel {
    core::StreamRef<std::uint64_t> stream{0};
    core::TableRef<std::uint64_t> checksum;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t a = ctx.read(stream, r * 4);
        const std::uint64_t b = ctx.read(stream, r * 4 + 1);
        ctx.alu(8);
        ctx.write(stream, r * 4 + 3, a * 2 + b);
        ctx.atomic_add_table(checksum, 0, a + b);
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, checksum}; }
};

gpusim::SystemConfig small_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 2 << 20;
  return config;
}

SchemeConfig checked_scheme_config() {
  SchemeConfig sc;
  sc.gpu_blocks = 8;
  sc.gpu_threads_per_block = 128;
  sc.bigkernel.num_blocks = 8;
  sc.bigkernel.compute_threads_per_block = 64;
  sc.check = check::CheckOptions::all_enabled();
  return sc;
}

void expect_results(const ToyApp& app) {
  for (std::uint64_t r = 0; r < app.records; ++r) {
    const std::uint64_t a = r * 7 + 1;
    const std::uint64_t b = r ^ 0x55;
    ASSERT_EQ(app.data[r * 4 + 3], a * 2 + b) << "record " << r;
  }
}

class CheckedSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(CheckedSchemes, RunsCleanUnderAllCheckers) {
  ToyApp app(30'000);
  const RunMetrics metrics =
      run_scheme(GetParam(), small_config(), app, checked_scheme_config());
  EXPECT_EQ(metrics.check_violations, 0u);
  expect_results(app);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CheckedSchemes,
    ::testing::Values(Scheme::kGpuSingleBuffer, Scheme::kGpuDoubleBuffer,
                      Scheme::kBigKernel),
    [](const auto& info) {
      switch (info.param) {
        case Scheme::kGpuSingleBuffer: return "GpuSingle";
        case Scheme::kGpuDoubleBuffer: return "GpuDouble";
        case Scheme::kBigKernel: return "BigKernel";
        default: return "Unknown";
      }
    });

TEST(CheckedSchemesTest, ConcurrentEnginesOnDevicePoolRunClean) {
  // Two engines running simultaneously against distinct devices of one
  // pool, each under its own fully enabled sanitizer: the per-engine state
  // separation must hold up (no cross-device false positives), and both
  // workloads must still compute correct results.
  sim::Simulation sim;
  cusim::DevicePool pool(sim, small_config(), 2);

  std::vector<ToyApp> apps;
  apps.emplace_back(12'000);
  apps.emplace_back(9'000);
  std::vector<std::unique_ptr<check::Sanitizer>> sanitizers;
  for (std::uint32_t d = 0; d < 2; ++d) {
    sanitizers.push_back(std::make_unique<check::Sanitizer>(
        check::CheckOptions::all_enabled(), nullptr));
    sanitizers[d]->install(pool.device(d).gpu());
  }

  const auto run_one = [](cusim::Runtime& runtime, ToyApp& app,
                          check::Sanitizer& sanitizer) -> sim::Task<> {
    core::Options options;
    options.num_blocks = 4;
    options.compute_threads_per_block = 64;
    core::Engine engine(runtime, options);
    engine.set_sanitizer(&sanitizer);
    for (const StreamDecl& decl : app.stream_decls()) {
      engine.map_stream(decl.binding, decl.overfetch_elems);
    }
    core::DeviceTables tables =
        co_await core::DeviceTables::upload(runtime, app.tables());
    co_await engine.launch(app.kernel(), app.num_records(), tables);
    co_await tables.download();
    tables.release();
  };
  sim::Process first =
      sim.spawn(run_one(pool.device(0), apps[0], *sanitizers[0]));
  sim::Process second =
      sim.spawn(run_one(pool.device(1), apps[1], *sanitizers[1]));
  sim.run_until_complete([](sim::Process& a, sim::Process& b) -> sim::Task<> {
    co_await a.join();
    co_await b.join();
  }(first, second));

  for (std::uint32_t d = 0; d < 2; ++d) {
    sanitizers[d]->uninstall();
    sanitizers[d]->finalize();  // throws on any violation
    EXPECT_EQ(sanitizers[d]->reporter().total(), 0u);
  }
  for (const ToyApp& app : apps) expect_results(app);
}

TEST(CheckedSchemesTest, UvmRunsCleanUnderAllCheckers) {
  // UVM traces accesses at synthetic addresses (kFlagSynthetic): the race
  // detector must not fire on them, and its table atomics are exempt.
  ToyApp app(30'000);
  const RunMetrics metrics =
      run_gpu_uvm(small_config(), app, checked_scheme_config());
  EXPECT_EQ(metrics.check_violations, 0u);
  expect_results(app);
}

}  // namespace
}  // namespace bigk::schemes
