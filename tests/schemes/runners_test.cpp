// Cross-scheme tests: the same kernel source must produce identical results
// under every execution scheme, and the schemes must order the way the
// paper's evaluation assumes (double buffering beats single buffering,
// BigKernel beats both, for a communication-heavy workload).
#include "schemes/runners.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "schemes/metrics.hpp"
#include "schemes/uvm.hpp"

namespace bigk::schemes {
namespace {

// Toy app: records of 4 uint64 elements [a, b, pad, out];
// out = a*2 + b + table_sum where the kernel also aggregates a checksum into
// a one-slot table via atomics.
struct ToyApp {
  static constexpr std::uint32_t kElemsPerRecord = 4;
  std::uint64_t records;
  std::vector<std::uint64_t> data;
  core::TableSet table_set;
  core::TableRef<std::uint64_t> checksum;

  /// False declares the stream read-only, which the kernel's writes break.
  bool writable = true;
  /// True declares element 3 the stream's output column: writes land in
  /// `column`, one element per record, and `data` stays as reset() left it.
  bool with_column = false;
  std::vector<std::uint64_t> column;
  /// The record element the kernel writes.
  std::uint32_t written_elem = 3;

  explicit ToyApp(std::uint64_t n) : records(n) {
    data.resize(records * kElemsPerRecord);
    column.resize(records);
    checksum = table_set.add<std::uint64_t>(1);
    reset();
  }

  void reset() {
    for (std::uint64_t r = 0; r < records; ++r) {
      data[r * 4] = r * 7 + 1;
      data[r * 4 + 1] = r ^ 0x55;
      data[r * 4 + 2] = 99;
      data[r * 4 + 3] = 0;
      column[r] = 0;
    }
    table_set.host_span(checksum)[0] = 0;
  }

  std::uint64_t num_records() const { return records; }
  core::TableSet& tables() { return table_set; }
  bool interleaved_records() const { return true; }

  std::vector<StreamDecl> stream_decls() {
    StreamDecl decl;
    decl.binding.host_data = reinterpret_cast<const std::byte*>(data.data());
    if (writable) {
      decl.binding.host_out = reinterpret_cast<std::byte*>(data.data());
    }
    decl.binding.num_elements = data.size();
    decl.binding.elem_size = 8;
    decl.binding.mode =
        writable ? core::AccessMode::kReadWrite : core::AccessMode::kReadOnly;
    decl.binding.elems_per_record = kElemsPerRecord;
    decl.binding.reads_per_record = 2;
    decl.binding.writes_per_record = 1;
    if (with_column) {
      decl.binding.host_out = reinterpret_cast<std::byte*>(column.data());
      decl.binding.out_column = 3;
    }
    return {decl};
  }

  struct Kernel {
    core::StreamRef<std::uint64_t> stream{0};
    core::TableRef<std::uint64_t> checksum;
    std::uint32_t written_elem = 3;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t a = ctx.read(stream, r * 4);
        const std::uint64_t b = ctx.read(stream, r * 4 + 1);
        ctx.alu(8);
        ctx.write(stream, r * 4 + written_elem, a * 2 + b);
        ctx.atomic_add_table(checksum, 0, a + b);
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, checksum, written_elem}; }
};

gpusim::SystemConfig small_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 2 << 20;  // force many chunks
  return config;
}

SchemeConfig small_scheme_config() {
  SchemeConfig sc;
  sc.gpu_blocks = 8;
  sc.gpu_threads_per_block = 128;
  sc.bigkernel.num_blocks = 8;
  sc.bigkernel.compute_threads_per_block = 64;
  return sc;
}

struct Expected {
  std::vector<std::uint64_t> out;
  std::uint64_t checksum = 0;
};

Expected expected_results(std::uint64_t records) {
  Expected expected;
  expected.out.resize(records);
  for (std::uint64_t r = 0; r < records; ++r) {
    const std::uint64_t a = r * 7 + 1;
    const std::uint64_t b = r ^ 0x55;
    expected.out[r] = a * 2 + b;
    expected.checksum += a + b;
  }
  return expected;
}

void check_app(const ToyApp& app, const Expected& expected) {
  for (std::uint64_t r = 0; r < app.records; ++r) {
    ASSERT_EQ(app.data[r * 4 + 3], expected.out[r]) << "record " << r;
    ASSERT_EQ(app.data[r * 4 + 2], 99u) << "pad clobbered at " << r;
  }
  auto& tables = const_cast<ToyApp&>(app).table_set;
  EXPECT_EQ(tables.host_span(app.checksum)[0], expected.checksum);
}

class AllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(AllSchemes, ProducesReferenceResults) {
  ToyApp app(30'000);
  const Expected expected = expected_results(app.records);
  const RunMetrics metrics =
      run_scheme(GetParam(), small_config(), app, small_scheme_config());
  EXPECT_GT(metrics.total_time, 0u);
  check_app(app, expected);
}

// A read-only stream may view memory other runs share: a kernel that writes
// one stops with the named contract error under every scheme, and no byte
// of the stream changes.
TEST_P(AllSchemes, WriteToAReadOnlyStreamIsAContractError) {
  ToyApp app(3'000);
  app.writable = false;
  const std::vector<std::uint64_t> before = app.data;
  EXPECT_THROW(
      run_scheme(GetParam(), small_config(), app, small_scheme_config()),
      core::KernelContractError);
  EXPECT_EQ(app.data, before);
}

/// The toy's output column holds every record's result and its stream's
/// bytes are as reset() left them.
void check_column(const ToyApp& app, const Expected& expected) {
  const ToyApp fresh(app.records);
  ASSERT_EQ(app.data, fresh.data);
  for (std::uint64_t r = 0; r < app.records; ++r) {
    ASSERT_EQ(app.column[r], expected.out[r]) << "record " << r;
  }
  auto& tables = const_cast<ToyApp&>(app).table_set;
  EXPECT_EQ(tables.host_span(app.checksum)[0], expected.checksum);
}

// A stream with an output column: every scheme lands record r's write at
// column[r] and writes no byte of the stream itself.
TEST_P(AllSchemes, OutputColumnTakesEachRecordsWrite) {
  ToyApp app(30'000);
  app.with_column = true;
  (void)run_scheme(GetParam(), small_config(), app, small_scheme_config());
  check_column(app, expected_results(app.records));
}

// Writing another element of the record than the declared column stops
// the run with a contract error that names the column, and no output or
// stream byte changes.
TEST_P(AllSchemes, WriteOutsideTheOutputColumnIsAContractError) {
  ToyApp app(3'000);
  app.with_column = true;
  app.written_elem = 2;
  const ToyApp fresh(app.records);
  try {
    run_scheme(GetParam(), small_config(), app, small_scheme_config());
    FAIL() << "expected core::KernelContractError";
  } catch (const core::KernelContractError& error) {
    EXPECT_NE(std::string(error.what()).find("output column (2 against 3)"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(app.data, fresh.data);
  EXPECT_EQ(app.column, fresh.column);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllSchemes,
    ::testing::Values(Scheme::kCpuSerial, Scheme::kCpuMultiThreaded,
                      Scheme::kGpuSingleBuffer, Scheme::kGpuDoubleBuffer,
                      Scheme::kBigKernel, Scheme::kHetero),
    [](const auto& info) {
      switch (info.param) {
        case Scheme::kCpuSerial: return "CpuSerial";
        case Scheme::kCpuMultiThreaded: return "CpuMt";
        case Scheme::kGpuSingleBuffer: return "GpuSingle";
        case Scheme::kGpuDoubleBuffer: return "GpuDouble";
        case Scheme::kBigKernel: return "BigKernel";
        case Scheme::kHetero: return "Hetero";
      }
      return "Unknown";
    });

TEST(SchemeOrderingTest, PaperOrderingHoldsForCommunicationBoundWorkload) {
  const gpusim::SystemConfig config = small_config();
  const SchemeConfig sc = small_scheme_config();
  ToyApp app(60'000);

  const RunMetrics serial = run_cpu_serial(config, app, sc);
  const RunMetrics mt = run_cpu_mt(config, app, sc);
  const RunMetrics single = run_gpu_single(config, app, sc);
  const RunMetrics dbl = run_gpu_double(config, app, sc);
  const RunMetrics big = run_bigkernel(config, app, sc);

  EXPECT_LT(mt.total_time, serial.total_time);
  EXPECT_LT(dbl.total_time, single.total_time);
  EXPECT_LT(big.total_time, dbl.total_time);
}

TEST(SchemeMetricsTest, SingleBufferSerializesCommAndComp) {
  // 200k records x 32 B = 6.4 MB against a 2 MB device: several chunks.
  ToyApp app(200'000);
  const RunMetrics single =
      run_gpu_single(small_config(), app, small_scheme_config());
  // Total time must be at least comm + comp apportioned: with a single
  // buffer nothing overlaps, so total >= max and close to their sum.
  EXPECT_GE(single.total_time, single.comm_busy);
  EXPECT_GE(single.total_time, single.comp_busy / 8);  // 8 SMs in parallel
  EXPECT_GT(single.comm_busy, 0u);
  EXPECT_GT(single.kernel_launches, 1u);
}

TEST(SchemeMetricsTest, BigKernelLaunchesOnceAndMovesFewerBytes) {
  ToyApp app(30'000);
  const RunMetrics single =
      run_gpu_single(small_config(), app, small_scheme_config());
  const RunMetrics big =
      run_bigkernel(small_config(), app, small_scheme_config());
  EXPECT_EQ(big.kernel_launches, 1u);
  // The kernel reads 2 of 4 elements; BigKernel's h2d bytes must be well
  // below the fetch-everything baselines'.
  EXPECT_LT(big.h2d_bytes, single.h2d_bytes * 7 / 10);
}

TEST(SchemeMetricsTest, DoubleBufferOverlapsCommunication) {
  ToyApp app(60'000);
  const RunMetrics single =
      run_gpu_single(small_config(), app, small_scheme_config());
  const RunMetrics dbl =
      run_gpu_double(small_config(), app, small_scheme_config());
  // Same bytes moved, less wall-clock: overlap, not volume.
  EXPECT_NEAR(static_cast<double>(dbl.h2d_bytes),
              static_cast<double>(single.h2d_bytes),
              static_cast<double>(single.h2d_bytes) * 0.05);
  EXPECT_LT(dbl.total_time, single.total_time);
}

// Demand paging writes through the stream's binding too.
TEST(SchemeUvmTest, OutputColumnTakesEachRecordsWrite) {
  ToyApp app(30'000);
  app.with_column = true;
  (void)run_gpu_uvm(small_config(), app, small_scheme_config());
  check_column(app, expected_results(app.records));

  app.written_elem = 2;
  EXPECT_THROW(run_gpu_uvm(small_config(), app, small_scheme_config()),
               core::KernelContractError);
}

// A column the stream cannot have is rejected before the run, naming the
// field, by the CPU and chunked runners' bindings and by the engine's.
TEST(SchemeBindingTest, ImpossibleOutputColumnsAreRejectedByName) {
  const auto expect_rejected = [](const auto& app, const char* field) {
    for (const Scheme scheme : {Scheme::kCpuSerial, Scheme::kGpuDoubleBuffer,
                                Scheme::kBigKernel}) {
      auto copy = app;
      try {
        run_scheme(scheme, small_config(), copy, small_scheme_config());
        ADD_FAILURE() << field << ": expected std::invalid_argument under "
                      << scheme_name(scheme);
      } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("out_column 3"), std::string::npos) << message;
        EXPECT_NE(message.find(field), std::string::npos) << message;
      }
    }
  };
  ToyApp read_only(100);
  read_only.with_column = true;
  read_only.writable = false;
  expect_rejected(read_only, "read-only");

  // Declared through a binding rather than the toy, so the column is the
  // only thing wrong with it.
  struct Shaped : ToyApp {
    using ToyApp::ToyApp;
    std::uint32_t elems = kElemsPerRecord;
    std::uint32_t writes = 1;
    std::vector<StreamDecl> stream_decls() {
      std::vector<StreamDecl> decls = ToyApp::stream_decls();
      decls[0].binding.elems_per_record = elems;
      decls[0].binding.writes_per_record = writes;
      return decls;
    }
  };
  Shaped narrow(100);
  narrow.with_column = true;
  narrow.elems = 3;
  expect_rejected(narrow, "elems_per_record");
  Shaped twice(100);
  twice.with_column = true;
  twice.writes = 2;
  expect_rejected(twice, "writes_per_record");
}

// A fan-out over zero host threads would run no record and report a
// finished job at 0 ps; it is rejected instead.
TEST(SchemeCpuTest, ZeroThreadFanOutIsRejected) {
  ToyApp app(1000);
  EXPECT_THROW(run_cpu(small_config(), app, 0), std::invalid_argument);
}

TEST(SchemeMetricsTest, SpeedupHelper) {
  RunMetrics slow;
  slow.total_time = sim::seconds(2);
  RunMetrics fast;
  fast.total_time = sim::seconds(1);
  EXPECT_DOUBLE_EQ(speedup(slow, fast), 2.0);
}

}  // namespace
}  // namespace bigk::schemes
