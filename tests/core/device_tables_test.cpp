// Tests for TableSet and its device materialization.
#include "core/device_tables.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/stream.hpp"
#include "cusim/runtime.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

gpusim::SystemConfig small_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 1 << 20;
  return config;
}

TEST(TableSetTest, TypedSpansRoundTrip) {
  TableSet tables;
  auto ints = tables.add<std::uint32_t>(10);
  auto doubles = tables.add<double>(4);
  tables.host_span(ints)[3] = 99;
  tables.host_span(doubles)[0] = 2.5;
  EXPECT_EQ(tables.host_span(ints)[3], 99u);
  EXPECT_DOUBLE_EQ(tables.host_span(doubles)[0], 2.5);
  EXPECT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables.total_bytes(), 10 * 4 + 4 * 8u);
}

TEST(TableSetTest, TypeMismatchThrows) {
  TableSet tables;
  auto ints = tables.add<std::uint32_t>(10);
  TableRef<double> wrong{ints.id};
  EXPECT_THROW(tables.host_span(wrong), std::logic_error);
}

TEST(TableSetTest, ZeroInitialized) {
  TableSet tables;
  auto t = tables.add<std::uint64_t>(100);
  for (std::uint64_t v : tables.host_span(t)) EXPECT_EQ(v, 0u);
}

TEST(DeviceTablesTest, UploadCopiesContentAndChargesPcie) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, small_config());
  TableSet tables;
  auto t = tables.add<std::uint32_t>(256);
  auto span = tables.host_span(t);
  std::iota(span.begin(), span.end(), 1u);

  sim.run_until_complete([](cusim::Runtime& rt, TableSet& tbl,
                            TableRef<std::uint32_t> ref) -> sim::Task<> {
    DeviceTables device = co_await DeviceTables::upload(rt, tbl);
    auto ptr = device.device_ptr(ref);
    EXPECT_EQ(rt.gpu().memory().read(ptr, 0), 1u);
    EXPECT_EQ(rt.gpu().memory().read(ptr, 255), 256u);
    device.release();
  }(runtime, tables, t));
  EXPECT_EQ(runtime.gpu().stats().h2d_bytes, 1024u);
  EXPECT_GT(sim.now(), 0u);
}

TEST(DeviceTablesTest, DownloadBringsResultsBack) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, small_config());
  TableSet tables;
  auto t = tables.add<std::uint32_t>(16);
  sim.run_until_complete([](cusim::Runtime& rt, TableSet& tbl,
                            TableRef<std::uint32_t> ref) -> sim::Task<> {
    DeviceTables device = co_await DeviceTables::upload(rt, tbl);
    rt.gpu().memory().write(device.device_ptr(ref), 7, 1234u);
    co_await device.download();
    EXPECT_EQ(tbl.host_span(ref)[7], 1234u);
    device.release();
  }(runtime, tables, t));
  EXPECT_EQ(runtime.gpu().stats().d2h_bytes, 64u);
}

TEST(DeviceTablesTest, ReleaseFreesDeviceMemory) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, small_config());
  TableSet tables;
  (void)tables.add<std::uint64_t>(1000);
  const std::uint64_t before = runtime.gpu().memory().used();
  sim.run_until_complete([](cusim::Runtime& rt, TableSet& tbl,
                            std::uint64_t baseline) -> sim::Task<> {
    DeviceTables device = co_await DeviceTables::upload(rt, tbl);
    EXPECT_GT(rt.gpu().memory().used(), baseline);
    device.release();
    EXPECT_EQ(rt.gpu().memory().used(), baseline);
    device.release();  // idempotent
  }(runtime, tables, before));
}

TEST(DeviceTablesTest, EmptySetUploadsNothing) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, small_config());
  TableSet tables;
  const std::uint64_t before = runtime.gpu().memory().used();
  sim.run_until_complete([](cusim::Runtime& rt, TableSet& tbl) -> sim::Task<> {
    co_await DeviceTables::upload(rt, tbl);
  }(runtime, tables));
  EXPECT_EQ(runtime.gpu().memory().used(), before);
  EXPECT_EQ(runtime.gpu().stats().h2d_bytes, 0u);
}

}  // namespace
}  // namespace bigk::core
