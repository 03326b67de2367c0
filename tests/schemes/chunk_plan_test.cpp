// Unit tests for the chunked-GPU baseline planning helpers.
#include <gtest/gtest.h>

#include "schemes/runners.hpp"

namespace bigk::schemes {
namespace {

gpusim::SystemConfig config_with_mem(std::uint64_t bytes) {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = bytes;
  return config;
}

StreamDecl make_decl(std::vector<std::uint64_t>& storage,
                     std::uint32_t elems_per_record,
                     std::uint32_t overfetch = 0) {
  StreamDecl decl;
  decl.binding.host_data = reinterpret_cast<const std::byte*>(storage.data());
  decl.binding.num_elements = storage.size();
  decl.binding.elem_size = 8;
  decl.binding.elems_per_record = elems_per_record;
  decl.binding.reads_per_record = elems_per_record;
  decl.overfetch_elems = overfetch;
  return decl;
}

TEST(ChunkPlanTest, ChunksCoverAllRecordsExactly) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, config_with_mem(1 << 20));
  std::vector<std::uint64_t> data(100'000 * 4);
  std::vector<StreamDecl> decls{make_decl(data, 4)};
  const auto plan = detail::plan_chunks(runtime, decls, 100'000, 1, 80);
  EXPECT_GT(plan.num_chunks, 1u);  // 3.2 MB of records vs ~0.8 MB budget
  EXPECT_GE(plan.records_per_chunk * plan.num_chunks, 100'000u);
  EXPECT_LT(plan.records_per_chunk * (plan.num_chunks - 1), 100'000u);
}

TEST(ChunkPlanTest, DoubleBufferingHalvesChunkSize) {
  sim::Simulation sim_a;
  cusim::Runtime runtime_a(sim_a, config_with_mem(1 << 20));
  std::vector<std::uint64_t> data(100'000 * 4);
  std::vector<StreamDecl> decls{make_decl(data, 4)};
  const auto single = detail::plan_chunks(runtime_a, decls, 100'000, 1, 80);

  sim::Simulation sim_b;
  cusim::Runtime runtime_b(sim_b, config_with_mem(1 << 20));
  const auto dbl = detail::plan_chunks(runtime_b, decls, 100'000, 2, 80);
  EXPECT_NEAR(static_cast<double>(dbl.records_per_chunk),
              static_cast<double>(single.records_per_chunk) / 2.0,
              static_cast<double>(single.records_per_chunk) * 0.05);
  EXPECT_EQ(dbl.dev_base.size(), 2u);  // two buffer sets
}

TEST(ChunkPlanTest, SmallDataFitsOneChunk) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, config_with_mem(8 << 20));
  std::vector<std::uint64_t> data(1000 * 4);
  std::vector<StreamDecl> decls{make_decl(data, 4)};
  const auto plan = detail::plan_chunks(runtime, decls, 1000, 1, 80);
  EXPECT_EQ(plan.num_chunks, 1u);
  EXPECT_EQ(plan.records_per_chunk, 1000u);
}

TEST(ChunkPlanTest, CapacityIncludesOverfetch) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, config_with_mem(1 << 20));
  std::vector<std::uint64_t> data(100'000);
  std::vector<StreamDecl> decls{make_decl(data, 1, /*overfetch=*/64)};
  const auto plan = detail::plan_chunks(runtime, decls, 100'000, 1, 80);
  EXPECT_EQ(plan.capacity_elems[0], plan.records_per_chunk + 64);
}

TEST(ChunkPlanTest, ImpossibleBudgetThrows) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, config_with_mem(4 << 10));  // 4 KiB device
  std::vector<std::uint64_t> data(1024);
  std::vector<StreamDecl> decls{make_decl(data, 1, /*overfetch=*/4096)};
  EXPECT_THROW(detail::plan_chunks(runtime, decls, 1024, 1, 80),
               std::invalid_argument);
}

TEST(ChunkViewsTest, ViewsTrackChunkBoundsAndClampAtStreamEnd) {
  sim::Simulation sim;
  cusim::Runtime runtime(sim, config_with_mem(1 << 20));
  std::vector<std::uint64_t> data(10'000 * 4);
  std::vector<StreamDecl> decls{make_decl(data, 4)};
  auto bindings = detail::make_bindings(decls);
  auto plan = detail::plan_chunks(runtime, decls, 10'000, 1, 10);

  std::vector<GpuChunkCtx::ChunkView> views;
  const auto bytes0 =
      detail::chunk_views(bindings, plan, 0, 0, 10'000, &views);
  EXPECT_EQ(views[0].elem_begin, 0u);
  EXPECT_EQ(bytes0[0], views[0].elem_count * 8);

  const std::uint64_t last = plan.num_chunks - 1;
  detail::chunk_views(bindings, plan, 0, last, 10'000, &views);
  EXPECT_LE(views[0].elem_begin + views[0].elem_count, data.size());
}

TEST(MakeBindingsTest, AssignsSequentialRegions) {
  std::vector<std::uint64_t> a(16), b(16);
  std::vector<StreamDecl> decls{make_decl(a, 4), make_decl(b, 2)};
  const auto bindings = detail::make_bindings(decls);
  EXPECT_EQ(bindings[0].host_region, core::kStreamRegionBase);
  EXPECT_EQ(bindings[1].host_region, core::kStreamRegionBase + 1);
}

}  // namespace
}  // namespace bigk::schemes
