// Property sweep: the BigKernel pipeline must be functionally exact for any
// stream geometry (element width, record size, read/write counts) under
// every layout variant. A configurable gather kernel xors the first `reads`
// elements of each record and (optionally) writes the result to the last
// element; the outcome is checked against direct evaluation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "cusim/runtime.hpp"
#include "sim/simulation.hpp"

namespace bigk::core {
namespace {

struct Geometry {
  std::uint32_t elem_size;  // 1, 4, or 8
  std::uint32_t elems_per_record;
  std::uint32_t reads_per_record;
  bool writes;
  bool transfer_reduction;
  bool coalesced;
  bool patterns;
};

std::string geometry_name(const ::testing::TestParamInfo<Geometry>& info) {
  const Geometry& g = info.param;
  std::string name = "z";
  name.append(std::to_string(g.elem_size))
      .append("e")
      .append(std::to_string(g.elems_per_record))
      .append("r")
      .append(std::to_string(g.reads_per_record))
      .append(g.writes ? "w" : "")
      .append(g.transfer_reduction ? "T" : "")
      .append(g.coalesced ? "C" : "")
      .append(g.patterns ? "P" : "");
  return name;
}

template <class T>
struct GeoKernel {
  StreamRef<T> stream;
  std::uint32_t elems_per_record;
  std::uint32_t reads_per_record;
  bool writes;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t base = r * elems_per_record;
      T acc{};
      for (std::uint32_t i = 0; i < reads_per_record; ++i) {
        acc = static_cast<T>(acc ^ ctx.read(stream, base + i));
      }
      ctx.alu(reads_per_record * 2.0);
      if (writes) {
        ctx.write(stream, base + elems_per_record - 1, acc);
      }
    }
  }
};

template <class T>
void run_geometry(const Geometry& geometry) {
  constexpr std::uint64_t kRecords = 6'000;
  sim::Simulation sim;
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 4 << 20;
  cusim::Runtime runtime(sim, config);

  std::vector<T> host(kRecords * geometry.elems_per_record);
  std::uint64_t seed = 12345;
  for (T& value : host) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    value = static_cast<T>(seed >> 32);
  }
  const std::vector<T> original = host;

  Options options;
  options.num_blocks = 4;
  options.compute_threads_per_block = 64;
  options.buffer_depth = 2;
  options.transfer_reduction = geometry.transfer_reduction;
  options.coalesced_layout = geometry.coalesced;
  options.pattern_recognition = geometry.patterns;

  Engine engine(runtime, options);
  auto stream = engine.streaming_map<T>(
      std::span(host),
      geometry.writes ? AccessMode::kReadWrite : AccessMode::kReadOnly,
      geometry.elems_per_record, geometry.reads_per_record,
      geometry.writes ? 1 : 0);
  GeoKernel<T> kernel{stream, geometry.elems_per_record,
                      geometry.reads_per_record, geometry.writes};
  TableSet tables;

  sim.run_until_complete(
      [](cusim::Runtime& rt, Engine& eng, TableSet& tbl,
         GeoKernel<T> k) -> sim::Task<> {
        DeviceTables device = co_await DeviceTables::upload(rt, tbl);
        co_await eng.launch(k, kRecords, device);
      }(runtime, engine, tables, kernel));

  for (std::uint64_t r = 0; r < kRecords; ++r) {
    const std::uint64_t base = r * geometry.elems_per_record;
    T expected{};
    for (std::uint32_t i = 0; i < geometry.reads_per_record; ++i) {
      expected = static_cast<T>(expected ^ original[base + i]);
    }
    if (geometry.writes) {
      ASSERT_EQ(host[base + geometry.elems_per_record - 1], expected)
          << "record " << r;
    }
    // Non-written elements must be untouched.
    for (std::uint32_t i = 0;
         i + (geometry.writes ? 1 : 0) < geometry.elems_per_record; ++i) {
      ASSERT_EQ(host[base + i], original[base + i])
          << "record " << r << " elem " << i << " clobbered";
    }
  }
  EXPECT_GT(engine.metrics().chunks, 0u);
}

class GeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(GeometrySweep, PipelineIsExact) {
  const Geometry& geometry = GetParam();
  switch (geometry.elem_size) {
    case 1: run_geometry<std::uint8_t>(geometry); break;
    case 4: run_geometry<std::uint32_t>(geometry); break;
    case 8: run_geometry<std::uint64_t>(geometry); break;
    default: FAIL() << "unsupported element size";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(
        // Byte streams (Word Count / MasterCard shapes).
        Geometry{1, 1, 1, false, true, true, true},
        Geometry{1, 64, 64, false, true, true, true},
        Geometry{1, 64, 64, false, false, false, true},
        Geometry{1, 16, 8, false, true, false, true},
        // 4-byte element streams.
        Geometry{4, 4, 2, true, true, true, true},
        Geometry{4, 4, 2, true, true, true, false},
        Geometry{4, 10, 3, false, true, true, true},
        // 8-byte element streams (K-means / Netflix / DNA shapes).
        Geometry{8, 8, 4, true, true, true, true},
        Geometry{8, 8, 4, true, false, false, true},
        Geometry{8, 8, 4, true, true, false, true},
        Geometry{8, 11, 4, false, true, true, true},
        Geometry{8, 32, 23, false, true, true, true},
        Geometry{8, 1, 1, true, true, true, true},
        Geometry{8, 2, 2, true, true, true, false}),
    geometry_name);

}  // namespace
}  // namespace bigk::core
