// Cross-scheme validation of all benchmark applications: every scheme must
// produce bit-identical results to the serial CPU reference, for every app.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/registry.hpp"
#include "apps/wordcount.hpp"
#include "dur/integrity.hpp"
#include "fault/fault.hpp"
#include "obs/stage.hpp"
#include "schemes/runners.hpp"

namespace bigk::apps {
namespace {

gpusim::SystemConfig tiny_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 3 << 20;  // data (4-6 MB) exceeds memory
  return config;
}

schemes::SchemeConfig tiny_scheme_config() {
  schemes::SchemeConfig sc;
  sc.gpu_blocks = 8;
  sc.gpu_threads_per_block = 128;
  sc.bigkernel.num_blocks = 8;
  sc.bigkernel.compute_threads_per_block = 64;
  return sc;
}

constexpr std::uint64_t kTinyBytes = 1u << 21;  // 2 MB apps

template <class App>
void check_all_schemes(typename App::Params params) {
  App app(params);
  const schemes::SchemeConfig sc = tiny_scheme_config();
  const gpusim::SystemConfig config = tiny_config();

  (void)schemes::run_cpu_serial(config, app, sc);
  const std::uint64_t reference = app.result_digest();
  ASSERT_NE(reference, 0u);

  for (schemes::Scheme scheme :
       {schemes::Scheme::kCpuMultiThreaded, schemes::Scheme::kGpuSingleBuffer,
        schemes::Scheme::kGpuDoubleBuffer, schemes::Scheme::kBigKernel}) {
    const schemes::RunMetrics metrics =
        schemes::run_scheme(scheme, config, app, sc);
    EXPECT_EQ(app.result_digest(), reference)
        << "scheme " << schemes::scheme_name(scheme) << " diverged";
    EXPECT_GT(metrics.total_time, 0u);
  }
}

TEST(AppsCrossScheme, Kmeans) {
  check_all_schemes<KmeansApp>({.data_bytes = kTinyBytes, .seed = 101});
}

TEST(AppsCrossScheme, WordCount) {
  check_all_schemes<WordCountApp>({.data_bytes = kTinyBytes, .seed = 102});
}

TEST(AppsCrossScheme, Netflix) {
  check_all_schemes<NetflixApp>({.data_bytes = kTinyBytes, .seed = 103});
}

TEST(AppsCrossScheme, Opinion) {
  check_all_schemes<OpinionApp>({.data_bytes = kTinyBytes, .seed = 104});
}

TEST(AppsCrossScheme, Dna) {
  check_all_schemes<DnaApp>({.data_bytes = kTinyBytes, .seed = 105});
}

TEST(AppsCrossScheme, Mastercard) {
  check_all_schemes<MastercardApp>({.data_bytes = kTinyBytes, .seed = 106});
}

TEST(AppsCrossScheme, MastercardIndexed) {
  check_all_schemes<MastercardIndexedApp>(
      {.data_bytes = kTinyBytes, .seed = 107});
}

// BigKernel ablation variants must also be functionally identical.
template <class App>
void check_ablations(typename App::Params params) {
  App app(params);
  const gpusim::SystemConfig config = tiny_config();
  schemes::SchemeConfig sc = tiny_scheme_config();

  (void)schemes::run_cpu_serial(config, app, sc);
  const std::uint64_t reference = app.result_digest();

  for (auto options : {core::Options::overlap_only(),
                       core::Options::with_transfer_reduction(),
                       core::Options::full()}) {
    options.num_blocks = sc.bigkernel.num_blocks;
    options.compute_threads_per_block =
        sc.bigkernel.compute_threads_per_block;
    sc.bigkernel = options;
    (void)schemes::run_bigkernel(config, app, sc);
    EXPECT_EQ(app.result_digest(), reference) << "ablation variant diverged";
  }
  sc.bigkernel = tiny_scheme_config().bigkernel;
  sc.bigkernel.pattern_recognition = false;
  (void)schemes::run_bigkernel(config, app, sc);
  EXPECT_EQ(app.result_digest(), reference) << "pattern-off diverged";
}

TEST(AppsAblation, KmeansAllVariantsAgree) {
  check_ablations<KmeansApp>({.data_bytes = kTinyBytes, .seed = 201});
}

TEST(AppsAblation, WordCountAllVariantsAgree) {
  check_ablations<WordCountApp>({.data_bytes = kTinyBytes, .seed = 202});
}

TEST(AppsAblation, MastercardAllVariantsAgree) {
  check_ablations<MastercardApp>({.data_bytes = kTinyBytes, .seed = 203});
}

TEST(AppsAblation, MastercardIndexedAllVariantsAgree) {
  check_ablations<MastercardIndexedApp>(
      {.data_bytes = kTinyBytes, .seed = 204});
}

// An inert fault plane (no specs) and an integrity plane change no number:
// their verification rides the same chunk-transfer path a bare run takes.
template <class App>
void check_inert_planes(typename App::Params params, core::Options options) {
  App app(params);
  const gpusim::SystemConfig config = tiny_config();
  schemes::SchemeConfig sc = tiny_scheme_config();
  options.num_blocks = sc.bigkernel.num_blocks;
  options.compute_threads_per_block = sc.bigkernel.compute_threads_per_block;
  sc.bigkernel = options;
  const schemes::RunMetrics bare = schemes::run_bigkernel(config, app, sc);
  const std::uint64_t digest = app.result_digest();

  fault::FaultPlane plane(/*seed=*/1);
  dur::Integrity integrity;
  sc.fault_plane = &plane;
  sc.integrity = &integrity;
  const schemes::RunMetrics planes = schemes::run_bigkernel(config, app, sc);
  EXPECT_EQ(app.result_digest(), digest);
  EXPECT_GT(integrity.stats().verified, 0u);
  EXPECT_EQ(plane.stats().injected, 0u);
  EXPECT_EQ(planes.total_time, bare.total_time);
  for (obs::Stage stage : obs::all_stages()) {
    EXPECT_EQ(planes.engine.stage_busy(stage), bare.engine.stage_busy(stage))
        << obs::stage_name(stage);
  }
  EXPECT_EQ(planes.h2d_bytes, bare.h2d_bytes);
  EXPECT_EQ(planes.d2h_bytes, bare.d2h_bytes);
  EXPECT_EQ(planes.engine.chunks, bare.engine.chunks);
}

TEST(AppsInertPlanes, KmeansInterleavedLayoutMatchesBareRun) {
  check_inert_planes<KmeansApp>({.data_bytes = kTinyBytes, .seed = 301},
                                core::Options::full());
}

TEST(AppsInertPlanes, WordCountThreadMajorLayoutMatchesBareRun) {
  check_inert_planes<WordCountApp>({.data_bytes = kTinyBytes, .seed = 302},
                                   core::Options::with_transfer_reduction());
}

// Without an attached pool run_bigkernel still takes its ring buffers from
// a pool, so pinned_alloc_fail fires there: block 0's third slot fails, the
// block runs on the two it built, and the output stays the serial CPU's.
TEST(AppsFaults, PinnedAllocFailDegradesARingInRunBigkernel) {
  KmeansApp app({.data_bytes = kTinyBytes, .seed = 303});
  const gpusim::SystemConfig config = tiny_config();
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(config, app, sc);
  const std::uint64_t reference = app.result_digest();

  fault::FaultPlane plane(/*seed=*/1);
  plane.add_all(fault::FaultSpec::parse("pinned_alloc_fail,nth=3"));
  sc.fault_plane = &plane;
  const schemes::RunMetrics metrics = schemes::run_bigkernel(config, app, sc);
  EXPECT_EQ(app.result_digest(), reference);
  EXPECT_EQ(plane.stats().injected, 1u);
  EXPECT_EQ(plane.stats().recovered, 1u);
  EXPECT_GE(metrics.engine.degraded_blocks, 1u);
}

// Sanity of the generated datasets themselves.
TEST(AppsData, WordCountHasWords) {
  WordCountApp app({.data_bytes = 1 << 18, .seed = 1});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  EXPECT_GT(app.total_words(), 1000u);
}

TEST(AppsData, MastercardTargetCustomersExist) {
  MastercardApp app({.data_bytes = 1 << 18, .seed = 2});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  EXPECT_NE(app.result_digest(), kFnvBasis);  // some merchants counted
}

TEST(AppsData, KmeansAssignsEveryParticle) {
  KmeansApp app({.data_bytes = 1 << 18, .seed = 3});
  schemes::SchemeConfig sc = tiny_scheme_config();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  // reset() marks cid = -1; after a run every cid must be in [0, kClusters).
  app.reset();
  (void)schemes::run_cpu_serial(tiny_config(), app, sc);
  // The ids live in the stream's output column, one double per record.
  const auto decls = app.stream_decls();
  const auto& binding = decls[0].binding;
  ASSERT_EQ(binding.out_column, KmeansApp::kClusterIdElem);
  for (std::uint64_t r = 0; r < app.num_records(); ++r) {
    double cid = 0.0;
    std::memcpy(&cid,
                binding.out(r * KmeansApp::kElemsPerRecord +
                            KmeansApp::kClusterIdElem),
                sizeof(cid));
    ASSERT_GE(cid, 0.0);
    ASSERT_LT(cid, static_cast<double>(KmeansApp::kClusters));
  }
}

TEST(AppsData, TableOneProportionsMatchDeclarations) {
  // The declared reads/elems ratios must reproduce Table I's percentages.
  const ScaledSystem scaled{.scale = 0.0005};
  struct Row {
    double declared;
    double expected;
  };
  KmeansApp kmeans({.data_bytes = 1 << 16});
  NetflixApp netflix({.data_bytes = 1 << 16});
  OpinionApp opinion({.data_bytes = 1 << 16});
  DnaApp dna({.data_bytes = 1 << 16});
  auto ratio = [](auto& app) {
    const auto decl = app.stream_decls()[0].binding;
    return 100.0 * decl.reads_per_record / decl.elems_per_record;
  };
  EXPECT_NEAR(ratio(kmeans), 50.0, 1.0);
  EXPECT_NEAR(ratio(netflix), 30.0, 1.0);
  EXPECT_NEAR(ratio(opinion), 73.0, 2.0);
  EXPECT_NEAR(ratio(dna), 36.0, 1.0);
  EXPECT_EQ(benchmark_apps(scaled).size(), 7u);
}

TEST(AppsRegistry, EntriesRunUnderAnyScheme) {
  const ScaledSystem scaled{.scale = 0.0003};  // ~1.3-2 MB inputs
  auto suite = benchmark_apps(scaled);
  ASSERT_EQ(suite.size(), 7u);
  const gpusim::SystemConfig config = scaled.config();
  const schemes::SchemeConfig sc = tiny_scheme_config();
  for (const BenchApp& entry : suite) {
    const auto metrics =
        entry.run(schemes::Scheme::kBigKernel, config, sc);
    EXPECT_GT(metrics.total_time, 0u) << entry.name;
    EXPECT_EQ(metrics.kernel_launches, 1u) << entry.name;
  }
}

}  // namespace
}  // namespace bigk::apps
