// One dataset per registry entry: an app over a shared dataset reads the
// same bytes as one built from its Params and computes the same result;
// runners of one entry share its streams, K-means's particles included, and
// write only their own state, which they hold from their first run on; an
// entry generates its dataset once however often it runs; and no run, clean
// or faulted, changes the shared bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/registry.hpp"
#include "apps/wordcount.hpp"
#include "schemes/runners.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"

namespace bigk::apps {
namespace {

gpusim::SystemConfig tiny_config() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 3 << 20;
  return config;
}

schemes::SchemeConfig tiny_scheme_config() {
  schemes::SchemeConfig sc;
  sc.gpu_blocks = 8;
  sc.gpu_threads_per_block = 128;
  sc.bigkernel.num_blocks = 4;
  sc.bigkernel.compute_threads_per_block = 64;
  return sc;
}

core::Options tiny_engine() { return tiny_scheme_config().bigkernel; }

/// Every stream declaration and byte, every table byte and the record count
/// of `a` and `b` are equal.
template <class App>
void expect_same_input(App& a, App& b) {
  EXPECT_EQ(a.num_records(), b.num_records());
  const std::vector<schemes::StreamDecl> decls_a = a.stream_decls();
  const std::vector<schemes::StreamDecl> decls_b = b.stream_decls();
  ASSERT_EQ(decls_a.size(), decls_b.size());
  for (std::size_t s = 0; s < decls_a.size(); ++s) {
    const core::StreamBinding& x = decls_a[s].binding;
    const core::StreamBinding& y = decls_b[s].binding;
    EXPECT_EQ(x.mode, y.mode);
    EXPECT_EQ(x.elems_per_record, y.elems_per_record);
    EXPECT_EQ(x.reads_per_record, y.reads_per_record);
    EXPECT_EQ(x.writes_per_record, y.writes_per_record);
    EXPECT_EQ(x.out_column, y.out_column);
    EXPECT_EQ(decls_a[s].overfetch_elems, decls_b[s].overfetch_elems);
    ASSERT_EQ(x.elem_size, y.elem_size);
    ASSERT_EQ(x.num_elements, y.num_elements);
    ASSERT_GT(x.size_bytes(), 0u);
    EXPECT_EQ(std::memcmp(x.host_data, y.host_data, x.size_bytes()), 0)
        << "stream " << s;
  }
  ASSERT_EQ(a.tables().size(), b.tables().size());
  for (std::uint32_t id = 0; id < a.tables().size(); ++id) {
    const auto bytes_a = a.tables().raw_bytes(id);
    const auto bytes_b = b.tables().raw_bytes(id);
    ASSERT_EQ(bytes_a.size(), bytes_b.size()) << "table " << id;
    EXPECT_EQ(std::memcmp(bytes_a.data(), bytes_b.data(), bytes_a.size()), 0)
        << "table " << id;
  }
}

/// At two sizes and two seeds, an app over a shared dataset and one built
/// from the same Params hold the same input and, after a serial CPU run, the
/// same result.
template <class App>
void check_shared_matches_owned() {
  for (const std::uint64_t bytes : {40'000u, 200'000u}) {
    for (const std::uint64_t seed : {5u, 91u}) {
      SCOPED_TRACE(App::paper_info().name + " bytes=" + std::to_string(bytes) +
                   " seed=" + std::to_string(seed));
      typename App::Params params;
      params.data_bytes = bytes;
      params.seed = seed;
      App owned(params);
      App shared(std::make_shared<const typename App::Dataset>(params));
      expect_same_input(owned, shared);
      const schemes::SchemeConfig sc = tiny_scheme_config();
      (void)schemes::run_cpu_serial(tiny_config(), owned, sc);
      (void)schemes::run_cpu_serial(tiny_config(), shared, sc);
      EXPECT_EQ(owned.result_digest(), shared.result_digest());
    }
  }
}

TEST(AppsSharedDataset, KmeansMatchesTheOwnedApp) {
  check_shared_matches_owned<KmeansApp>();
}
TEST(AppsSharedDataset, WordCountMatchesTheOwnedApp) {
  check_shared_matches_owned<WordCountApp>();
}
TEST(AppsSharedDataset, NetflixMatchesTheOwnedApp) {
  check_shared_matches_owned<NetflixApp>();
}
TEST(AppsSharedDataset, OpinionMatchesTheOwnedApp) {
  check_shared_matches_owned<OpinionApp>();
}
TEST(AppsSharedDataset, DnaMatchesTheOwnedApp) {
  check_shared_matches_owned<DnaApp>();
}
TEST(AppsSharedDataset, MastercardMatchesTheOwnedApp) {
  check_shared_matches_owned<MastercardApp>();
}
TEST(AppsSharedDataset, MastercardIndexedMatchesTheOwnedApp) {
  check_shared_matches_owned<MastercardIndexedApp>();
}

/// The first stream of `runner`'s app.
template <class App>
core::StreamBinding first_stream(JobRunner& runner) {
  auto& typed = dynamic_cast<AppJobRunner<App>&>(runner);
  return typed.app().stream_decls().at(0).binding;
}

template <class App>
void expect_runners_share_the_stream(const std::vector<BenchApp>& suite) {
  const BenchApp& entry = find_app(suite, App::paper_info().name);
  const std::unique_ptr<JobRunner> a = entry.make_runner();
  const std::unique_ptr<JobRunner> b = entry.make_runner();
  EXPECT_EQ(first_stream<App>(*a).host_data, first_stream<App>(*b).host_data)
      << entry.name;
}

TEST(AppsSharedDataset, RunnersOfOneEntryShareItsReadOnlyStreams) {
  const std::vector<BenchApp> suite = benchmark_apps({.scale = 0.0001});
  expect_runners_share_the_stream<KmeansApp>(suite);
  expect_runners_share_the_stream<WordCountApp>(suite);
  expect_runners_share_the_stream<NetflixApp>(suite);
  expect_runners_share_the_stream<OpinionApp>(suite);
  expect_runners_share_the_stream<DnaApp>(suite);
  expect_runners_share_the_stream<MastercardApp>(suite);
  expect_runners_share_the_stream<MastercardIndexedApp>(suite);
}

// K-means reads its particles where the dataset keeps them and writes its
// cluster ids into a column of its own: two runners' streams view the same
// bytes, equal to the dataset's, and their output columns differ.
TEST(AppsSharedDataset, KmeansRunnersShareTheParticles) {
  const std::vector<BenchApp> suite = benchmark_apps({.scale = 0.0001});
  const BenchApp& kmeans = find_app(suite, "K-means");
  const std::unique_ptr<JobRunner> a = kmeans.make_runner();
  const std::unique_ptr<JobRunner> b = kmeans.make_runner();
  const core::StreamBinding x = first_stream<KmeansApp>(*a);
  const core::StreamBinding y = first_stream<KmeansApp>(*b);
  EXPECT_EQ(x.host_data, y.host_data);
  EXPECT_NE(x.host_out, y.host_out);
  EXPECT_EQ(x.out_column, KmeansApp::kClusterIdElem);
  EXPECT_EQ(x.size_bytes(),
            a->num_records() * KmeansApp::kElemsPerRecord * sizeof(double));
  EXPECT_EQ(x.out_prefix(a->num_records()).size(),
            a->num_records() * sizeof(double));
}

/// Runners of `App`'s entry copy its tables on their first run: before
/// either runs, both read the dataset's tables; after one job, that
/// runner's tables are its own and the other's are still the dataset's.
template <class App>
void expect_tables_copied_on_first_run(const std::vector<BenchApp>& suite) {
  const BenchApp& entry = find_app(suite, App::paper_info().name);
  SCOPED_TRACE(entry.name);
  const std::unique_ptr<JobRunner> a = entry.make_runner();
  const std::unique_ptr<JobRunner> b = entry.make_runner();
  const auto tables = [](JobRunner& runner) {
    const App& app = dynamic_cast<AppJobRunner<App>&>(runner).app();
    return app.tables().raw_bytes(0).data();
  };
  const std::byte* dataset = tables(*a);
  EXPECT_EQ(tables(*b), dataset);

  sim::Simulation sim;
  cusim::Runtime runtime(sim, tiny_config());
  JobRunConfig cfg;
  cfg.engine = tiny_engine();
  sim.run_until_complete(a->run(runtime, cfg));
  EXPECT_NE(tables(*a), dataset);
  EXPECT_EQ(tables(*b), dataset);
}

TEST(AppsSharedDataset, RunnersHoldNoTableCopyUntilTheyRun) {
  const std::vector<BenchApp> suite = benchmark_apps({.scale = 0.00005});
  expect_tables_copied_on_first_run<KmeansApp>(suite);
  expect_tables_copied_on_first_run<WordCountApp>(suite);
  expect_tables_copied_on_first_run<NetflixApp>(suite);
  expect_tables_copied_on_first_run<OpinionApp>(suite);
  expect_tables_copied_on_first_run<DnaApp>(suite);
  expect_tables_copied_on_first_run<MastercardApp>(suite);
  expect_tables_copied_on_first_run<MastercardIndexedApp>(suite);
}

// K-means writes cluster ids into its output column: each runner writes its
// own, so a job on one runner leaves the other's output and the shared
// dataset as they were.
TEST(AppsSharedDataset, KmeansJobWritesOnlyItsOwnClusterIds) {
  const std::vector<BenchApp> suite = benchmark_apps({.scale = 0.0001});
  const BenchApp& kmeans = find_app(suite, "K-means");
  const std::unique_ptr<JobRunner> a = kmeans.make_runner();
  const std::unique_ptr<JobRunner> b = kmeans.make_runner();
  EXPECT_NE(first_stream<KmeansApp>(*a).host_out,
            first_stream<KmeansApp>(*b).host_out);
  const std::uint64_t records = b->num_records();
  const std::uint64_t untouched = b->output_digest(records);
  const std::uint64_t dataset = kmeans.dataset_digest();

  sim::Simulation sim;
  cusim::Runtime runtime(sim, tiny_config());
  JobRunConfig cfg;
  cfg.engine = tiny_engine();
  sim.run_until_complete(a->run(runtime, cfg));

  EXPECT_NE(a->output_digest(records), untouched);  // the job assigned ids
  EXPECT_EQ(b->output_digest(records), untouched);
  EXPECT_EQ(kmeans.dataset_digest(), dataset);
}

// Building a suite generates nothing; each entry generates its dataset on
// its first run and shares it with the four scheme runs after it, as
// fig4a_speedup's 35 runs do.
TEST(AppsSharedDataset, FiveSchemeRunsPerEntryGenerateOneDatasetEach) {
  const std::uint64_t before = datasets_generated();
  const std::vector<BenchApp> suite = benchmark_apps({.scale = 0.00005});
  EXPECT_EQ(datasets_generated(), before);
  const schemes::SchemeConfig sc = tiny_scheme_config();
  for (const BenchApp& entry : suite) {
    for (const schemes::Scheme scheme :
         {schemes::Scheme::kCpuSerial, schemes::Scheme::kCpuMultiThreaded,
          schemes::Scheme::kGpuSingleBuffer, schemes::Scheme::kGpuDoubleBuffer,
          schemes::Scheme::kBigKernel}) {
      const schemes::RunMetrics metrics = entry.run(scheme, tiny_config(), sc);
      EXPECT_GT(metrics.total_time, 0u) << entry.name;
    }
  }
  EXPECT_EQ(datasets_generated(), before + suite.size());
  // A copy of an entry shares its dataset, as serve plans copy entries.
  const BenchApp copy = suite.front();
  (void)copy.make_runner();
  EXPECT_EQ(datasets_generated(), before + suite.size());
}

// A serve run over every app, with integrity checking on and write-back
// bit flips and DMA errors injected, leaves every shared dataset's bytes as
// they were.
TEST(AppsSharedDataset, FaultedServeRunLeavesTheSharedDatasetsUnchanged) {
  const std::vector<BenchApp> suite = benchmark_apps({.scale = 0.00005});
  std::vector<std::uint64_t> digests;
  for (const BenchApp& entry : suite) digests.push_back(entry.dataset_digest());

  std::vector<serve::JobSpec> specs;
  for (std::uint32_t round = 0; round < 2; ++round) {
    for (const BenchApp& entry : suite) {
      serve::JobSpec spec;
      spec.id = specs.size();
      spec.app = entry.name;
      specs.push_back(spec);
    }
  }
  serve::ServerConfig config;
  config.system = tiny_config();
  config.devices = 2;
  config.queue_depth = static_cast<std::uint32_t>(specs.size());
  config.engine = tiny_engine();
  config.dur.integrity = true;
  config.fault_spec =
      "bitflip_writeback,nth=1,every=2;dma_error,nth=2,every=9,max=3";
  const serve::ServeReport report = serve::run_server(config, specs, suite);

  EXPECT_EQ(report.completed, specs.size());
  EXPECT_GT(report.fault_injected, 0u);
  EXPECT_GT(report.integrity_detected, 0u);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].dataset_digest(), digests[i]) << suite[i].name;
  }
}

}  // namespace
}  // namespace bigk::apps
