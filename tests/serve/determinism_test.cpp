// Scheduler determinism guard: the same seed and job mix must produce a
// byte-identical schedule — completion order, per-job records, and exported
// metrics JSON — across independent runs.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "serve/job.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

struct RunOutput {
  ServeReport report;
  std::string metrics_json;
};

RunOutput run_once(Policy policy, std::uint64_t seed,
                   bool cache_enabled = false) {
  const auto suite = make_toy_suite(3, 5'000);
  std::vector<std::string> names{"toy0", "toy1", "toy2"};
  WorkloadConfig workload;
  workload.num_jobs = 10;
  workload.seed = seed;
  workload.mean_gap = sim::DurationPs{50'000'000};  // 50 us

  obs::MetricsRegistry registry;
  ServerConfig config;
  config.system = toy_system();
  config.devices = 3;
  config.policy = policy;
  config.queue_depth = 4;
  config.max_retries = 100;
  config.engine = toy_engine_options();
  config.metrics = &registry;
  config.cache_enabled = cache_enabled;
  config.cache_bytes = 256 << 10;  // toy arena is 2 MiB; keep the ring's share

  RunOutput output;
  output.report = run_server(config, make_workload(names, workload), suite);
  std::ostringstream metrics_out;
  registry.write_json_array(metrics_out);
  output.metrics_json = metrics_out.str();
  return output;
}

class ServeDeterminismTest : public ::testing::TestWithParam<Policy> {};

TEST_P(ServeDeterminismTest, TwoRunsAreByteIdentical) {
  const RunOutput first = run_once(GetParam(), 21);
  const RunOutput second = run_once(GetParam(), 21);

  EXPECT_EQ(first.report.completion_order, second.report.completion_order);
  EXPECT_EQ(first.report.makespan, second.report.makespan);
  EXPECT_EQ(first.report.rejections, second.report.rejections);
  EXPECT_EQ(first.report.jobs, second.report.jobs);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

INSTANTIATE_TEST_SUITE_P(Policies, ServeDeterminismTest,
                         ::testing::Values(Policy::kRoundRobin,
                                           Policy::kLeastOutstandingBytes,
                                           Policy::kAppAffinity),
                         [](const auto& info) {
                           switch (info.param) {
                             case Policy::kRoundRobin: return "RoundRobin";
                             case Policy::kLeastOutstandingBytes:
                               return "LeastBytes";
                             case Policy::kAppAffinity: return "AppAffinity";
                             default: return "Unknown";
                           }
                         });

TEST(ServeDeterminismTest2, CachedRunsAreByteIdentical) {
  // The chunk cache must not perturb determinism: two cached runs produce the
  // same schedule, job records, and metrics JSON — and the cache actually
  // engages (repeat jobs under app affinity hit the read-only lut images).
  const RunOutput first = run_once(Policy::kAppAffinity, 21, true);
  const RunOutput second = run_once(Policy::kAppAffinity, 21, true);

  EXPECT_GT(first.report.cache_hits, 0u);
  EXPECT_GT(first.report.cache_bytes_saved, 0u);
  EXPECT_EQ(first.report.completion_order, second.report.completion_order);
  EXPECT_EQ(first.report.cache_hits, second.report.cache_hits);
  EXPECT_EQ(first.report.cache_bytes_saved, second.report.cache_bytes_saved);
  EXPECT_EQ(first.report.jobs, second.report.jobs);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(ServeDeterminismTest2, CacheOnAndOffAgreeOnResults) {
  // Byte-identical app output with the cache on vs off: every job's
  // expect_results() runs inside ToyRunner (a mismatch throws and fails the
  // job), so equal completion sets prove the cached reads returned the same
  // bytes the assembly path would have produced.
  const RunOutput cached = run_once(Policy::kAppAffinity, 21, true);
  const RunOutput uncached = run_once(Policy::kAppAffinity, 21, false);

  ASSERT_EQ(cached.report.jobs.size(), uncached.report.jobs.size());
  EXPECT_EQ(cached.report.rejections, uncached.report.rejections);
  for (std::size_t i = 0; i < cached.report.jobs.size(); ++i) {
    EXPECT_EQ(cached.report.jobs[i].completed, uncached.report.jobs[i].completed);
  }
  EXPECT_GT(cached.report.cache_hits, 0u);
  EXPECT_EQ(uncached.report.cache_hits, 0u);
  EXPECT_EQ(uncached.report.cache_bytes_saved, 0u);
}

TEST(ServeDeterminismTest2, DifferentSeedsChangeTheWorkload) {
  std::vector<std::string> names{"toy0", "toy1", "toy2"};
  WorkloadConfig workload;
  workload.num_jobs = 16;
  workload.mean_gap = sim::DurationPs{1'000'000};
  workload.seed = 1;
  const auto first = make_workload(names, workload);
  workload.seed = 2;
  const auto second = make_workload(names, workload);
  bool differs = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i].app != second[i].app ||
        first[i].submit_time != second[i].submit_time) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(ServeDeterminismTest2, WorkloadGenerationIsStable) {
  // Lock the generator's output shape: same config twice => identical specs.
  std::vector<std::string> names{"toy0", "toy1"};
  WorkloadConfig workload;
  workload.num_jobs = 8;
  workload.seed = 1234;
  workload.mean_gap = sim::DurationPs{777};
  workload.deadline = sim::DurationPs{5'000};
  const auto first = make_workload(names, workload);
  const auto second = make_workload(names, workload);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].app, second[i].app);
    EXPECT_EQ(first[i].submit_time, second[i].submit_time);
    EXPECT_EQ(first[i].deadline, second[i].deadline);
  }
}

}  // namespace
}  // namespace bigk::serve
