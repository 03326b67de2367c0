// bigkload determinism guard (seed regression): the same --arrival seed must
// produce a byte-identical generated plan, schedule, job records, and
// metrics JSON across independent runs — with the chunk cache on and off,
// in open- and closed-loop mode.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "load/generator.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/server.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

const std::vector<std::string> kApps{"toy0", "toy1", "toy2"};

load::LoadConfig load_config(std::uint64_t seed, bool closed_loop) {
  load::LoadConfig config;
  config.arrival.kind = load::ArrivalKind::kMmpp;
  config.arrival.rate_per_s = 120'000.0;
  config.arrival.burst_rate_per_s = 500'000.0;
  config.arrival.seed = seed;
  config.duration = 500 * sim::kMicrosecond;
  config.closed_loop = closed_loop;
  load::TenantSpec lc;
  lc.qos.name = "lc";
  lc.qos.slo = SloClass::kLatencyCritical;
  lc.qos.weight = 8;
  lc.qos.deadline = 400 * sim::kMicrosecond;
  lc.qos.think_time = 20 * sim::kMicrosecond;
  lc.share = 0.3;
  lc.clients = 8;
  load::TenantSpec batch;
  batch.qos.name = "batch";
  batch.qos.weight = 1;
  batch.qos.quota = 8;
  batch.qos.think_time = 10 * sim::kMicrosecond;
  batch.share = 0.7;
  batch.clients = 16;
  config.tenants = {lc, batch};
  return config;
}

struct RunOutput {
  ServeReport report;
  std::string metrics_json;
};

RunOutput run_once(std::uint64_t seed, bool cache_enabled,
                   bool closed_loop = false) {
  const load::LoadConfig lc = load_config(seed, closed_loop);
  const load::LoadPlan plan = load::make_load(lc, kApps);
  const auto suite = make_toy_suite(3, 2'000);

  obs::MetricsRegistry registry;
  ServerConfig config;
  config.system = toy_system();
  config.devices = 3;
  config.policy = Policy::kAppAffinity;
  config.queue_depth = 12;
  config.max_retries = 200;
  config.retry_after = sim::DurationPs{20'000'000};
  config.engine = toy_engine_options();
  config.metrics = &registry;
  config.metrics_prefix = "load.determinism";
  config.cache_enabled = cache_enabled;
  config.cache_bytes = 256 << 10;
  config.qos.tenants = plan.tenants;
  config.qos.closed_loop = closed_loop;
  config.qos.offered_window = lc.duration;
  config.qos.autoscaler.enabled = true;
  config.qos.autoscaler.min_active = 1;
  config.qos.autoscaler.period = sim::DurationPs{50'000'000};
  config.qos.autoscaler.cooldown = 1;

  RunOutput output;
  output.report = run_server(config, plan.specs, suite);
  std::ostringstream metrics_out;
  registry.write_json_array(metrics_out);
  output.metrics_json = metrics_out.str();
  return output;
}

void expect_identical(const RunOutput& first, const RunOutput& second) {
  EXPECT_EQ(first.report.completion_order, second.report.completion_order);
  EXPECT_EQ(first.report.makespan, second.report.makespan);
  EXPECT_EQ(first.report.rejections, second.report.rejections);
  EXPECT_EQ(first.report.scale_ups, second.report.scale_ups);
  EXPECT_EQ(first.report.scale_downs, second.report.scale_downs);
  EXPECT_EQ(first.report.jobs, second.report.jobs);
  ASSERT_EQ(first.report.tenants.size(), second.report.tenants.size());
  for (std::size_t t = 0; t < first.report.tenants.size(); ++t) {
    EXPECT_EQ(first.report.tenants[t].completed,
              second.report.tenants[t].completed);
    EXPECT_EQ(first.report.tenants[t].dropped,
              second.report.tenants[t].dropped);
    EXPECT_EQ(first.report.tenants[t].latency_p99,
              second.report.tenants[t].latency_p99);
  }
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(LoadDeterminismTest, GeneratedPlanIsByteStable) {
  const load::LoadConfig lc = load_config(2014, false);
  const load::LoadPlan first = load::make_load(lc, kApps);
  const load::LoadPlan second = load::make_load(lc, kApps);
  ASSERT_EQ(first.specs.size(), second.specs.size());
  ASSERT_GT(first.specs.size(), 0u);
  for (std::size_t i = 0; i < first.specs.size(); ++i) {
    EXPECT_EQ(first.specs[i].id, second.specs[i].id);
    EXPECT_EQ(first.specs[i].app, second.specs[i].app);
    EXPECT_EQ(first.specs[i].tenant, second.specs[i].tenant);
    EXPECT_EQ(first.specs[i].client, second.specs[i].client);
    EXPECT_EQ(first.specs[i].submit_time, second.specs[i].submit_time);
  }
}

TEST(LoadDeterminismTest, OpenLoopTwoRunsAreByteIdentical) {
  expect_identical(run_once(2014, false), run_once(2014, false));
}

TEST(LoadDeterminismTest, CachedRunsAreByteIdentical) {
  const RunOutput first = run_once(2014, true);
  const RunOutput second = run_once(2014, true);
  EXPECT_GT(first.report.cache_hits, 0u);
  expect_identical(first, second);
}

TEST(LoadDeterminismTest, ClosedLoopRunsAreByteIdentical) {
  expect_identical(run_once(2014, false, true),
                   run_once(2014, false, true));
}

TEST(LoadDeterminismTest, CacheOnAndOffAgreeOnOutcomes) {
  // The cache accelerates staging but must not change admission or QoS
  // outcomes' integrity: same job set, every completion's results verified
  // inside ToyRunner either way.
  const RunOutput cached = run_once(2014, true);
  const RunOutput uncached = run_once(2014, false);
  ASSERT_EQ(cached.report.jobs.size(), uncached.report.jobs.size());
  EXPECT_GT(cached.report.cache_hits, 0u);
  EXPECT_EQ(uncached.report.cache_hits, 0u);
  EXPECT_EQ(cached.report.completed + cached.report.dropped +
                cached.report.failed_jobs,
            uncached.report.completed + uncached.report.dropped +
                uncached.report.failed_jobs);
}

TEST(LoadDeterminismTest, DifferentArrivalSeedsChangeThePlan) {
  const load::LoadPlan first =
      load::make_load(load_config(1, false), kApps);
  const load::LoadPlan second =
      load::make_load(load_config(2, false), kApps);
  bool differs = first.specs.size() != second.specs.size();
  for (std::size_t i = 0; !differs && i < first.specs.size(); ++i) {
    differs = first.specs[i].submit_time != second.specs[i].submit_time ||
              first.specs[i].app != second.specs[i].app;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace bigk::serve
