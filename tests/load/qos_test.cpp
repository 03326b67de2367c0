// bigkload end-to-end QoS tests: WFQ protects the latency-critical tenant
// past saturation, per-tenant quotas are enforced, weight-0 background
// tenants are never starved forever, fairness accounting, and scale (many
// concurrent tenants / thousands of closed-loop clients).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "load/generator.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

constexpr std::uint64_t kRecords = 2'000;
const std::vector<std::string> kApps{"toy0", "toy1"};

ServerConfig base_config(std::uint32_t devices) {
  ServerConfig config;
  config.system = toy_system();
  config.devices = devices;
  config.queue_depth = 16 * devices;
  config.retry_after = sim::DurationPs{20'000'000};  // 20 us
  config.max_retries = 1'000;
  config.engine = toy_engine_options();
  return config;
}

sim::DurationPs seconds_to_ps(double seconds) {
  return static_cast<sim::DurationPs>(seconds * 1e12 + 0.5);
}

/// Pool capacity (jobs/s) on a deadline-free batch workload.
double measure_capacity(std::uint32_t devices) {
  const auto suite = make_toy_suite(2, kRecords);
  WorkloadConfig workload;
  workload.num_jobs = 12;
  workload.seed = 5;
  workload.mean_gap = 0;
  const ServeReport report = run_server(
      base_config(devices), make_workload(kApps, workload), suite);
  return report.throughput_jobs_per_s;
}

TEST(QosServeTest, WfqBeatsFifoPastSaturation) {
  const std::uint32_t devices = 2;
  const double capacity = measure_capacity(devices);
  ASSERT_GT(capacity, 0.0);

  load::LoadConfig lc;
  lc.arrival.rate_per_s = 2.5 * capacity;
  lc.arrival.seed = 31;
  lc.duration = seconds_to_ps(12.0 / capacity);
  load::TenantSpec critical;
  critical.qos.name = "lc";
  critical.qos.slo = SloClass::kLatencyCritical;
  critical.qos.weight = 8;
  critical.qos.deadline =
      seconds_to_ps(3.0 * static_cast<double>(devices) / capacity);
  critical.share = 0.25;
  critical.clients = 16;
  load::TenantSpec batch;
  batch.qos.name = "batch";
  batch.qos.weight = 1;
  batch.share = 0.75;
  batch.clients = 16;
  lc.tenants = {critical, batch};
  const load::LoadPlan plan = load::make_load(lc, kApps);
  ASSERT_GT(plan.specs.size(), 20u);

  const auto run_with = [&](Discipline discipline) {
    const auto suite = make_toy_suite(2, kRecords);
    ServerConfig config = base_config(devices);
    config.max_retries = 2;  // past saturation, shed instead of piling up
    config.qos.tenants = plan.tenants;
    config.qos.discipline = discipline;
    config.qos.offered_window = lc.duration;
    return run_server(config, plan.specs, suite);
  };
  const ServeReport fifo = run_with(Discipline::kFifo);
  const ServeReport wfq = run_with(Discipline::kWfq);

  ASSERT_EQ(fifo.tenants.size(), 2u);
  ASSERT_EQ(wfq.tenants.size(), 2u);
  ASSERT_GT(wfq.tenants[0].submitted, 0u);
  // The headline: weighted-fair ordering protects the latency-critical
  // tenant's SLO attainment when the pool is oversubscribed.
  EXPECT_GT(wfq.tenants[0].slo_attainment, fifo.tenants[0].slo_attainment);
  EXPECT_LT(wfq.tenants[0].latency_p99, fifo.tenants[0].latency_p99);
}

TEST(QosServeTest, TenantQuotaEnforced) {
  const auto suite = make_toy_suite(2, kRecords);
  ServerConfig config = base_config(2);
  TenantConfig limited;
  limited.name = "limited";
  limited.quota = 1;
  config.qos.tenants = {limited};
  config.retry_after = sim::DurationPs{5'000'000};  // 5 us
  std::vector<JobSpec> specs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app = kApps[i % kApps.size()];
    spec.submit_time = 0;
    spec.tenant = 0;
    spec.client = 1 + i;
    specs.push_back(spec);
  }
  const ServeReport report = run_server(config, specs, suite);
  // One admitted at a time; the rest bounce off the quota until it frees,
  // and every job still completes.
  EXPECT_EQ(report.completed, specs.size());
  EXPECT_GT(report.rejections_tenant_quota, 0u);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_GT(report.tenants[0].rejections, 0u);
  EXPECT_EQ(report.rejections_tenant_quota +
                report.rejections_queue_full + report.rejections_no_device,
            report.rejections);
}

TEST(QosServeTest, WeightZeroTenantIsNeverStarvedForever) {
  const std::uint32_t devices = 2;
  const double capacity = measure_capacity(devices);
  load::LoadConfig lc;
  lc.arrival.rate_per_s = 1.5 * capacity;
  lc.arrival.seed = 13;
  lc.duration = seconds_to_ps(14.0 / capacity);
  load::TenantSpec weighted;
  weighted.qos.name = "fg";
  weighted.qos.weight = 8;
  weighted.share = 0.7;
  load::TenantSpec background;
  background.qos.name = "bg";
  background.qos.weight = 0;  // epsilon weight, not exclusion
  background.share = 0.3;
  lc.tenants = {weighted, background};
  const load::LoadPlan plan = load::make_load(lc, kApps);

  const auto suite = make_toy_suite(2, kRecords);
  ServerConfig config = base_config(devices);
  config.qos.tenants = plan.tenants;
  config.qos.offered_window = lc.duration;
  const ServeReport report = run_server(config, plan.specs, suite);

  ASSERT_EQ(report.tenants.size(), 2u);
  const TenantReport& bg = report.tenants[1];
  ASSERT_GT(bg.submitted, 0u);
  // Arrivals stop at the window's end, so "never starved forever" is
  // observable: every background job eventually completes.
  EXPECT_EQ(bg.completed, bg.submitted);
  EXPECT_EQ(report.completed, plan.specs.size());
  // But it really ran in the background: it waited longer than the
  // weighted tenant.
  EXPECT_GE(bg.latency_p99, report.tenants[0].latency_p99);
}

TEST(QosServeTest, AllShedTenantYieldsHalfJain) {
  // The victim tenant's arrivals land while the queue is full of the other
  // tenant's admitted backlog and it never retries: zero goodput. Jain over
  // weight-normalized goodputs [g, 0] is exactly 1/2.
  const auto suite = make_toy_suite(2, kRecords);
  ServerConfig config = base_config(1);
  config.queue_depth = 4;
  config.max_retries = 0;
  TenantConfig hog;
  hog.name = "hog";
  TenantConfig victim;
  victim.name = "victim";
  config.qos.tenants = {hog, victim};
  std::vector<JobSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {  // fills the depth-4 queue at t=0
    JobSpec spec;
    spec.id = i;
    spec.app = kApps[0];
    spec.submit_time = 0;
    spec.tenant = 0;
    spec.client = 1 + i;
    specs.push_back(spec);
  }
  for (std::uint64_t i = 0; i < 3; ++i) {  // arrive into the full queue
    JobSpec spec;
    spec.id = 4 + i;
    spec.app = kApps[0];
    spec.submit_time = sim::kMicrosecond;
    spec.tenant = 1;
    spec.client = 10 + i;
    specs.push_back(spec);
  }
  const ServeReport report = run_server(config, specs, suite);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].completed, 4u);
  EXPECT_EQ(report.tenants[1].completed, 0u);
  EXPECT_EQ(report.tenants[1].dropped, 3u);
  EXPECT_DOUBLE_EQ(report.tenants[1].goodput_jobs_per_s, 0.0);
  EXPECT_NEAR(report.fairness_jain, 0.5, 1e-9);
}

TEST(QosServeTest, MultiTenantConcurrent) {
  // Everything on at once — WFQ, quotas, deadlines, autoscaler, metrics —
  // on a multi-device pool.
  const std::uint32_t devices = 3;
  const double capacity = measure_capacity(devices);
  load::LoadConfig lc;
  lc.arrival.kind = load::ArrivalKind::kMmpp;
  lc.arrival.rate_per_s = 0.8 * capacity;
  lc.arrival.burst_rate_per_s = 2.5 * capacity;
  lc.arrival.seed = 97;
  lc.duration = seconds_to_ps(18.0 / capacity);
  for (int t = 0; t < 3; ++t) {
    load::TenantSpec tenant;
    tenant.qos.name = "t" + std::to_string(t);
    tenant.qos.weight = t == 0 ? 4 : 1;
    tenant.qos.quota = t == 2 ? 4 : 0;
    tenant.share = 1.0;
    tenant.clients = 32;
    lc.tenants.push_back(tenant);
  }
  const load::LoadPlan plan = load::make_load(lc, kApps);

  const auto suite = make_toy_suite(2, kRecords);
  obs::MetricsRegistry registry;
  ServerConfig config = base_config(devices);
  config.qos.tenants = plan.tenants;
  config.qos.offered_window = lc.duration;
  config.qos.autoscaler.enabled = true;
  config.qos.autoscaler.min_active = 1;
  config.qos.autoscaler.period = sim::DurationPs{50'000'000};  // 50 us
  config.qos.autoscaler.cooldown = 1;
  config.metrics = &registry;
  config.metrics_prefix = "qos.concurrent";
  const ServeReport report = run_server(config, plan.specs, suite);

  EXPECT_EQ(report.completed + report.dropped + report.failed_jobs,
            plan.specs.size());
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.submitted, plan.specs.size());
  // The pool and every tenant summarize the same job records.
  Outcome tenant_sum;
  for (const TenantReport& tenant : report.tenants) {
    tenant_sum.submitted += tenant.submitted;
    tenant_sum.completed += tenant.completed;
    tenant_sum.dropped += tenant.dropped;
    tenant_sum.failed_jobs += tenant.failed_jobs;
    tenant_sum.rejections += tenant.rejections;
    tenant_sum.slo_attained += tenant.slo_attained;
  }
  EXPECT_EQ(tenant_sum.submitted, report.submitted);
  EXPECT_EQ(tenant_sum.completed, report.completed);
  EXPECT_EQ(tenant_sum.dropped, report.dropped);
  EXPECT_EQ(tenant_sum.failed_jobs, report.failed_jobs);
  EXPECT_EQ(tenant_sum.rejections, report.rejections);
  EXPECT_EQ(tenant_sum.slo_attained, report.slo_attained);
  EXPECT_GT(report.rejections_tenant_quota, 0u);
  EXPECT_EQ(report.rejections_queue_full + report.rejections_no_device +
                report.rejections_tenant_quota,
            report.rejections);
}

TEST(QosServeTest, ThousandsOfClosedLoopClients) {
  const std::uint32_t devices = 4;
  load::LoadConfig lc;
  lc.duration = sim::kMillisecond;
  lc.closed_loop = true;
  lc.arrival.rate_per_s = 1.0;  // < clients => one job per client chain
  lc.arrival.seed = 3;
  for (int t = 0; t < 2; ++t) {
    load::TenantSpec tenant;
    tenant.qos.name = "c" + std::to_string(t);
    tenant.qos.think_time = 10 * sim::kMicrosecond;
    tenant.clients = 750;
    lc.tenants.push_back(tenant);
  }
  const load::LoadPlan plan = load::make_load(lc, kApps);
  EXPECT_EQ(plan.clients, 1'500u);
  EXPECT_EQ(plan.specs.size(), 1'500u);

  const auto suite = make_toy_suite(2, 200);
  ServerConfig config = base_config(devices);
  config.queue_depth = 64;
  config.qos.tenants = plan.tenants;
  config.qos.closed_loop = true;
  config.qos.offered_window = lc.duration;
  const ServeReport report = run_server(config, plan.specs, suite);
  EXPECT_EQ(report.completed + report.dropped + report.failed_jobs,
            plan.specs.size());
  EXPECT_GT(report.completed, 1'000u);
}

TEST(QosServeTest, RejectsOutOfRangeTenantIndex) {
  const auto suite = make_toy_suite(1, kRecords);
  ServerConfig config = base_config(1);
  TenantConfig only;
  only.name = "only";
  config.qos.tenants = {only};
  JobSpec spec;
  spec.id = 0;
  spec.app = "toy0";
  spec.tenant = 7;  // out of range
  EXPECT_THROW(run_server(config, {spec}, suite), std::invalid_argument);
}

}  // namespace
}  // namespace bigk::serve
