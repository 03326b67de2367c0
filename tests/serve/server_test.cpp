// Functional tests of the bigkserve serving layer over a toy app suite:
// completion, multi-device scaling, admission-control shedding, app-affinity
// reuse, the two binding rules of the dispatch step, closed-loop chains,
// deadlines, config rejection, nearest-rank report percentiles, clean
// execution under the bigkcheck sanitizers with concurrent devices, and
// runners destroyed as their jobs settle.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/job.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

ServerConfig toy_server(std::uint32_t devices, Policy policy,
                        std::uint32_t queue_depth) {
  ServerConfig config;
  config.system = toy_system();
  config.devices = devices;
  config.policy = policy;
  config.queue_depth = queue_depth;
  config.retry_after = sim::DurationPs{1'000'000'000};  // 1 ms
  config.engine = toy_engine_options();
  return config;
}

std::vector<JobSpec> toy_workload(std::uint32_t num_jobs,
                                  std::uint32_t num_apps,
                                  std::uint64_t seed = 7) {
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < num_apps; ++i) {
    names.push_back("toy" + std::to_string(i));
  }
  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.seed = seed;
  return make_workload(names, workload);
}

TEST(ServeServerTest, CompletesAllJobsAcrossDevices) {
  const auto suite = make_toy_suite(3, 6'000);
  const auto specs = toy_workload(8, 3);
  const ServeReport report =
      run_server(toy_server(2, Policy::kRoundRobin, 8), specs, suite);

  EXPECT_EQ(report.jobs.size(), 8u);
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.completion_order.size(), 8u);
  ASSERT_EQ(report.devices.size(), 2u);
  EXPECT_EQ(report.devices[0].jobs + report.devices[1].jobs, 8u);
  // Round-robin across 2 devices splits 8 jobs evenly.
  EXPECT_EQ(report.devices[0].jobs, 4u);
  EXPECT_GT(report.latency_p50, 0u);
  EXPECT_GE(report.latency_p95, report.latency_p50);
  EXPECT_GE(report.latency_p99, report.latency_p95);
  EXPECT_GT(report.throughput_jobs_per_s, 0.0);
  for (const JobRecord& record : report.jobs) {
    EXPECT_TRUE(record.completed);
    EXPECT_GE(record.finish_time, record.start_time);
    EXPECT_GE(record.start_time, record.spec.submit_time);
  }
  for (const DeviceReport& device : report.devices) {
    EXPECT_GT(device.utilization, 0.0);
    EXPECT_LE(device.utilization, 1.0);
    EXPECT_GT(device.kernel_launches, 0u);
  }
}

TEST(ServeServerTest, MoreDevicesShrinkMakespan) {
  // Compute-heavy jobs (GPU-bound) so the device pool, not the shared host,
  // is the bottleneck.
  const auto suite = make_toy_suite(4, 4'000, /*alu_ops=*/512.0);
  const auto specs = toy_workload(16, 4);
  const ServeReport one =
      run_server(toy_server(1, Policy::kRoundRobin, 16), specs, suite);
  const ServeReport four =
      run_server(toy_server(4, Policy::kRoundRobin, 16), specs, suite);

  EXPECT_EQ(one.completed, 16u);
  EXPECT_EQ(four.completed, 16u);
  EXPECT_LT(four.makespan, one.makespan);
  EXPECT_GT(four.throughput_jobs_per_s, 2.0 * one.throughput_jobs_per_s)
      << "4 devices should deliver well over 2x one device's throughput";
}

TEST(ServeServerTest, SaturatedQueueShedsLoad) {
  const auto suite = make_toy_suite(2, 6'000);
  const auto specs = toy_workload(12, 2);
  ServerConfig config = toy_server(1, Policy::kRoundRobin, 2);
  config.max_retries = 1;
  config.retry_after = sim::DurationPs{1'000'000};  // 1 us: retries too early
  const ServeReport report = run_server(config, specs, suite);

  EXPECT_GT(report.rejections, 0u);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_EQ(report.completed + report.dropped, 12u);
  EXPECT_LE(report.peak_queue_depth, 2u);
  for (const JobRecord& record : report.jobs) {
    if (!record.admitted) {
      EXPECT_GT(record.rejections, 0u);
    }
  }
}

TEST(ServeServerTest, RetryAfterEventuallyAdmits) {
  const auto suite = make_toy_suite(2, 6'000);
  const auto specs = toy_workload(12, 2);
  // Generous retry budget: everything completes despite the tiny queue.
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 2);
  config.max_retries = 200;
  const ServeReport report = run_server(config, specs, suite);
  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_GT(report.rejections, 0u);
}

TEST(ServeServerTest, AppAffinityBeatsRoundRobinOnReuseHeavyMix) {
  // Staging-heavy jobs (large input, light compute) on a reuse-heavy mix of
  // two apps: affinity keeps datasets resident and skips the staging pass.
  const auto suite = make_toy_suite(2, 24'000, /*alu_ops=*/1.0);
  const auto specs = toy_workload(12, 2, /*seed=*/99);
  const ServeReport rr =
      run_server(toy_server(2, Policy::kRoundRobin, 12), specs, suite);
  const ServeReport affinity =
      run_server(toy_server(2, Policy::kAppAffinity, 12), specs, suite);

  EXPECT_EQ(rr.completed, 12u);
  EXPECT_EQ(affinity.completed, 12u);
  EXPECT_GT(affinity.warm_hits, rr.warm_hits);
  EXPECT_LT(affinity.makespan, rr.makespan);
}

TEST(ServeServerTest, TenantsBindJobsToIdleDevicesOnly) {
  // Two same-app jobs at t=0 on a 2-device app-affinity pool. Without
  // tenants a job is placed at admission, so the second queues behind the
  // warm first; with a tenant a device holds one job at a time, so the
  // second takes the idle device.
  const auto suite = make_toy_suite(1, 4'000);
  std::vector<JobSpec> specs(2);
  for (std::uint64_t i = 0; i < specs.size(); ++i) {
    specs[i].id = i;
    specs[i].app = "toy0";
  }
  ServerConfig config = toy_server(2, Policy::kAppAffinity, 4);
  const ServeReport at_admission = run_server(config, specs, suite);
  ASSERT_EQ(at_admission.completed, 2u);
  EXPECT_EQ(at_admission.jobs[1].device, at_admission.jobs[0].device);
  EXPECT_TRUE(at_admission.jobs[1].warm);

  config.qos.tenants.resize(1);
  const ServeReport late_bound = run_server(config, specs, suite);
  ASSERT_EQ(late_bound.completed, 2u);
  EXPECT_NE(late_bound.jobs[1].device, late_bound.jobs[0].device);
}

TEST(ServeServerTest, ClosedLoopWithoutTenantsChainsEachClient) {
  // No tenants means the default tenant's zero think time: each link of a
  // client's chain submits the instant the previous one finishes, although
  // a second device sits idle.
  const auto suite = make_toy_suite(1, 4'000);
  std::vector<JobSpec> specs(3);
  for (std::uint64_t i = 0; i < specs.size(); ++i) {
    specs[i].id = i;
    specs[i].app = "toy0";
    specs[i].client = 1;
  }
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 4);
  config.qos.closed_loop = true;
  const ServeReport report = run_server(config, specs, suite);
  ASSERT_EQ(report.completed, 3u);
  for (std::size_t i = 1; i < report.jobs.size(); ++i) {
    EXPECT_EQ(report.jobs[i].spec.submit_time,
              report.jobs[i - 1].finish_time);
  }
}

TEST(ServeServerTest, ReinstatedDeviceDrainsTheTenantQueue) {
  // One device, one tenant: the first job dies with the device while the
  // other two wait in the tenant queue, since a device holds one job at a
  // time. Reinstating the device must dispatch them; nothing else would.
  const auto suite = make_toy_suite(1, 4'000);
  std::vector<JobSpec> specs(3);
  for (std::uint64_t i = 0; i < specs.size(); ++i) {
    specs[i].id = i;
    specs[i].app = "toy0";
  }
  ServerConfig config = toy_server(1, Policy::kRoundRobin, 4);
  config.qos.tenants.resize(1);
  config.fault_spec = "device_lost,nth=1,device=0,down_us=1000";
  const ServeReport report = run_server(config, specs, suite);
  EXPECT_EQ(report.failed_jobs, 1u);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.reinstatements, 1u);
}

TEST(ServeServerTest, DeadlinesAreAccounted) {
  const auto suite = make_toy_suite(2, 6'000);
  std::vector<JobSpec> specs = toy_workload(6, 2);
  for (JobSpec& spec : specs) spec.deadline = sim::DurationPs{1};  // 1 ps SLO
  const ServeReport tight =
      run_server(toy_server(1, Policy::kRoundRobin, 6), specs, suite);
  EXPECT_EQ(tight.deadline_misses, tight.completed);

  for (JobSpec& spec : specs) spec.deadline = 0;  // no SLO
  const ServeReport relaxed =
      run_server(toy_server(1, Policy::kRoundRobin, 6), specs, suite);
  EXPECT_EQ(relaxed.deadline_misses, 0u);
}

/// The runners a suite's make_runner has built and destroyed so far, and
/// how many were already destroyed at each run() call.
struct RunnerCounts {
  std::uint32_t built = 0;
  std::uint32_t destroyed = 0;
  std::vector<std::uint32_t> destroyed_at_run;
};

class CountedRunner final : public apps::JobRunner {
 public:
  CountedRunner(std::unique_ptr<apps::JobRunner> inner, RunnerCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {
    ++counts_.built;
  }
  ~CountedRunner() override { ++counts_.destroyed; }

  const std::string& app_name() const noexcept override {
    return inner_->app_name();
  }
  std::uint64_t num_records() const override { return inner_->num_records(); }
  std::uint64_t input_bytes() const override { return inner_->input_bytes(); }
  sim::Task<> run(cusim::Runtime& runtime,
                  const apps::JobRunConfig& cfg) override {
    counts_.destroyed_at_run.push_back(counts_.destroyed);
    return inner_->run(runtime, cfg);
  }
  sim::Task<> run_cpu(hostsim::HostCpu& cpu,
                      const apps::CpuJobConfig& cfg) override {
    return inner_->run_cpu(cpu, cfg);
  }

 private:
  std::unique_ptr<apps::JobRunner> inner_;
  RunnerCounts& counts_;
};

// A job's runner holds its per-run state (its tables once it has run), so
// it goes when the job settles, not when run_server returns. On one device
// the jobs run one after another: the i-th run starts after i jobs settled,
// and so after their i runners were destroyed.
TEST(ServeServerTest, SettledJobsReleaseTheirRunners) {
  auto suite = make_toy_suite(1, 2'000);
  RunnerCounts counts;
  suite[0].make_runner = [&counts, inner = suite[0].make_runner] {
    return std::unique_ptr<apps::JobRunner>(
        std::make_unique<CountedRunner>(inner(), counts));
  };
  constexpr std::uint32_t kJobs = 6;
  const ServeReport report = run_server(
      toy_server(1, Policy::kRoundRobin, kJobs), toy_workload(kJobs, 1),
      suite);
  EXPECT_EQ(report.completed, kJobs);
  ASSERT_EQ(counts.destroyed_at_run.size(), kJobs);
  for (std::uint32_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(counts.destroyed_at_run[i], i) << "run " << i;
  }
  EXPECT_EQ(counts.built, kJobs);
  EXPECT_EQ(counts.destroyed, kJobs);
}

TEST(ServeServerTest, RunsCleanUnderCheckersWithTwoDevices) {
  // The multi-device analogue of the schemes clean-under-check guard:
  // concurrent engines on distinct devices, each job under a fresh
  // sanitizer, must produce zero violations (a violation throws).
  const auto suite = make_toy_suite(2, 8'000);
  const auto specs = toy_workload(6, 2);
  ServerConfig config = toy_server(2, Policy::kLeastOutstandingBytes, 6);
  config.check = check::CheckOptions::all_enabled();
  const ServeReport report = run_server(config, specs, suite);
  EXPECT_EQ(report.completed, 6u);
}

TEST(ServeServerTest, JobErrorEndsTheRunWithThatError) {
  // skip_data_ready_wait lets the kernel read chunks before they land, so
  // the toy runner's result check throws a std::logic_error: no fault, so
  // nothing recovers it. The run must end with that error, although the
  // fault plane's probe daemon would otherwise re-arm forever.
  const auto suite = make_toy_suite(1, 2'000);
  ServerConfig config = toy_server(1, Policy::kRoundRobin, 8);
  config.fault_spec = "skip_data_ready_wait";
  try {
    run_server(config, toy_workload(2, 1), suite);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "toy app result mismatch at record 0");
  }
}

TEST(ServeServerTest, UnknownAppNameThrowsWithValidNames) {
  const auto suite = make_toy_suite(2, 1'000);
  std::vector<JobSpec> specs(1);
  specs[0].app = "nope";
  try {
    run_server(toy_server(1, Policy::kRoundRobin, 4), specs, suite);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("nope"), std::string::npos);
    EXPECT_NE(message.find("toy0"), std::string::npos);
    EXPECT_NE(message.find("toy1"), std::string::npos);
  }
}

TEST(ServeServerTest, ScrubWithoutIntegrityAndCacheIsRejected) {
  const auto suite = make_toy_suite(1, 1'000);
  const auto specs = toy_workload(1, 1);
  for (const bool integrity : {false, true}) {
    ServerConfig config = toy_server(1, Policy::kRoundRobin, 4);
    config.dur.scrub_period = sim::DurationPs{20'000'000};
    config.dur.scrub_entries = 4;
    config.dur.integrity = integrity;
    config.cache_enabled = !integrity;
    try {
      run_server(config, specs, suite);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("dur.scrub_period"),
                std::string::npos);
    }
  }
}

/// run_server must refuse `config` with a std::invalid_argument naming
/// `field`, before any daemon could re-arm a zero delay at one instant.
void expect_rejected(const ServerConfig& config, const std::string& field) {
  const auto suite = make_toy_suite(2, 1'000);
  try {
    run_server(config, toy_workload(2, 2), suite);
    FAIL() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(ServeServerTest, ZeroProbeIntervalIsRejected) {
  // A fault plane spawns the probe daemon; its spec never fires.
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 4);
  config.fault_spec = "dma_error,nth=1000000";
  config.probe_interval = 0;
  expect_rejected(config, "probe_interval");
}

TEST(ServeServerTest, ZeroProfWindowIsRejected) {
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 4);
  config.prof_window = 0;
  expect_rejected(config, "prof_window");
}

TEST(ServeServerTest, ZeroAutoscalerPeriodIsRejected) {
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 4);
  config.qos.autoscaler.enabled = true;
  config.qos.autoscaler.period = 0;
  expect_rejected(config, "qos.autoscaler.period");
}

TEST(ServeServerTest, SloRuleOnAnUnpublishedMetricIsRejected) {
  // The monitor skips a metric missing from the tick's snapshot, so a typo
  // ("p99ms") would never fire and the run would report 0 violations.
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 4);
  config.slo_spec = "utilization >= 0; p99ms <= 5";
  expect_rejected(config, "p99ms");
}

/// The nearest-rank `percent`-th percentile of `latencies`: the smallest
/// latency with at least `percent`% of them at or below it.
sim::DurationPs nearest_rank(std::vector<sim::DurationPs> latencies,
                             double percent) {
  std::sort(latencies.begin(), latencies.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(percent / 100.0 * static_cast<double>(latencies.size())));
  return latencies[std::max<std::size_t>(rank, 1) - 1];
}

TEST(ServeServerTest, ReportPercentilesAreNearestRank) {
  // One device under WFQ: a burst of 8 jobs at t = 0 queues behind it, so
  // their latencies climb with queue position (the weight-1 batch tenant's
  // behind the latency-critical one's), while the 22 jobs that arrive 200 us
  // apart afterwards find the device idle. The latencies bunch at one
  // service time with a tail of up to eight.
  const auto suite = make_toy_suite(2, 2'000);
  std::vector<JobSpec> specs = toy_workload(30, 2);
  for (JobSpec& spec : specs) {
    spec.tenant = spec.id % 3 == 0 ? 0 : 1;
    if (spec.id >= 8) spec.submit_time = spec.id * sim::microseconds(200);
  }
  ServerConfig config = toy_server(1, Policy::kRoundRobin, 32);
  TenantConfig lc;
  lc.name = "lc";
  lc.slo = SloClass::kLatencyCritical;
  lc.weight = 8;
  TenantConfig batch;
  batch.name = "batch";
  config.qos.tenants = {lc, batch};
  const ServeReport report = run_server(config, specs, suite);
  ASSERT_EQ(report.completed, specs.size());

  const auto expect_nearest_rank = [&](const Outcome& outcome,
                                       std::optional<std::uint32_t> tenant) {
    std::vector<sim::DurationPs> latencies;
    for (const JobRecord& job : report.jobs) {
      if (job.completed && (!tenant || job.spec.tenant == *tenant)) {
        latencies.push_back(job.latency());
      }
    }
    ASSERT_GT(latencies.size(), 5u);
    EXPECT_EQ(outcome.latency_p50, nearest_rank(latencies, 50));
    EXPECT_EQ(outcome.latency_p95, nearest_rank(latencies, 95));
    EXPECT_EQ(outcome.latency_p99, nearest_rank(latencies, 99));
  };
  expect_nearest_rank(report, std::nullopt);
  ASSERT_EQ(report.tenants.size(), 2u);
  for (std::uint32_t t = 0; t < 2; ++t) {
    SCOPED_TRACE(report.tenants[t].name);
    expect_nearest_rank(report.tenants[t], t);
  }
}

TEST(ServeServerTest, ExportsMetricsGauges) {
  const auto suite = make_toy_suite(2, 4'000);
  const auto specs = toy_workload(4, 2);
  obs::MetricsRegistry registry;
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 4);
  config.metrics = &registry;
  run_server(config, specs, suite);

  const std::string prefix = "serve.round-robin.devices2";
  ASSERT_NE(registry.find_gauge(prefix + ".latency_p50_ms"), nullptr);
  ASSERT_NE(registry.find_gauge(prefix + ".latency_p95_ms"), nullptr);
  ASSERT_NE(registry.find_gauge(prefix + ".latency_p99_ms"), nullptr);
  ASSERT_NE(registry.find_gauge(prefix + ".throughput_jobs_per_s"), nullptr);
  ASSERT_NE(registry.find_gauge(prefix + ".dev0.utilization"), nullptr);
  ASSERT_NE(registry.find_gauge(prefix + ".dev1.utilization"), nullptr);
  EXPECT_GT(registry.find_gauge(prefix + ".completed")->value(), 0.0);
  EXPECT_GT(registry.find_gauge(prefix + ".dev0.utilization")->value(), 0.0);
}

TEST(ServeServerTest, TracerGetsPerDeviceEngineRowsAndServeSpans) {
  const auto suite = make_toy_suite(2, 4'000);
  const auto specs = toy_workload(4, 2);
  obs::Tracer tracer;
  ServerConfig config = toy_server(2, Policy::kRoundRobin, 4);
  config.tracer = &tracer;
  run_server(config, specs, suite);

  bool saw_dev0_engine = false;
  bool saw_dev1_engine = false;
  bool saw_serve_span = false;
  for (const obs::SpanEvent& span : tracer.spans()) {
    const std::string_view process = tracer.process_name(span.track.pid);
    if (process.rfind("dev0 engine block ", 0) == 0) saw_dev0_engine = true;
    if (process.rfind("dev1 engine block ", 0) == 0) saw_dev1_engine = true;
    if (process == "serve") saw_serve_span = true;
  }
  EXPECT_TRUE(saw_dev0_engine);
  EXPECT_TRUE(saw_dev1_engine);
  EXPECT_TRUE(saw_serve_span);
}

}  // namespace
}  // namespace bigk::serve
