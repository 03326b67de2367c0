// The serve benches' contracts, one test per scenario or contract pair.
// Each test builds its scenarios from the benches' own catalogue
// (bench/serve_scenarios.hpp) with the flags of the gated runs —
// `serve_throughput --devices 2 --jobs 8 --cache` and
// `serve_load --devices 2 --jobs 16 --offered-load 0.5,1.5,2.5` — runs them
// at BIGK_SCALE (ctest sets 0.001), and checks their ServeReports and the
// gauges they export, as the bench's --metrics-json document carries them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "obs/stage.hpp"
#include "serve_scenarios.hpp"

namespace bigk::bench {
namespace {

constexpr double kThroughputJobs = 8;
constexpr double kDurJobs = 4;  // the crash scenarios' fixed K-means jobs
constexpr double kStages = static_cast<double>(obs::kStageCount);

/// `serve_throughput --devices 2 --jobs 8 --cache`.
ServeFlags throughput_flags() {
  ServeFlags flags;
  flags.devices = 2;
  flags.jobs = 8;
  flags.cache = true;
  return flags;
}

/// `serve_load --devices 2 --jobs 16 --offered-load 0.5,1.5,2.5`.
ServeFlags load_flags() {
  ServeFlags flags;
  flags.devices = 2;
  flags.jobs = 16;
  flags.offered_load = {0.5, 1.5, 2.5};
  return flags;
}

/// A Context at BIGK_SCALE whose scenarios export into `registry_`, and the
/// reports of the scenarios a test ran, by result name.
class ServeContract : public ::testing::Test {
 protected:
  ServeContract() : ctx_(Context::from_env()) {
    ctx_.scheme_config.metrics = &registry_;
  }

  /// The instrument's value; a missing one fails the test and reads NaN,
  /// which fails every comparison after it.
  template <class Instrument>
  static double value(const Instrument* found, const std::string& name) {
    if (found != nullptr) return static_cast<double>(found->value());
    ADD_FAILURE() << "missing " << name;
    return std::numeric_limits<double>::quiet_NaN();
  }
  double gauge(const std::string& name) const {
    return value(registry_.find_gauge(name), name);
  }
  double counter(const std::string& name) const {
    return value(registry_.find_counter(name), name);
  }

  void expect_gauges(const std::string& prefix,
                     std::initializer_list<const char*> suffixes) const {
    for (const char* suffix : suffixes) gauge(prefix + "." + suffix);
  }

  /// Runs `scenario`, keeps its report under the scenario's name, and
  /// checks that the registry carries the report under its prefix.
  const serve::ServeReport& run(const ServeScenario& scenario) {
    const serve::ServeReport& report = reports_[scenario.name] =
        scenario.run();
    EXPECT_EQ(gauge(scenario.config.metrics_prefix + ".completed"),
              static_cast<double>(report.completed));
    return report;
  }

  /// The JobQueue admission instrumentation: a final depth of 0 (every job
  /// settled) and the rejected-by-cause counters summing to the run's
  /// rejections.
  void expect_queue_settled(const std::string& prefix) const {
    SCOPED_TRACE(prefix);
    EXPECT_EQ(gauge(prefix + ".queue.depth"), 0.0);
    double rejected = 0.0;
    for (const char* cause : {"queue_full", "no_device", "tenant_quota"}) {
      rejected += counter(prefix + ".queue.rejected." + cause);
    }
    EXPECT_EQ(rejected, gauge(prefix + ".rejections"));
  }

  obs::MetricsRegistry registry_;
  Context ctx_;
  std::map<std::string, serve::ServeReport> reports_;
};

class ServeThroughputContract : public ServeContract {
 protected:
  /// Runs the named scenario and checks the gauges every serve_throughput
  /// prefix carries.
  const serve::ServeReport& run(const std::string& name) {
    const ServeScenario scenario = scenarios_.build(name);
    const serve::ServeReport& report = ServeContract::run(scenario);
    expect_schema(scenario.config.metrics_prefix, scenario.config.devices);
    return report;
  }

  void export_headlines() {
    scenarios_.export_headlines(reports_, registry_);
  }

  void expect_schema(const std::string& prefix,
                     std::uint32_t devices) const {
    SCOPED_TRACE(prefix);
    expect_gauges(prefix,
                  {"latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
                   "throughput_jobs_per_s", "completed", "dropped",
                   "rejections", "peak_queue_depth", "prof.bottleneck_stage",
                   "prof.overlap_efficiency", "prof.windows",
                   "prof.bottleneck_flips", "breakdown.admission_ms",
                   "breakdown.queue_ms", "breakdown.staging_ms",
                   "breakdown.execution_ms", "breakdown.writeback_ms",
                   "breakdown.total_ms", "slo.rules", "slo.violations",
                   "dur.verified", "dur.detected", "dur.repaired",
                   "dur.injected", "dur.scrub_checked", "dur.scrub_evictions",
                   "dur.resumed", "dur.chunks_replayed", "dur.crashed"});
    expect_queue_settled(prefix);

    const double p50 = gauge(prefix + ".latency_p50_ms");
    const double p95 = gauge(prefix + ".latency_p95_ms");
    const double p99 = gauge(prefix + ".latency_p99_ms");
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);

    for (std::uint32_t d = 0; d < devices; ++d) {
      const std::string dev = prefix + ".dev" + std::to_string(d);
      const double utilization = gauge(dev + ".utilization");
      EXPECT_GT(utilization, 0.0) << dev;
      EXPECT_LE(utilization, 1.0) << dev;
      const double bottleneck = gauge(dev + ".bottleneck_stage");
      EXPECT_GE(bottleneck, 0.0) << dev;
      EXPECT_LT(bottleneck, kStages) << dev;
    }
    EXPECT_EQ(registry_.find_gauge(prefix + ".dev" + std::to_string(devices) +
                                   ".utilization"),
              nullptr)
        << "exports more devices than the scenario ran with";

    // bigkprof attribution plane: pool bottleneck, overlap, windows.
    const double bottleneck = gauge(prefix + ".prof.bottleneck_stage");
    EXPECT_GE(bottleneck, 0.0);
    EXPECT_LT(bottleneck, kStages);
    const double overlap = gauge(prefix + ".prof.overlap_efficiency");
    EXPECT_GE(overlap, 0.0);
    EXPECT_LT(overlap, 1.0);
    EXPECT_GE(gauge(prefix + ".prof.windows"), 1.0);

    // The queueing-delay breakdown: five parts partition the mean latency.
    double parts = 0.0;
    for (const char* part :
         {"admission", "queue", "staging", "execution", "writeback"}) {
      parts += gauge(prefix + ".breakdown." + part + "_ms");
    }
    const double total = gauge(prefix + ".breakdown.total_ms");
    EXPECT_GT(total, 0.0);
    EXPECT_NEAR(parts, total, std::max(1e-6, total * 1e-6));
    EXPECT_GT(gauge(prefix + ".breakdown.execution_ms"), 0.0);

    // No --slo spec: the gauges exist but stay 0/0.
    EXPECT_EQ(gauge(prefix + ".slo.rules"), 0.0);
    EXPECT_EQ(gauge(prefix + ".slo.violations"), 0.0);
  }

  ThroughputScenarios scenarios_{ctx_, throughput_flags()};
};

TEST_F(ServeThroughputContract, PoolScalesOverOneDevice) {
  run("serve/mixed/devices1");
  run("serve/mixed/devices2");
  export_headlines();
  EXPECT_GT(gauge("serve.scaling.devices2_vs_1"), 0.0);
  EXPECT_EQ(gauge("serve.mixed.devices2.completed"), kThroughputJobs);
}

TEST_F(ServeThroughputContract, RoundRobinReuse) {
  run("serve/reuse/round-robin");
}

// bigkcache A/B over the reuse mix: the cache must actually engage and must
// strictly reduce the PCIe traffic against the no-cache run.
TEST_F(ServeThroughputContract, CacheCutsReuseTraffic) {
  run("serve/reuse/app-affinity");
  run("serve/reuse/app-affinity+cache");
  export_headlines();
  const double hit_rate = gauge("serve.cache.hit_rate");
  EXPECT_GT(hit_rate, 0.0);
  EXPECT_LE(hit_rate, 1.0);
  EXPECT_GT(gauge("serve.cache.hits"), 0.0);
  EXPECT_GT(gauge("serve.cache.bytes_saved"), 0.0);
  const double h2d_cache = gauge("serve.cache.h2d_bytes");
  EXPECT_GT(h2d_cache, 0.0);
  EXPECT_LT(h2d_cache, gauge("serve.nocache.h2d_bytes"));
}

// bigkfault recovery: the device_lost injection must fire, every injected
// fault must be recovered, the device must round-trip through quarantine
// and reinstatement, and no job may fail because of the outage.
TEST_F(ServeThroughputContract, RecoverFinishesEveryJob) {
  const serve::ServeReport& report = run("serve/recover");
  EXPECT_EQ(report.devices.size(), 4u);
  const double injected = gauge("serve.recover.fault.injected");
  EXPECT_GT(injected, 0.0);
  EXPECT_EQ(gauge("serve.recover.fault.recovered"), injected);
  EXPECT_EQ(gauge("serve.recover.failed_jobs"), 0.0);
  EXPECT_EQ(gauge("serve.recover.completed"), kThroughputJobs);
  EXPECT_GE(gauge("serve.recover.quarantines"), 1.0);
  EXPECT_GE(gauge("serve.recover.reinstatements"), 1.0);
  EXPECT_GE(gauge("serve.recover.redispatches"), 1.0);
}

TEST_F(ServeThroughputContract, Shed) { run("serve/shed"); }

// bigkhetero spill-over: the single-device pool saturates under the batch
// burst, so jobs past the spill depth must run on the host cores, and every
// one of them must finish: zero dropped, zero failed.
TEST_F(ServeThroughputContract, SpillCompletesEveryJob) {
  run("serve/spill");
  const double spills = gauge("serve.spill.hetero.spills");
  EXPECT_GT(spills, 0.0);
  EXPECT_EQ(gauge("serve.spill.hetero.cpu_completed"), spills);
  EXPECT_EQ(gauge("serve.spill.failed_jobs"), 0.0);
  EXPECT_EQ(gauge("serve.spill.dropped"), 0.0);
  EXPECT_EQ(gauge("serve.spill.completed"), kThroughputJobs);
}

// bigkdur integrity: the bit-flip specs must fire, and with the integrity
// plane armed every injected flip must be detected — at the write-back
// digest check, on the next cache hit, or by the scrub daemon — and
// repaired without failing a job.
TEST_F(ServeThroughputContract, IntegrityDetectsEveryFlip) {
  run("serve/dur/integrity");
  const double flips = gauge("serve.dur.integrity.dur.injected");
  EXPECT_GT(flips, 0.0);
  EXPECT_EQ(gauge("serve.dur.integrity.dur.detected"), flips);
  EXPECT_GT(gauge("serve.dur.integrity.dur.verified"), 0.0);
  EXPECT_GT(gauge("serve.dur.integrity.dur.scrub_checked"), 0.0);
  EXPECT_EQ(gauge("serve.dur.integrity.failed_jobs"), 0.0);
  EXPECT_EQ(gauge("serve.dur.integrity.completed"), kThroughputJobs);
}

// bigkdur crash/restart A/B: identical crash, identical journal. The resume
// run (output storage survived) must resume jobs from their checkpoints
// without replaying a journaled window; the restart run (storage lost,
// digests mismatch) must resume nothing and redo journaled work; and
// skipping that work must strictly pay off.
TEST_F(ServeThroughputContract, ResumeBeatsRestart) {
  run("serve/dur/resume");
  run("serve/dur/restart");
  export_headlines();
  EXPECT_GT(gauge("serve.dur.resume.dur.resumed"), 0.0);
  EXPECT_EQ(gauge("serve.dur.resume.dur.chunks_replayed"), 0.0);
  EXPECT_EQ(gauge("serve.dur.restart.dur.resumed"), 0.0);
  EXPECT_GT(gauge("serve.dur.restart.dur.chunks_replayed"), 0.0);
  for (const std::string scenario : {"resume", "restart"}) {
    EXPECT_EQ(gauge("serve.dur." + scenario + ".completed"), kDurJobs);
    EXPECT_EQ(gauge("serve.dur." + scenario + ".failed_jobs"), 0.0);
  }
  EXPECT_GT(gauge("serve.dur.resume_speedup"), 1.0);
}

/// The file ServeLoadContract.Calibrate writes the pool's capacity C into
/// and the other serve_load contracts read it from; empty when unset.
std::string capacity_file() {
  const char* path = std::getenv("BIGK_SERVE_CAPACITY");
  return path != nullptr ? path : "";
}

class ServeLoadContract : public ServeContract {
 protected:
  /// The pool's capacity C: ServeLoadContract.Calibrate's, or, without a
  /// capacity file, from a load/calibrate run that exports nothing.
  double capacity() {
    const std::string path = capacity_file();
    if (path.empty()) return scenarios_.measure_capacity();
    std::ifstream in(path);
    double c = 0.0;
    in >> c;
    EXPECT_TRUE(in && c > 0.0) << "no capacity in " << path;
    return c;
  }

  /// Runs the named scenario at C and checks the QoS gauges every
  /// serve_load prefix carries.
  const serve::ServeReport& run(const std::string& name, double capacity) {
    const ServeScenario scenario = scenarios_.build(name, capacity);
    const serve::ServeReport& report = ServeContract::run(scenario);
    expect_schema(scenario.config.metrics_prefix);
    return report;
  }

  void expect_schema(const std::string& prefix) const {
    SCOPED_TRACE(prefix);
    expect_gauges(prefix,
                  {"load.offered_jobs_per_s", "load.goodput_jobs_per_s",
                   "load.slo_attained", "fairness.jain",
                   "autoscaler.scale_ups", "autoscaler.scale_downs",
                   "autoscaler.min_active", "autoscaler.max_active",
                   "autoscaler.final_active", "rejections.tenant_quota"});
    expect_queue_settled(prefix);
    const double jain = gauge(prefix + ".fairness.jain");
    EXPECT_GE(jain, 0.0);
    EXPECT_LE(jain, 1.0);
  }

  /// Runs the FIFO and WFQ sweep points at `pct`% of C, checks the lc/batch
  /// tenant gauges of both, and returns the LC tenant's SLO attainment under
  /// FIFO and under WFQ.
  std::pair<double, double> run_sweep_point(const std::string& pct) {
    const double c = capacity();
    double attainment[2] = {};
    for (int wfq = 0; wfq < 2; ++wfq) {
      const std::string discipline = wfq != 0 ? "wfq" : "fifo";
      run("load/sweep/x" + pct + "/" + discipline, c);
      const std::string prefix = "load.sweep.x" + pct + "." + discipline;
      SCOPED_TRACE(prefix);
      for (const char* tenant : {"lc", "batch"}) {
        expect_gauges(prefix + ".tenant." + tenant,
                      {"weight", "submitted", "completed", "shed",
                       "goodput_jobs_per_s", "attainment", "p99_ms"});
      }
      attainment[wfq] = gauge(prefix + ".tenant.lc.attainment");
      EXPECT_GE(attainment[wfq], 0.0);
      EXPECT_LE(attainment[wfq], 1.0);
    }
    return {attainment[0], attainment[1]};
  }

  LoadScenarios scenarios_{ctx_, load_flags()};
};

TEST_F(ServeLoadContract, Calibrate) {
  const ServeScenario calibrate = scenarios_.calibrate();
  const double c = LoadScenarios::capacity_of(ServeContract::run(calibrate));
  expect_schema(calibrate.config.metrics_prefix);
  scenarios_.export_headlines(reports_, c, registry_);
  EXPECT_GT(gauge("load.capacity_jobs_per_s"), 0.0);
  // max_digits10 digits read back as the same double.
  if (const std::string path = capacity_file(); !path.empty()) {
    std::ofstream out(path);
    out << std::setprecision(std::numeric_limits<double>::max_digits10) << c
        << '\n';
    EXPECT_TRUE(out.good()) << "cannot write " << path;
  }
}

TEST_F(ServeLoadContract, SweepAtHalfCapacity) { run_sweep_point("50"); }

// The QoS headline: past saturation (both points above 100% offered load),
// WFQ must strictly beat FIFO on the latency-critical tenant's SLO
// attainment.
TEST_F(ServeLoadContract, WfqBeatsFifoAt150PercentLoad) {
  const auto [fifo, wfq] = run_sweep_point("150");
  EXPECT_GT(wfq, fifo);
}

TEST_F(ServeLoadContract, WfqBeatsFifoAt250PercentLoad) {
  const auto [fifo, wfq] = run_sweep_point("250");
  EXPECT_GT(wfq, fifo);
}

// Fairness: four equal tenants at 1.5x capacity stay near-even.
TEST_F(ServeLoadContract, BalancedTenantsStayFair) {
  run("load/balanced/wfq", capacity());
  EXPECT_GE(gauge("load.balanced.fairness.jain"), 0.9);
}

// The autoscaler must react to the seeded MMPP burst.
TEST_F(ServeLoadContract, AutoscalerGrowsOnBurst) {
  run("load/autoscale", capacity());
  EXPECT_GE(gauge("load.autoscale.autoscaler.scale_ups"), 1.0);
  EXPECT_GT(gauge("load.autoscale.autoscaler.max_active"),
            gauge("load.autoscale.autoscaler.min_active"));
}

TEST_F(ServeLoadContract, ClosedLoop) { run("load/closed", capacity()); }

}  // namespace
}  // namespace bigk::bench
