// bigkload evaluation: open-loop workload generation + multi-tenant QoS
// serving (goodput, SLO attainment, fairness, autoscaling).
//
// Scenarios (all deterministic):
//   load/calibrate          batch run measuring the pool's capacity C
//                           (jobs/s); every later scenario's offered load is
//                           a multiple of it
//   load/sweep/x<pct>/fifo  open-loop Poisson arrivals at <pct>% of C against
//   load/sweep/x<pct>/wfq   a latency-critical tenant (weight 8, 25% share,
//                           deadline) + a batch tenant (weight 1, 75% share),
//                           under FIFO vs weighted-fair ordering — the
//                           headline A/B: past saturation WFQ protects the
//                           LC tenant's SLO attainment, FIFO does not
//   load/balanced/wfq       four equal tenants at 1.5x C: the Jain fairness
//                           index over per-tenant goodput must stay high
//   load/autoscale          MMPP calm/burst arrivals against an autoscaled
//                           pool (min_active=1): the device count must grow
//                           on the burst and shrink after it
//   load/closed             closed-loop variant: per-client chains paced by
//                           tenant think time instead of stamped arrivals
//
// --arrival overrides the arrival process (rate is still scaled to the
// multiplier times C), --tenants replaces the sweep's default tenant mix,
// --duration fixes the workload window, --offered-load picks the sweep
// multipliers, and --fault installs a fault plane on every scenario's pool.
//
// Usage: serve_load [--devices N] [--jobs N] [--policy P]
//                   [--arrival SPEC] [--tenants SPEC] [--duration US]
//                   [--offered-load 0.5,1.5,2.5]
//                   [--fault SPEC] [--fault-seed N] [--prof-window US]
//                   [--metrics-json=out.json] [--trace-out=trace.json]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "load/arrival.hpp"
#include "load/generator.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"

namespace {

using bigk::bench::Harness;
using bigk::bench::or_exit;
using bigk::bench::parse_positive;
namespace load = bigk::load;
namespace serve = bigk::serve;
namespace schemes = bigk::schemes;
namespace sim = bigk::sim;

schemes::RunMetrics to_run_metrics(const serve::ServeReport& report) {
  schemes::RunMetrics metrics;
  metrics.scheme = schemes::Scheme::kBigKernel;
  metrics.total_time = report.makespan;
  for (const serve::DeviceReport& dev : report.devices) {
    metrics.h2d_bytes += dev.h2d_bytes;
    metrics.d2h_bytes += dev.d2h_bytes;
    metrics.kernel_launches += dev.kernel_launches;
  }
  return metrics;
}

/// The --offered-load list: comma-separated positive multipliers, at least
/// one.
std::vector<double> parse_multipliers(std::string_view text) {
  std::vector<double> multipliers;
  for (const std::string_view token : sim::spec::split(text, ',')) {
    multipliers.push_back(parse_positive<double>(token, "--offered-load"));
  }
  if (multipliers.empty()) {
    sim::spec::fail("--offered-load", {}, text, "needs at least one value");
  }
  return multipliers;
}

sim::DurationPs seconds_to_ps(double seconds) {
  return static_cast<sim::DurationPs>(seconds * 1e12 + 0.5);
}

void print_report_line(const std::string& name,
                       const serve::ServeReport& report) {
  std::printf(
      "  %-22s jobs=%4llu done=%4llu shed=%3llu offered=%8.0f/s "
      "goodput=%8.0f/s jain=%.3f active=[%u..%u]\n",
      name.c_str(), static_cast<unsigned long long>(report.jobs.size()),
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.dropped),
      report.offered_jobs_per_s, report.goodput_jobs_per_s,
      report.fairness_jain, report.min_active_devices,
      report.max_active_devices);
  for (const serve::TenantReport& tenant : report.tenants) {
    std::printf("      tenant %-8s (%s, w=%u): sub=%4llu done=%4llu "
                "shed=%3llu attain=%.3f p99=%8.3f ms\n",
                tenant.name.c_str(), serve::slo_class_name(tenant.slo),
                tenant.weight,
                static_cast<unsigned long long>(tenant.submitted),
                static_cast<unsigned long long>(tenant.completed),
                static_cast<unsigned long long>(tenant.dropped),
                tenant.slo_attainment,
                static_cast<double>(tenant.latency_p99) / 1e9);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Harness harness("serve_load", &argc, argv);
  auto& ctx = harness.ctx;
  const std::uint32_t devices = std::max(2u, harness.devices());
  const std::uint32_t jobs = harness.jobs();
  const serve::Policy policy = serve::policy_from_name(harness.policy());
  const std::vector<double> multipliers = or_exit([&] {
    return parse_multipliers(harness.offered_load().empty()
                                 ? "0.5,1.5,2.5"
                                 : harness.offered_load());
  });
  // Base arrival spec; each scenario overrides the rate against the
  // calibrated capacity (the seed stays, so --arrival pins determinism).
  load::ArrivalSpec arrival_base;
  if (!harness.arrival_spec().empty()) {
    arrival_base = load::ArrivalSpec::parse(harness.arrival_spec());
  }

  std::map<std::string, serve::ServeReport> reports;
  const std::vector<std::string> app_names = bigk::apps::app_names(ctx.suite);
  // Measured by load/calibrate (runs first); the sweep lambdas read it at
  // benchmark-execution time.
  double capacity = 0.0;

  const auto base_config = [&](const std::string& prefix) {
    serve::ServerConfig config;
    config.system = ctx.config;
    config.devices = devices;
    config.policy = policy;
    // Deep enough for WFQ to reorder a real backlog; past saturation the
    // small retry budget sheds load instead of queueing without bound.
    config.queue_depth = 16 * devices;
    config.retry_after = sim::DurationPs{50'000'000};  // 50 us
    config.max_retries = 2;
    config.engine = ctx.scheme_config.bigkernel;
    config.engine.num_blocks = 4;
    config.check = ctx.scheme_config.check;
    config.tracer = ctx.scheme_config.tracer;
    config.metrics = ctx.scheme_config.metrics;
    config.metrics_prefix = prefix;
    config.fault_spec = harness.fault_spec();
    config.fault_seed = harness.fault_seed();
    if (harness.prof_window() > 0) config.prof_window = harness.prof_window();
    config.slo_spec = harness.slo_spec();
    return config;
  };

  /// Workload window: --duration, or enough for ~`jobs` arrivals at
  /// capacity.
  const auto window = [&]() {
    return harness.duration() > 0
               ? harness.duration()
               : seconds_to_ps(static_cast<double>(jobs) / capacity);
  };

  const auto run_load = [&](const std::string& key,
                            serve::ServerConfig config,
                            const load::LoadConfig& load_config) {
    const load::LoadPlan plan = load::make_load(load_config, app_names);
    config.qos.tenants = plan.tenants;
    config.qos.offered_window = load_config.duration;
    config.qos.closed_loop = load_config.closed_loop;
    reports[key] = serve::run_server(config, plan.specs, ctx.suite);
    return to_run_metrics(reports[key]);
  };

  // The sweep's default tenant mix: a latency-critical minority with a
  // deadline of three mean pool service times, against a deadline-free batch
  // majority. --tenants replaces it verbatim.
  const auto sweep_tenants = [&]() {
    if (!harness.tenants_spec().empty()) {
      return load::parse_tenants(harness.tenants_spec());
    }
    load::TenantSpec lc;
    lc.qos.name = "lc";
    lc.qos.slo = serve::SloClass::kLatencyCritical;
    lc.qos.weight = 8;
    lc.qos.deadline =
        seconds_to_ps(3.0 * static_cast<double>(devices) / capacity);
    lc.share = 0.25;
    lc.clients = 64;
    load::TenantSpec batch;
    batch.qos.name = "batch";
    batch.qos.slo = serve::SloClass::kBatch;
    batch.qos.weight = 1;
    batch.share = 0.75;
    batch.clients = 64;
    return std::vector<load::TenantSpec>{lc, batch};
  };

  // --- load/calibrate: the pool's capacity on a batch workload -------------
  bigk::bench::register_sim_benchmark(
      "load/calibrate", &harness.results, [&] {
        serve::ServerConfig config = base_config("load.calibrate");
        config.queue_depth = devices;  // late-bound placement, like serve/
        config.max_retries = 100'000;
        serve::WorkloadConfig batch;
        batch.num_jobs = std::max(jobs, 4 * devices);
        batch.seed = 2014;
        batch.mean_gap = 0;
        const auto specs = serve::make_workload(app_names, batch);
        reports["calibrate"] = serve::run_server(config, specs, ctx.suite);
        capacity = reports["calibrate"].throughput_jobs_per_s;
        if (capacity <= 0.0) capacity = 1000.0;  // degenerate-run fallback
        return to_run_metrics(reports["calibrate"]);
      });

  // --- load/sweep: FIFO vs WFQ at each offered-load multiplier -------------
  for (const double multiplier : multipliers) {
    const int pct = static_cast<int>(multiplier * 100.0 + 0.5);
    for (const serve::Discipline discipline :
         {serve::Discipline::kFifo, serve::Discipline::kWfq}) {
      const std::string key = "sweep/x" + std::to_string(pct) + "/" +
                              serve::discipline_name(discipline);
      bigk::bench::register_sim_benchmark(
          "load/" + key, &harness.results, [&, key, multiplier, discipline] {
            serve::ServerConfig config =
                base_config("load." + std::string("sweep.x") +
                            std::to_string(static_cast<int>(
                                multiplier * 100.0 + 0.5)) +
                            "." + serve::discipline_name(discipline));
            config.qos.discipline = discipline;
            load::LoadConfig lc;
            lc.arrival = arrival_base;
            lc.arrival.rate_per_s = multiplier * capacity;
            lc.duration = window();
            lc.tenants = sweep_tenants();
            return run_load(key, config, lc);
          });
    }
  }

  // --- load/balanced: four equal tenants, fairness headline ----------------
  bigk::bench::register_sim_benchmark(
      "load/balanced/wfq", &harness.results, [&] {
        serve::ServerConfig config = base_config("load.balanced");
        load::LoadConfig lc;
        lc.arrival = arrival_base;
        lc.arrival.rate_per_s = 1.5 * capacity;
        lc.duration = window();
        for (int t = 0; t < 4; ++t) {
          load::TenantSpec tenant;
          tenant.qos.name = "t" + std::to_string(t);
          tenant.qos.weight = 1;
          tenant.share = 0.25;
          tenant.clients = 32;
          lc.tenants.push_back(tenant);
        }
        return run_load("balanced/wfq", config, lc);
      });

  // --- load/autoscale: MMPP burst against a min_active=1 pool --------------
  bigk::bench::register_sim_benchmark(
      "load/autoscale", &harness.results, [&] {
        serve::ServerConfig config = base_config("load.autoscale");
        config.qos.autoscaler.enabled = true;
        config.qos.autoscaler.min_active = 1;
        config.qos.autoscaler.period = sim::DurationPs{50'000'000};  // 50 us
        config.qos.autoscaler.up_queue_depth = 2.0;
        config.qos.autoscaler.cooldown = 1;
        load::LoadConfig lc;
        lc.arrival = arrival_base;
        lc.arrival.kind = load::ArrivalKind::kMmpp;
        lc.arrival.rate_per_s = 0.4 * capacity;
        lc.arrival.burst_rate_per_s = 3.0 * capacity;
        lc.duration = 3 * window();
        load::TenantSpec tenant;
        tenant.qos.name = "all";
        tenant.clients = 64;
        lc.tenants.push_back(tenant);
        return run_load("autoscale", config, lc);
      });

  // --- load/closed: think-time-paced per-client chains ---------------------
  bigk::bench::register_sim_benchmark(
      "load/closed", &harness.results, [&] {
        serve::ServerConfig config = base_config("load.closed");
        load::LoadConfig lc;
        lc.arrival = arrival_base;
        lc.arrival.rate_per_s = capacity;
        lc.duration = window();
        lc.closed_loop = true;
        for (int t = 0; t < 2; ++t) {
          load::TenantSpec tenant;
          tenant.qos.name = "c" + std::to_string(t);
          tenant.qos.think_time = sim::DurationPs{50'000'000};  // 50 us
          tenant.share = 0.5;
          tenant.clients = 32;
          lc.tenants.push_back(tenant);
        }
        return run_load("closed", config, lc);
      });

  const int rc = bigk::bench::run_benchmarks(argc, argv);
  if (rc != 0) return rc;

  // Headline gauges: capacity and, per sweep point, the LC tenant's
  // attainment delta (wfq - fifo).
  harness.metrics.gauge("load.capacity_jobs_per_s").set(capacity);
  for (const double multiplier : multipliers) {
    const int pct = static_cast<int>(multiplier * 100.0 + 0.5);
    const std::string fifo_key = "sweep/x" + std::to_string(pct) + "/fifo";
    const std::string wfq_key = "sweep/x" + std::to_string(pct) + "/wfq";
    if (reports.count(fifo_key) == 0 || reports.count(wfq_key) == 0) continue;
    if (reports[fifo_key].tenants.empty() ||
        reports[wfq_key].tenants.empty()) {
      continue;
    }
    const double delta = reports[wfq_key].tenants[0].slo_attainment -
                         reports[fifo_key].tenants[0].slo_attainment;
    harness.metrics
        .gauge("load.sweep.x" + std::to_string(pct) + ".lc_attainment_delta")
        .set(delta);
  }
  if (!harness.write_outputs()) return 1;

  bigk::bench::print_header(
      "bigkload: open-loop generation + multi-tenant QoS serving", ctx);
  std::printf("devices=%u jobs=%u policy=%s capacity=%.0f jobs/s\n", devices,
              jobs, serve::policy_name(policy), capacity);
  for (const auto& [name, report] : reports) print_report_line(name, report);
  if (reports.count("autoscale") != 0) {
    const serve::ServeReport& autoscale = reports["autoscale"];
    std::printf("\nautoscale: %llu scale-ups / %llu scale-downs, active "
                "devices [%u..%u], final %u\n",
                static_cast<unsigned long long>(autoscale.scale_ups),
                static_cast<unsigned long long>(autoscale.scale_downs),
                autoscale.min_active_devices, autoscale.max_active_devices,
                autoscale.final_active_devices);
  }
  return 0;
}
