// bigkload evaluation: open-loop workload generation + multi-tenant QoS
// serving (goodput, SLO attainment, fairness, autoscaling). The scenarios
// (load/calibrate, load/sweep, load/balanced, load/autoscale, load/closed)
// are defined in serve_scenarios.hpp.
//
// Every scenario after load/calibrate offers a multiple of the pool's
// capacity C, which load/calibrate measures. A --benchmark_filter that
// leaves load/calibrate out still gets C: it is measured once, exporting
// nothing, before the first scenario that needs it.
//
// Usage: serve_load [--devices N] [--jobs N] [--policy P]
//                   [--arrival SPEC] [--tenants SPEC] [--duration US]
//                   [--offered-load 0.5,1.5,2.5]
//                   [--fault SPEC] [--fault-seed N] [--prof-window US]
//                   [--metrics-json=out.json] [--trace-out=trace.json]
#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "common.hpp"
#include "serve_scenarios.hpp"

namespace {

using bigk::bench::LoadScenarios;
namespace serve = bigk::serve;

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
  bigk::bench::Harness harness("serve_load", &argc, argv);
  LoadScenarios scenarios(harness.ctx, harness.serve_flags);

  std::map<std::string, serve::ServeReport> reports;
  std::optional<double> capacity;
  bigk::bench::register_sim_benchmark(
      LoadScenarios::kCalibrate, &harness.results, [&] {
        const serve::ServeReport& report =
            reports[LoadScenarios::kCalibrate] = scenarios.calibrate().run();
        capacity = LoadScenarios::capacity_of(report);
        return bigk::bench::to_run_metrics(report);
      });
  const auto calibrated = [&] {
    if (!capacity.has_value()) capacity = scenarios.measure_capacity();
    return *capacity;
  };
  for (const std::string& name : scenarios.names()) {
    bigk::bench::register_sim_benchmark(name, &harness.results, [&, name] {
      reports[name] = scenarios.build(name, calibrated()).run();
      return bigk::bench::to_run_metrics(reports[name]);
    });
  }

  const int rc = bigk::bench::run_benchmarks(argc, argv);
  if (rc != 0) return rc;
  scenarios.export_headlines(reports, capacity.value_or(0.0),
                             harness.metrics);
  if (!harness.write_outputs()) return 1;

  bigk::bench::print_header(
      "bigkload: open-loop generation + multi-tenant QoS serving",
      harness.ctx);
  std::printf("devices=%u jobs=%u policy=%s capacity=%.0f jobs/s\n",
              scenarios.devices(), harness.serve_flags.jobs,
              serve::policy_name(
                  serve::policy_from_name(harness.serve_flags.policy)),
              capacity.value_or(0.0));
  for (const auto& [name, report] : reports) {
    print_report_line(name.substr(name.find('/') + 1), report);
  }
  if (const auto it = reports.find("load/autoscale"); it != reports.end()) {
    const serve::ServeReport& autoscale = it->second;
    std::printf("\nautoscale: %llu scale-ups / %llu scale-downs, active "
                "devices [%u..%u], final %u\n",
                static_cast<unsigned long long>(autoscale.scale_ups),
                static_cast<unsigned long long>(autoscale.scale_downs),
                autoscale.min_active_devices, autoscale.max_active_devices,
                autoscale.final_active_devices);
  }
  return 0;
}
