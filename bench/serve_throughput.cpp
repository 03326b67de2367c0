// bigkserve throughput/latency evaluation: multi-GPU job scheduling over a
// shared host CPU. The scenarios (serve/mixed, serve/reuse, serve/recover,
// serve/shed, serve/spill, serve/dur) are defined in serve_scenarios.hpp.
//
// --fault <spec> additionally installs the spec on every scenario's pool.
//
// Usage: serve_throughput [--devices N] [--jobs N] [--policy P]
//                         [--cache] [--cache-bytes N]
//                         [--fault SPEC] [--fault-seed N]
//                         [--prof-window US] [--slo RULES]
//                         [--metrics-json=out.json] [--trace-out=trace.json]
#include <cstdio>
#include <map>
#include <string>

#include "common.hpp"
#include "serve_scenarios.hpp"

namespace {

namespace serve = bigk::serve;

void print_report_line(const std::string& name,
                       const serve::ServeReport& report) {
  std::printf(
      "  %-26s jobs=%3llu done=%3llu dropped=%2llu rej=%3llu warm=%3llu  "
      "mks=%9.3f ms  thr=%8.1f job/s  p50=%8.3f p95=%8.3f p99=%8.3f ms\n",
      name.c_str(), static_cast<unsigned long long>(report.jobs.size()),
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.dropped),
      static_cast<unsigned long long>(report.rejections),
      static_cast<unsigned long long>(report.warm_hits),
      static_cast<double>(report.makespan) / 1e9,
      report.throughput_jobs_per_s,
      static_cast<double>(report.latency_p50) / 1e9,
      static_cast<double>(report.latency_p95) / 1e9,
      static_cast<double>(report.latency_p99) / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("serve_throughput", &argc, argv);
  const bigk::bench::ServeFlags& flags = harness.serve_flags;
  bigk::bench::ThroughputScenarios scenarios(harness.ctx, flags);

  std::map<std::string, serve::ServeReport> reports;
  for (const std::string& name : scenarios.names()) {
    bigk::bench::register_sim_benchmark(name, &harness.results, [&, name] {
      reports[name] = scenarios.build(name).run();
      return bigk::bench::to_run_metrics(reports[name]);
    });
  }

  const int rc = bigk::bench::run_benchmarks(argc, argv);
  if (rc != 0) return rc;
  const bigk::bench::ThroughputHeadlines headlines =
      scenarios.export_headlines(reports, harness.metrics);
  if (!harness.write_outputs()) return 1;

  bigk::bench::print_header(
      "bigkserve: multi-GPU serving throughput / latency", harness.ctx);
  std::printf("devices=%u jobs=%u policy=%s\n", flags.devices, flags.jobs,
              serve::policy_name(serve::policy_from_name(flags.policy)));
  for (const auto& [name, report] : reports) {
    print_report_line(name.substr(name.find('/') + 1), report);
  }
  if (flags.devices > 1 && headlines.scaling > 0.0) {
    std::printf("\nscaling: %u devices deliver %.2fx the single-device job "
                "throughput\n", flags.devices, headlines.scaling);
  }
  const auto rr = reports.find("serve/reuse/round-robin");
  const auto aff = reports.find("serve/reuse/app-affinity");
  if (rr != reports.end() && aff != reports.end() &&
      aff->second.throughput_jobs_per_s > 0.0 &&
      rr->second.throughput_jobs_per_s > 0.0) {
    std::printf("affinity: %.2fx round-robin throughput on the reuse-heavy "
                "mix (%llu warm hits vs %llu)\n",
                aff->second.throughput_jobs_per_s /
                    rr->second.throughput_jobs_per_s,
                static_cast<unsigned long long>(aff->second.warm_hits),
                static_cast<unsigned long long>(rr->second.warm_hits));
  }
  if (const auto it = reports.find("serve/recover"); it != reports.end()) {
    const serve::ServeReport& recover = it->second;
    std::printf("recover: %llu injected / %llu recovered, %llu quarantines, "
                "%llu reinstatements, %llu redispatches, %llu failed jobs "
                "across %zu devices\n",
                static_cast<unsigned long long>(recover.fault_injected),
                static_cast<unsigned long long>(recover.fault_recovered),
                static_cast<unsigned long long>(recover.quarantines),
                static_cast<unsigned long long>(recover.reinstatements),
                static_cast<unsigned long long>(recover.redispatches),
                static_cast<unsigned long long>(recover.failed_jobs),
                recover.devices.size());
  }
  if (const auto it = reports.find("serve/spill"); it != reports.end()) {
    const serve::ServeReport& spill = it->second;
    std::printf("spill: %llu of %llu jobs spilled to host cores "
                "(%llu cpu-completed, %llu failed) once the single device "
                "backed up past depth 2\n",
                static_cast<unsigned long long>(spill.spills),
                static_cast<unsigned long long>(spill.jobs.size()),
                static_cast<unsigned long long>(spill.cpu_completed),
                static_cast<unsigned long long>(spill.failed_jobs));
  }
  if (const auto it = reports.find("serve/dur/integrity");
      it != reports.end()) {
    const serve::ServeReport& dur = it->second;
    std::printf("integrity: %llu bit flips injected, %llu detected / %llu "
                "repaired across %llu verifications (%llu scrubbed, %llu "
                "scrub evictions), %llu failed jobs\n",
                static_cast<unsigned long long>(dur.bitflips_injected),
                static_cast<unsigned long long>(dur.integrity_detected),
                static_cast<unsigned long long>(dur.integrity_repaired),
                static_cast<unsigned long long>(dur.integrity_verified),
                static_cast<unsigned long long>(dur.scrub_checked),
                static_cast<unsigned long long>(dur.scrub_evictions),
                static_cast<unsigned long long>(dur.failed_jobs));
  }
  if (headlines.resume_speedup > 0.0) {
    const serve::ServeReport& resume = reports.at("serve/dur/resume");
    const serve::ServeReport& restart = reports.at("serve/dur/restart");
    std::printf("resume: %llu jobs resumed from checkpoints replaying %llu "
                "windows (%.3f ms) vs %llu replayed from zero (%.3f ms) — "
                "%.2fx the restart goodput\n",
                static_cast<unsigned long long>(resume.resumed),
                static_cast<unsigned long long>(resume.chunks_replayed),
                static_cast<double>(resume.makespan) / 1e9,
                static_cast<unsigned long long>(restart.chunks_replayed),
                static_cast<double>(restart.makespan) / 1e9,
                headlines.resume_speedup);
  }
  if (const auto it = reports.find("serve/reuse/app-affinity+cache");
      it != reports.end()) {
    const serve::ServeReport& cached = it->second;
    std::printf("cache: hit rate %.1f%% (%llu hits / %llu misses), "
                "%.2f MB PCIe saved; h2d %.2f MB with cache vs %.2f MB "
                "without\n",
                cached.cache_hit_rate * 100.0,
                static_cast<unsigned long long>(cached.cache_hits),
                static_cast<unsigned long long>(cached.cache_misses),
                static_cast<double>(cached.cache_bytes_saved) / 1e6,
                static_cast<double>(headlines.h2d_cache) / 1e6,
                static_cast<double>(headlines.h2d_nocache) / 1e6);
  }
  return 0;
}
