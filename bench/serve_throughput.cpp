// bigkserve throughput/latency evaluation: multi-GPU job scheduling over a
// shared host CPU.
//
// Scenarios (all deterministic):
//   serve/mixed/devices1          mixed workload, single device (baseline)
//   serve/mixed/devices<D>        same workload, --devices pool, --policy
//   serve/reuse/round-robin       reuse-heavy mix, affinity-blind placement
//   serve/reuse/app-affinity      same mix, dataset-affinity placement
//   serve/reuse/app-affinity+cache  (--cache) same mix + per-device bigkcache
//                                 chunk cache: repeat jobs skip assembly and
//                                 PCIe transfer for still-resident chunks
//   serve/shed                    saturating burst against a tiny admission
//                                 queue (load shedding / retry-after)
//   serve/spill                   bigkhetero spill-over: the same batch
//                                 burst against one device with co-execution
//                                 enabled — jobs past the spill depth run on
//                                 the host cores instead of queueing
//   serve/recover                 bigkfault availability run: a 4-device pool
//                                 loses device 0 mid-workload (or runs the
//                                 --fault spec instead); the quarantine +
//                                 redispatch + reinstatement path must finish
//                                 every job
//   serve/dur/integrity           bigkdur end-to-end integrity run: the reuse
//                                 mix under silent bit-flip injection on the
//                                 write-back path and resident cache entries,
//                                 with the integrity plane + scrub daemon
//                                 armed — every flip must be detected
//                                 (dur.detected == dur.injected) and repaired
//                                 with zero failed jobs
//   serve/dur/resume              bigkdur crash/restart: four K-means jobs
//                                 run in checkpoint windows over a journal;
//                                 the server crashes at half the clean makespan
//                                 and restarts over the same journal with the
//                                 runners (output storage) surviving — jobs
//                                 resume from their checkpoints, replaying
//                                 nothing
//   serve/dur/restart             same crash, but the restarted server gets
//                                 fresh runners: every journaled checkpoint
//                                 fails digest verification and the jobs
//                                 rerun from record zero (the from-scratch
//                                 control the resume goodput is measured
//                                 against)
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
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common.hpp"
#include "dur/journal.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"

namespace {

using bigk::bench::Harness;
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

/// bigkdur crash/restart support: a JobRunner that forwards to a shared
/// persistent runner. The serve layer builds a fresh runner per job, so the
/// only way output storage (and therefore journal digests) can survive a
/// simulated server crash is for the suite's make_runner to hand out views
/// of runners owned outside the server's lifetime.
class SharedJobRunner final : public bigk::apps::JobRunner {
 public:
  explicit SharedJobRunner(std::shared_ptr<bigk::apps::JobRunner> inner)
      : inner_(std::move(inner)) {}

  const std::string& app_name() const noexcept override {
    return inner_->app_name();
  }
  std::uint64_t num_records() const override { return inner_->num_records(); }
  std::uint64_t input_bytes() const override { return inner_->input_bytes(); }
  sim::Task<> run(bigk::cusim::Runtime& runtime,
                  const bigk::apps::JobRunConfig& cfg) override {
    return inner_->run(runtime, cfg);
  }
  sim::Task<> run_cpu(bigk::hostsim::HostCpu& cpu,
                      const bigk::apps::CpuJobConfig& cfg) override {
    return inner_->run_cpu(cpu, cfg);
  }
  std::uint64_t output_digest(std::uint64_t records_done) override {
    return inner_->output_digest(records_done);
  }

 private:
  std::shared_ptr<bigk::apps::JobRunner> inner_;
};

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
  Harness harness("serve_throughput", &argc, argv);
  auto& ctx = harness.ctx;
  const std::uint32_t devices = harness.devices();
  const std::uint32_t jobs = harness.jobs();
  const serve::Policy policy = serve::policy_from_name(harness.policy());

  std::map<std::string, serve::ServeReport> reports;

  const auto base_config = [&](std::uint32_t device_count,
                               serve::Policy pol,
                               const std::string& prefix) {
    serve::ServerConfig config;
    config.system = ctx.config;
    config.devices = device_count;
    config.policy = pol;
    // Throughput scenarios: a shallow queue (2 jobs per device) keeps
    // placement late-bound — a job is admitted, and placed, only when pool
    // capacity is about to free, so the scheduler works from fresh backlog
    // state instead of freezing the whole mix onto devices at t=0. The
    // retry budget is effectively unlimited: nothing may drop here.
    config.queue_depth = device_count;
    config.retry_after = sim::DurationPs{100'000'000};  // 0.1 ms poll
    config.max_retries = 100'000;
    config.engine = ctx.scheme_config.bigkernel;
    // Few assembly threads per engine: up to `devices` engines share the
    // host's cores, and oversubscribing them would measure host scheduling
    // noise instead of device-pool scaling.
    config.engine.num_blocks = 4;
    config.check = ctx.scheme_config.check;
    config.tracer = ctx.scheme_config.tracer;
    config.metrics = ctx.scheme_config.metrics;
    config.metrics_prefix = prefix;
    // --fault installs the operator's spec on every scenario's pool (empty =
    // no plane; behavior is byte-identical to a fault-free build).
    config.fault_spec = harness.fault_spec();
    config.fault_seed = harness.fault_seed();
    // bigkprof: --prof-window overrides the 100 us default attribution /
    // telemetry window; --slo arms the per-window SLO monitor.
    if (harness.prof_window() > 0) config.prof_window = harness.prof_window();
    config.slo_spec = harness.slo_spec();
    return config;
  };

  const auto run_serve = [&](const std::string& key,
                             serve::ServerConfig config,
                             serve::WorkloadConfig workload,
                             std::vector<std::string> names =
                                 std::vector<std::string>{}) {
    if (names.empty()) names = bigk::apps::app_names(ctx.suite);
    const auto specs = serve::make_workload(names, workload);
    reports[key] = serve::run_server(config, specs, ctx.suite);
    return to_run_metrics(reports[key]);
  };

  serve::WorkloadConfig mixed;
  mixed.num_jobs = jobs;
  mixed.seed = 2014;
  mixed.mean_gap = 0;  // batch arrival: the shallow queue late-binds placement

  bigk::bench::register_sim_benchmark(
      "serve/mixed/devices1", &harness.results, [&, mixed] {
        return run_serve("mixed/devices1",
                         base_config(1, policy, "serve.mixed.devices1"),
                         mixed);
      });
  const std::string pool_key =
      "mixed/devices" + std::to_string(devices);
  if (devices > 1) {
    bigk::bench::register_sim_benchmark(
        "serve/" + pool_key, &harness.results, [&, mixed] {
          return run_serve(pool_key,
                           base_config(devices, policy,
                                       "serve.mixed.devices" +
                                           std::to_string(devices)),
                           mixed);
        });
  }

  // Reuse-heavy mix: drawn from the staging-heavy apps (big mapped inputs,
  // short kernels, similar per-job cost), up to one distinct app per pool
  // device. Affinity placement keeps each app's dataset resident on "its"
  // device and skips the input staging that affinity-blind placement keeps
  // paying on the shared host bus.
  const std::uint32_t reuse_devices = std::max(devices, 2u);
  std::vector<std::string> reuse_apps{"K-means", "Netflix", "DNA Assembly",
                                      "MasterCard Affinity (indexed)"};
  if (reuse_apps.size() > reuse_devices) reuse_apps.resize(reuse_devices);
  serve::WorkloadConfig reuse = mixed;
  reuse.seed = 4242;
  bigk::bench::register_sim_benchmark(
      "serve/reuse/round-robin", &harness.results, [&, reuse, reuse_apps] {
        return run_serve("reuse/round-robin",
                         base_config(reuse_devices, serve::Policy::kRoundRobin,
                                     "serve.reuse.round-robin"),
                         reuse, reuse_apps);
      });
  bigk::bench::register_sim_benchmark(
      "serve/reuse/app-affinity", &harness.results, [&, reuse, reuse_apps] {
        return run_serve("reuse/app-affinity",
                         base_config(reuse_devices,
                                     serve::Policy::kAppAffinity,
                                     "serve.reuse.app-affinity"),
                         reuse, reuse_apps);
      });
  if (harness.cache_requested()) {
    // Same reuse mix + per-device chunk cache: the no-cache app-affinity run
    // above stays as the A/B comparator for hit rate and PCIe savings.
    bigk::bench::register_sim_benchmark(
        "serve/reuse/app-affinity+cache", &harness.results,
        [&, reuse, reuse_apps] {
          serve::ServerConfig config =
              base_config(reuse_devices, serve::Policy::kAppAffinity,
                          "serve.reuse.app-affinity+cache");
          config.cache_enabled = true;
          config.cache_bytes = harness.cache_bytes();
          return run_serve("reuse/app-affinity+cache", config, reuse,
                           reuse_apps);
        });
  }

  // bigkfault availability run: one device of a 4-wide pool dies on its
  // first DMA and is quarantined; its jobs are redispatched, the probe
  // daemon reinstates it after the outage, and every job must still finish.
  // An explicit --fault spec replaces the default outage.
  const std::uint32_t recover_devices = std::max(devices, 4u);
  bigk::bench::register_sim_benchmark(
      "serve/recover", &harness.results, [&, mixed] {
        serve::ServerConfig config =
            base_config(recover_devices, policy, "serve.recover");
        if (config.fault_spec.empty()) {
          config.fault_spec = "device_lost,nth=1,device=0,down_us=1";
        }
        config.probe_interval = sim::DurationPs{50'000'000};  // 50 us
        return run_serve("recover", config, mixed);
      });

  // Saturating burst against a tiny queue: admission control sheds load with
  // retry-after instead of building an unbounded backlog.
  bigk::bench::register_sim_benchmark(
      "serve/shed", &harness.results, [&, mixed] {
        serve::ServerConfig config =
            base_config(devices, policy, "serve.shed");
        config.queue_depth = 2;
        config.max_retries = 1;
        config.retry_after = sim::DurationPs{100'000'000};  // 0.1 ms
        return run_serve("shed", config, mixed);
      });

  // bigkhetero spill-over: the batch arrival instantly saturates a
  // single-device pool; with co-execution enabled, every job admitted past
  // the spill depth bypasses the device queue and runs on the host cores
  // (no staging, no DMA). Nothing may drop or fail — the host side is a
  // slower but always-available executor.
  bigk::bench::register_sim_benchmark(
      "serve/spill", &harness.results, [&, mixed] {
        serve::ServerConfig config = base_config(1, policy, "serve.spill");
        config.queue_depth = 16;
        config.hetero.spill_enabled = true;
        config.hetero.spill_depth = 2;
        return run_serve("spill", config, mixed);
      });

  // bigkdur integrity run: the reuse mix (cache on, so chunks are resident
  // and re-served) under silent-corruption injection. Flips land on staged
  // write-backs and on resident cache entries; the armed integrity plane
  // must catch every one — at the write-back digest check, on the next cache
  // hit, or by the scrub daemon — and the retry/restage path must leave the
  // output clean with zero failed jobs. An explicit --fault spec replaces
  // the default bit-flip mix.
  bigk::bench::register_sim_benchmark(
      "serve/dur/integrity", &harness.results, [&, reuse, reuse_apps] {
        serve::ServerConfig config =
            base_config(reuse_devices, serve::Policy::kAppAffinity,
                        "serve.dur.integrity");
        config.cache_enabled = true;
        config.cache_bytes = harness.cache_bytes();
        config.dur.integrity = true;
        config.dur.scrub_period = sim::DurationPs{20'000'000};  // 20 us
        config.dur.scrub_entries = 4;
        if (config.fault_spec.empty()) {
          config.fault_spec =
              "bitflip_writeback,nth=1,every=3,max=8;"
              "bitflip_cache,nth=1,every=2,max=8";
        }
        return run_serve("dur/integrity", config, reuse, reuse_apps);
      });

  // bigkdur crash/restart: four K-means jobs (the suite's stream-output app
  // — the one whose checkpoint digests can actually vouch for surviving
  // output bytes; the reduction apps keep their output in table state and
  // always restart from zero), executed in checkpoint windows over a
  // caller-owned journal and crashed at half the clean makespan. The two
  // scenarios share the same deterministic crash; they differ only in what
  // survives it — the resume run keeps the runners (output storage intact,
  // every digest verifies, jobs resume from their checkpoints), the restart
  // run gets fresh runners (storage lost, every digest check fails, jobs
  // rerun from record zero). Both report the post-crash incarnation.
  constexpr std::size_t kDurJobs = 4;
  std::vector<serve::JobSpec> dur_specs;
  for (std::size_t i = 0; i < kDurJobs; ++i) {
    serve::JobSpec spec;
    spec.id = i;
    spec.app = "K-means#" + std::to_string(i);
    dur_specs.push_back(spec);
  }
  struct DurCrashState {
    std::vector<bigk::apps::BenchApp> durable_suite;
    std::vector<bigk::apps::BenchApp> fresh_suite;
    std::uint64_t window = 0;
    sim::TimePs crash_at = 0;
  };
  auto dur_state = std::make_shared<DurCrashState>();
  const auto dur_config = [&](const std::string& prefix) {
    serve::ServerConfig config =
        base_config(2, serve::Policy::kRoundRobin, prefix);
    config.dur.checkpoint_records = dur_state->window;
    return config;
  };
  // Built once, by whichever crash scenario runs first: one persistent
  // runner per job (the surviving "output storage") behind a durable suite,
  // a fresh suite with the same app names but stock runners (the lost
  // storage), the checkpoint window (a quarter of the job, so every job
  // spans several windows at any scale), and the crash instant (half a
  // clean run's makespan, so the crash lands mid-workload at any scale).
  const auto dur_prepare = [&] {
    if (!dur_state->durable_suite.empty()) return;
    const bigk::apps::BenchApp& kmeans =
        bigk::apps::find_app(ctx.suite, "K-means");
    std::uint64_t records = 0;
    for (const serve::JobSpec& spec : dur_specs) {
      bigk::apps::BenchApp fresh = kmeans;
      fresh.name = spec.app;
      bigk::apps::BenchApp durable = fresh;
      std::shared_ptr<bigk::apps::JobRunner> runner = kmeans.make_runner();
      records = runner->num_records();
      durable.make_runner =
          [runner]() -> std::unique_ptr<bigk::apps::JobRunner> {
        return std::make_unique<SharedJobRunner>(runner);
      };
      dur_state->durable_suite.push_back(std::move(durable));
      dur_state->fresh_suite.push_back(std::move(fresh));
    }
    dur_state->window = std::max<std::uint64_t>(1, records / 4);
    serve::ServerConfig probe = dur_config("");
    probe.metrics = nullptr;
    probe.tracer = nullptr;
    dur_state->crash_at =
        serve::run_server(probe, dur_specs, dur_state->fresh_suite).makespan /
        2;
  };
  const auto dur_crash_run = [&](bigk::dur::JobJournal& journal) {
    serve::ServerConfig config = dur_config("");
    config.metrics = nullptr;
    config.tracer = nullptr;
    config.dur.journal = &journal;
    config.dur.crash_at = dur_state->crash_at;
    serve::run_server(config, dur_specs, dur_state->durable_suite);
  };
  bigk::bench::register_sim_benchmark(
      "serve/dur/resume", &harness.results, [&] {
        dur_prepare();
        bigk::dur::JobJournal journal;
        dur_crash_run(journal);
        serve::ServerConfig config = dur_config("serve.dur.resume");
        config.dur.journal = &journal;
        reports["dur/resume"] =
            serve::run_server(config, dur_specs, dur_state->durable_suite);
        return to_run_metrics(reports["dur/resume"]);
      });
  bigk::bench::register_sim_benchmark(
      "serve/dur/restart", &harness.results, [&] {
        dur_prepare();
        bigk::dur::JobJournal journal;
        dur_crash_run(journal);
        serve::ServerConfig config = dur_config("serve.dur.restart");
        config.dur.journal = &journal;
        // Fresh runners: the journal survived but the output storage did
        // not, so every checkpoint digest mismatches.
        reports["dur/restart"] =
            serve::run_server(config, dur_specs, dur_state->fresh_suite);
        return to_run_metrics(reports["dur/restart"]);
      });

  const int rc = bigk::bench::run_benchmarks(argc, argv);
  if (rc != 0) return rc;

  // Device-pool scaling headline: throughput ratio of the pool vs. one
  // device on the identical workload.
  double scaling = 0.0;
  if (devices > 1 && reports.count("mixed/devices1") != 0 &&
      reports.count(pool_key) != 0) {
    const double base = reports["mixed/devices1"].throughput_jobs_per_s;
    if (base > 0.0) {
      scaling = reports[pool_key].throughput_jobs_per_s / base;
    }
    harness.metrics
        .gauge("serve.scaling.devices" + std::to_string(devices) + "_vs_1")
        .set(scaling);
  }
  // bigkcache headline: A/B of the reuse mix with and without the cache.
  std::uint64_t h2d_cache = 0;
  std::uint64_t h2d_nocache = 0;
  if (reports.count("reuse/app-affinity+cache") != 0) {
    const serve::ServeReport& cached = reports["reuse/app-affinity+cache"];
    for (const serve::DeviceReport& dev : cached.devices) {
      h2d_cache += dev.h2d_bytes;
    }
    harness.metrics.gauge("serve.cache.hit_rate").set(cached.cache_hit_rate);
    harness.metrics.gauge("serve.cache.hits")
        .set(static_cast<double>(cached.cache_hits));
    harness.metrics.gauge("serve.cache.bytes_saved")
        .set(static_cast<double>(cached.cache_bytes_saved));
    harness.metrics.gauge("serve.cache.h2d_bytes")
        .set(static_cast<double>(h2d_cache));
    if (reports.count("reuse/app-affinity") != 0) {
      for (const serve::DeviceReport& dev :
           reports["reuse/app-affinity"].devices) {
        h2d_nocache += dev.h2d_bytes;
      }
      harness.metrics.gauge("serve.nocache.h2d_bytes")
          .set(static_cast<double>(h2d_nocache));
    }
  }
  // bigkdur headline: checkpoint-resume goodput against the from-zero
  // restart on the identical crash.
  double resume_speedup = 0.0;
  if (reports.count("dur/resume") != 0 && reports.count("dur/restart") != 0) {
    const double resume = reports["dur/resume"].throughput_jobs_per_s;
    const double restart = reports["dur/restart"].throughput_jobs_per_s;
    if (restart > 0.0) {
      resume_speedup = resume / restart;
      harness.metrics.gauge("serve.dur.resume_speedup").set(resume_speedup);
    }
  }
  if (!harness.write_outputs()) return 1;

  bigk::bench::print_header(
      "bigkserve: multi-GPU serving throughput / latency", ctx);
  std::printf("devices=%u jobs=%u policy=%s\n", devices, jobs,
              serve::policy_name(policy));
  for (const auto& [name, report] : reports) print_report_line(name, report);
  if (devices > 1 && scaling > 0.0) {
    std::printf("\nscaling: %u devices deliver %.2fx the single-device job "
                "throughput\n", devices, scaling);
  }
  if (reports.count("reuse/round-robin") != 0 &&
      reports.count("reuse/app-affinity") != 0) {
    const auto& rr = reports["reuse/round-robin"];
    const auto& aff = reports["reuse/app-affinity"];
    if (aff.throughput_jobs_per_s > 0.0 && rr.throughput_jobs_per_s > 0.0) {
      std::printf("affinity: %.2fx round-robin throughput on the reuse-heavy "
                  "mix (%llu warm hits vs %llu)\n",
                  aff.throughput_jobs_per_s / rr.throughput_jobs_per_s,
                  static_cast<unsigned long long>(aff.warm_hits),
                  static_cast<unsigned long long>(rr.warm_hits));
    }
  }
  if (reports.count("recover") != 0) {
    const serve::ServeReport& recover = reports["recover"];
    std::printf("recover: %llu injected / %llu recovered, %llu quarantines, "
                "%llu reinstatements, %llu redispatches, %llu failed jobs "
                "across %u devices\n",
                static_cast<unsigned long long>(recover.fault_injected),
                static_cast<unsigned long long>(recover.fault_recovered),
                static_cast<unsigned long long>(recover.quarantines),
                static_cast<unsigned long long>(recover.reinstatements),
                static_cast<unsigned long long>(recover.redispatches),
                static_cast<unsigned long long>(recover.failed_jobs),
                recover_devices);
  }
  if (reports.count("spill") != 0) {
    const serve::ServeReport& spill = reports["spill"];
    std::printf("spill: %llu of %llu jobs spilled to host cores "
                "(%llu cpu-completed, %llu failed) once the single device "
                "backed up past depth 2\n",
                static_cast<unsigned long long>(spill.spills),
                static_cast<unsigned long long>(spill.jobs.size()),
                static_cast<unsigned long long>(spill.cpu_completed),
                static_cast<unsigned long long>(spill.failed_jobs));
  }
  if (reports.count("dur/integrity") != 0) {
    const serve::ServeReport& dur = reports["dur/integrity"];
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
  if (resume_speedup > 0.0) {
    const serve::ServeReport& resume = reports["dur/resume"];
    const serve::ServeReport& restart = reports["dur/restart"];
    std::printf("resume: %llu jobs resumed from checkpoints replaying %llu "
                "windows (%.3f ms) vs %llu replayed from zero (%.3f ms) — "
                "%.2fx the restart goodput\n",
                static_cast<unsigned long long>(resume.resumed),
                static_cast<unsigned long long>(resume.chunks_replayed),
                static_cast<double>(resume.makespan) / 1e9,
                static_cast<unsigned long long>(restart.chunks_replayed),
                static_cast<double>(restart.makespan) / 1e9,
                resume_speedup);
  }
  if (reports.count("reuse/app-affinity+cache") != 0) {
    const serve::ServeReport& cached = reports["reuse/app-affinity+cache"];
    std::printf("cache: hit rate %.1f%% (%llu hits / %llu misses), "
                "%.2f MB PCIe saved; h2d %.2f MB with cache vs %.2f MB "
                "without\n",
                cached.cache_hit_rate * 100.0,
                static_cast<unsigned long long>(cached.cache_hits),
                static_cast<unsigned long long>(cached.cache_misses),
                static_cast<double>(cached.cache_bytes_saved) / 1e6,
                static_cast<double>(h2d_cache) / 1e6,
                static_cast<double>(h2d_nocache) / 1e6);
  }
  return 0;
}
