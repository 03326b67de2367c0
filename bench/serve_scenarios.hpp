// The serve benches' scenario catalogue. Each scenario of serve_throughput
// (ThroughputScenarios) and serve_load (LoadScenarios) is defined here
// once: its result name, the ServerConfig it runs (pool size, metrics
// prefix, queue and plane settings) and its job list, with a comment on
// what it measures. The bench binaries register their scenarios from it,
// and the serve contract tests (tests/bench/serve_contracts_test.cpp) build
// the same scenarios from a ServeFlags, without argv or google-benchmark.
// Every run is deterministic.
//
// --fault installs its spec on every scenario's pool (serve/recover and
// serve/dur/integrity run it instead of their default spec); --arrival
// overrides the load arrival process (rate still scaled to the multiplier
// times C), --tenants replaces the sweep's tenant mix, --duration fixes the
// load workload window, and --offered-load picks the sweep multipliers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "dur/journal.hpp"
#include "load/arrival.hpp"
#include "load/generator.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"

namespace bigk::bench {

/// One serve scenario: its bench result name and the run_server call it
/// makes. config.devices is its pool size and config.metrics_prefix the
/// prefix of every gauge it exports.
struct ServeScenario {
  std::string name;
  serve::ServerConfig config;
  std::vector<serve::JobSpec> jobs;
  /// The Context's suite, or a crash scenario's own (its catalogue owns it).
  const std::vector<apps::BenchApp>* suite = nullptr;
  /// bigkdur: the journal config.dur.journal points at.
  std::shared_ptr<dur::JobJournal> journal;

  serve::ServeReport run() const {
    return serve::run_server(config, jobs, *suite);
  }
};

/// A serve run's entry in the bench document: its makespan plus the pool's
/// traffic and launches.
inline schemes::RunMetrics to_run_metrics(const serve::ServeReport& report) {
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

/// What every serve scenario's pool shares: the Context's system, engine
/// and sinks, and the fault, profiling and SLO flags.
inline serve::ServerConfig pool_config(const Context& ctx,
                                       const ServeFlags& flags,
                                       std::uint32_t devices,
                                       serve::Policy policy,
                                       std::string prefix) {
  serve::ServerConfig config;
  config.system = ctx.config;
  config.devices = devices;
  config.policy = policy;
  config.engine = ctx.scheme_config.bigkernel;
  // Few assembly threads per engine: up to `devices` engines share the
  // host's cores, and oversubscribing them would measure host scheduling
  // noise instead of device-pool scaling.
  config.engine.num_blocks = 4;
  config.check = ctx.scheme_config.check;
  config.tracer = ctx.scheme_config.tracer;
  config.metrics = ctx.scheme_config.metrics;
  config.metrics_prefix = std::move(prefix);
  // --fault installs the operator's spec on every scenario's pool (empty =
  // no plane; behavior is byte-identical to a fault-free build).
  config.fault_spec = flags.fault_spec;
  config.fault_seed = flags.fault_seed;
  // bigkprof: --prof-window overrides the 100 us default attribution /
  // telemetry window; --slo arms the per-window SLO monitor.
  if (flags.prof_window > 0) config.prof_window = flags.prof_window;
  config.slo_spec = flags.slo_spec;
  return config;
}

/// A catalogue's scenarios by result name, in registration order; `Inputs`
/// are what a definition needs beyond the flags (serve_load's capacity).
template <class... Inputs>
class ScenarioTable {
 public:
  ScenarioTable() = default;
  // The builders capture the catalogue itself.
  ScenarioTable(const ScenarioTable&) = delete;
  ScenarioTable& operator=(const ScenarioTable&) = delete;

  std::vector<std::string> names() const {
    std::vector<std::string> names;
    for (const Entry& entry : entries_) names.push_back(entry.name);
    return names;
  }

  /// Builds the named scenario; throws std::out_of_range for a name that
  /// names() does not list.
  ServeScenario build(const std::string& name, Inputs... inputs) {
    for (const Entry& entry : entries_) {
      if (entry.name != name) continue;
      ServeScenario scenario = entry.build(inputs...);
      scenario.name = name;
      return scenario;
    }
    throw std::out_of_range("no serve scenario named \"" + name + "\"");
  }

 protected:
  using Builder = std::function<ServeScenario(Inputs...)>;
  void add(std::string name, Builder build) {
    entries_.push_back({std::move(name), std::move(build)});
  }

 private:
  struct Entry {
    std::string name;
    Builder build;
  };
  std::vector<Entry> entries_;
};

/// serve_throughput's headline numbers, over the scenarios that ran.
struct ThroughputHeadlines {
  /// Pool vs single-device job throughput on the mixed workload.
  double scaling = 0.0;
  /// The reuse mix's H2D bytes with and without the chunk cache.
  std::uint64_t h2d_cache = 0;
  std::uint64_t h2d_nocache = 0;
  /// Checkpoint-resume vs restart-from-zero goodput on the same crash.
  double resume_speedup = 0.0;
};

/// serve_throughput's scenarios.
class ThroughputScenarios : public ScenarioTable<> {
 public:
  ThroughputScenarios(const Context& ctx, const ServeFlags& flags)
      : ctx_(ctx),
        flags_(flags),
        policy_(serve::policy_from_name(flags.policy)) {
    const std::uint32_t devices = flags.devices;
    // The mixed workload on one device (the baseline) and on the --devices
    // pool under --policy.
    add("serve/mixed/devices1", [this] {
      return mixed(throughput_pool(1, policy_, "serve.mixed.devices1"));
    });
    if (devices > 1) {
      const std::string pool = "devices" + std::to_string(devices);
      add("serve/mixed/" + pool, [this, devices, pool] {
        return mixed(throughput_pool(devices, policy_, "serve.mixed." + pool));
      });
    }

    // Reuse-heavy mix: drawn from the staging-heavy apps (big mapped
    // inputs, short kernels, similar per-job cost), up to one distinct app
    // per pool device. Affinity placement keeps each app's dataset resident
    // on "its" device and skips the input staging that affinity-blind
    // placement keeps paying on the shared host bus.
    const std::uint32_t reuse_devices = std::max(devices, 2u);
    if (reuse_apps_.size() > reuse_devices) reuse_apps_.resize(reuse_devices);
    add("serve/reuse/round-robin", [this, reuse_devices] {
      return reuse(throughput_pool(reuse_devices, serve::Policy::kRoundRobin,
                                   "serve.reuse.round-robin"));
    });
    add("serve/reuse/app-affinity", [this, reuse_devices] {
      return reuse(throughput_pool(reuse_devices, serve::Policy::kAppAffinity,
                                   "serve.reuse.app-affinity"));
    });
    if (flags.cache) {
      // Same reuse mix + per-device bigkcache chunk cache (repeat jobs skip
      // assembly and PCIe transfer for still-resident chunks): the no-cache
      // app-affinity run above is the A/B comparator for hit rate and PCIe
      // savings.
      add("serve/reuse/app-affinity+cache", [this, reuse_devices] {
        serve::ServerConfig config =
            throughput_pool(reuse_devices, serve::Policy::kAppAffinity,
                            "serve.reuse.app-affinity+cache");
        config.cache_enabled = true;
        config.cache_bytes = flags_.cache_bytes;
        return reuse(std::move(config));
      });
    }

    // bigkfault availability run: one device of a 4-wide pool dies on its
    // first DMA and is quarantined; its jobs are redispatched, the probe
    // daemon reinstates it after the outage, and every job must still
    // finish. An explicit --fault spec replaces the default outage.
    add("serve/recover", [this, devices] {
      serve::ServerConfig config =
          throughput_pool(std::max(devices, 4u), policy_, "serve.recover");
      if (config.fault_spec.empty()) {
        config.fault_spec = "device_lost,nth=1,device=0,down_us=1";
      }
      config.probe_interval = sim::DurationPs{50'000'000};  // 50 us
      return mixed(std::move(config));
    });

    // Saturating burst against a tiny queue: admission control sheds load
    // with retry-after instead of building an unbounded backlog.
    add("serve/shed", [this, devices] {
      serve::ServerConfig config =
          throughput_pool(devices, policy_, "serve.shed");
      config.queue_depth = 2;
      config.max_retries = 1;
      config.retry_after = sim::DurationPs{100'000'000};  // 0.1 ms
      return mixed(std::move(config));
    });

    // bigkhetero spill-over: the batch arrival instantly saturates a
    // single-device pool; with co-execution enabled, every job admitted past
    // the spill depth bypasses the device queue and runs on the host cores
    // (no staging, no DMA). Nothing may drop or fail — the host side is a
    // slower but always-available executor.
    add("serve/spill", [this] {
      serve::ServerConfig config = throughput_pool(1, policy_, "serve.spill");
      config.queue_depth = 16;
      config.hetero.spill_enabled = true;
      config.hetero.spill_depth = 2;
      return mixed(std::move(config));
    });

    // bigkdur integrity run: the reuse mix (cache on, so chunks are resident
    // and re-served) under silent-corruption injection. Flips land on staged
    // write-backs and on resident cache entries; the armed integrity plane
    // must catch every one — at the write-back digest check, on the next
    // cache hit, or by the scrub daemon — and the retry/restage path must
    // leave the output clean with zero failed jobs. An explicit --fault spec
    // replaces the default bit-flip mix.
    add("serve/dur/integrity", [this, reuse_devices] {
      serve::ServerConfig config =
          throughput_pool(reuse_devices, serve::Policy::kAppAffinity,
                          "serve.dur.integrity");
      config.cache_enabled = true;
      config.cache_bytes = flags_.cache_bytes;
      config.dur.integrity = true;
      config.dur.scrub_period = sim::DurationPs{20'000'000};  // 20 us
      config.dur.scrub_entries = 4;
      if (config.fault_spec.empty()) {
        config.fault_spec =
            "bitflip_writeback,nth=1,every=3,max=8;"
            "bitflip_cache,nth=1,every=2,max=8";
      }
      return reuse(std::move(config));
    });

    // bigkdur crash/restart: four K-means jobs (the suite's stream-output
    // app — the one whose checkpoint digests can actually vouch for
    // surviving output bytes; the reduction apps keep their output in table
    // state and always restart from zero), executed in checkpoint windows
    // over a caller-owned journal and crashed at half the clean makespan.
    // The two scenarios share the same deterministic crash; they differ only
    // in what survives it — the resume run keeps the runners (output storage
    // intact, every digest verifies, jobs resume from their checkpoints),
    // the restart run gets fresh runners (storage lost, every digest check
    // fails, jobs rerun from record zero). Both report the post-crash
    // incarnation.
    for (std::size_t i = 0; i < kDurJobs; ++i) {
      serve::JobSpec spec;
      spec.id = i;
      spec.app = "K-means#" + std::to_string(i);
      dur_.specs.push_back(spec);
    }
    add("serve/dur/resume", [this] {
      return after_crash("serve.dur.resume", dur_.durable_suite);
    });
    add("serve/dur/restart", [this] {
      return after_crash("serve.dur.restart", dur_.fresh_suite);
    });
  }

  /// Computes the headlines from `reports` (keyed by result name) and sets
  /// their gauges in `metrics`; a headline whose scenarios did not run stays
  /// 0 and sets no gauge.
  ThroughputHeadlines export_headlines(
      const std::map<std::string, serve::ServeReport>& reports,
      obs::MetricsRegistry& metrics) const {
    ThroughputHeadlines headlines;
    const std::string pool = std::to_string(flags_.devices);
    const auto single = reports.find("serve/mixed/devices1");
    const auto pooled = reports.find("serve/mixed/devices" + pool);
    if (flags_.devices > 1 && single != reports.end() &&
        pooled != reports.end()) {
      const double base = single->second.throughput_jobs_per_s;
      if (base > 0.0) {
        headlines.scaling = pooled->second.throughput_jobs_per_s / base;
      }
      metrics.gauge("serve.scaling.devices" + pool + "_vs_1")
          .set(headlines.scaling);
    }
    const auto cached = reports.find("serve/reuse/app-affinity+cache");
    if (cached != reports.end()) {
      headlines.h2d_cache = to_run_metrics(cached->second).h2d_bytes;
      metrics.gauge("serve.cache.hit_rate").set(cached->second.cache_hit_rate);
      metrics.gauge("serve.cache.hits")
          .set(static_cast<double>(cached->second.cache_hits));
      metrics.gauge("serve.cache.bytes_saved")
          .set(static_cast<double>(cached->second.cache_bytes_saved));
      metrics.gauge("serve.cache.h2d_bytes")
          .set(static_cast<double>(headlines.h2d_cache));
      const auto uncached = reports.find("serve/reuse/app-affinity");
      if (uncached != reports.end()) {
        headlines.h2d_nocache = to_run_metrics(uncached->second).h2d_bytes;
        metrics.gauge("serve.nocache.h2d_bytes")
            .set(static_cast<double>(headlines.h2d_nocache));
      }
    }
    const auto resume = reports.find("serve/dur/resume");
    const auto restart = reports.find("serve/dur/restart");
    if (resume != reports.end() && restart != reports.end() &&
        restart->second.throughput_jobs_per_s > 0.0) {
      headlines.resume_speedup = resume->second.throughput_jobs_per_s /
                                 restart->second.throughput_jobs_per_s;
      metrics.gauge("serve.dur.resume_speedup").set(headlines.resume_speedup);
    }
    return headlines;
  }

 private:
  static constexpr std::size_t kDurJobs = 4;

  /// A throughput pool: a shallow queue (2 jobs per device) keeps placement
  /// late-bound — a job is admitted, and placed, only when pool capacity is
  /// about to free, so the scheduler works from fresh backlog state instead
  /// of freezing the whole mix onto devices at t=0. The retry budget is
  /// effectively unlimited: nothing may drop here.
  serve::ServerConfig throughput_pool(std::uint32_t devices,
                                      serve::Policy policy,
                                      std::string prefix) const {
    serve::ServerConfig config =
        pool_config(ctx_, flags_, devices, policy, std::move(prefix));
    config.queue_depth = devices;
    config.retry_after = sim::DurationPs{100'000'000};  // 0.1 ms poll
    config.max_retries = 100'000;
    return config;
  }

  /// --jobs jobs over every app of the suite, arriving as one batch: the
  /// shallow queue late-binds their placement.
  serve::WorkloadConfig mixed_workload() const {
    serve::WorkloadConfig mixed;
    mixed.num_jobs = flags_.jobs;
    mixed.seed = 2014;
    mixed.mean_gap = 0;
    return mixed;
  }

  ServeScenario mixed(serve::ServerConfig config) const {
    return {{}, std::move(config),
            serve::make_workload(apps::app_names(ctx_.suite),
                                 mixed_workload()),
            &ctx_.suite, nullptr};
  }

  ServeScenario reuse(serve::ServerConfig config) const {
    serve::WorkloadConfig reuse = mixed_workload();
    reuse.seed = 4242;
    return {{}, std::move(config), serve::make_workload(reuse_apps_, reuse),
            &ctx_.suite, nullptr};
  }

  /// The crash scenarios' shared inputs, built once by whichever runs
  /// first: one persistent runner per job (the surviving "output storage")
  /// behind a durable suite, a fresh suite with the same app names but
  /// stock runners (the lost storage), the checkpoint window (a quarter of
  /// the job, so every job spans several windows at any scale), and the
  /// crash instant (half a clean run's makespan, so the crash lands
  /// mid-workload at any scale).
  struct DurCrash {
    std::vector<serve::JobSpec> specs;
    std::vector<apps::BenchApp> durable_suite;
    std::vector<apps::BenchApp> fresh_suite;
    std::uint64_t window = 0;
    sim::TimePs crash_at = 0;
  };

  serve::ServerConfig dur_pool(std::string prefix) const {
    serve::ServerConfig config = throughput_pool(
        2, serve::Policy::kRoundRobin, std::move(prefix));
    config.dur.checkpoint_records = dur_.window;
    return config;
  }

  /// dur_pool without sinks: the runs that only set up a crash scenario.
  serve::ServerConfig silent_dur_pool() const {
    serve::ServerConfig config = dur_pool("");
    config.metrics = nullptr;
    config.tracer = nullptr;
    return config;
  }

  void prepare_dur() {
    if (!dur_.durable_suite.empty()) return;
    const apps::BenchApp& kmeans = apps::find_app(ctx_.suite, "K-means");
    std::uint64_t records = 0;
    for (const serve::JobSpec& spec : dur_.specs) {
      apps::BenchApp fresh = kmeans;
      fresh.name = spec.app;
      apps::BenchApp durable = fresh;
      std::shared_ptr<apps::JobRunner> runner = kmeans.make_runner();
      records = runner->num_records();
      durable.make_runner = [runner]() -> std::unique_ptr<apps::JobRunner> {
        return std::make_unique<apps::SharedJobRunner>(runner);
      };
      dur_.durable_suite.push_back(std::move(durable));
      dur_.fresh_suite.push_back(std::move(fresh));
    }
    dur_.window = std::max<std::uint64_t>(1, records / 4);
    const serve::ServeReport clean =
        serve::run_server(silent_dur_pool(), dur_.specs, dur_.fresh_suite);
    dur_.crash_at = clean.makespan / 2;
  }

  /// The durable runners crash over a fresh journal; the scenario is the
  /// restart over that journal with `suite`'s runners.
  ServeScenario after_crash(std::string prefix,
                            const std::vector<apps::BenchApp>& suite) {
    prepare_dur();
    auto journal = std::make_shared<dur::JobJournal>();
    serve::ServerConfig crash = silent_dur_pool();
    crash.dur.journal = journal.get();
    crash.dur.crash_at = dur_.crash_at;
    serve::run_server(crash, dur_.specs, dur_.durable_suite);
    ServeScenario scenario{{}, dur_pool(std::move(prefix)), dur_.specs,
                           &suite, journal};
    scenario.config.dur.journal = journal.get();
    return scenario;
  }

  const Context& ctx_;
  ServeFlags flags_;
  serve::Policy policy_;
  std::vector<std::string> reuse_apps_{"K-means", "Netflix", "DNA Assembly",
                                       "MasterCard Affinity (indexed)"};
  DurCrash dur_;
};

/// serve_load's scenarios after load/calibrate, each built at the pool's
/// calibrated capacity C (jobs/s).
class LoadScenarios : public ScenarioTable<double> {
 public:
  static constexpr const char* kCalibrate = "load/calibrate";

  LoadScenarios(const Context& ctx, const ServeFlags& flags)
      : ctx_(ctx),
        flags_(flags),
        devices_(std::max(2u, flags.devices)),
        policy_(serve::policy_from_name(flags.policy)),
        app_names_(apps::app_names(ctx.suite)),
        multipliers_(flags.offered_load.empty()
                         ? std::vector<double>{0.5, 1.5, 2.5}
                         : flags.offered_load) {
    // The base arrival spec; each scenario overrides its rate against C
    // (the seed stays, so --arrival pins determinism).
    if (!flags.arrival_spec.empty()) {
      arrival_ = load::ArrivalSpec::parse(flags.arrival_spec);
    }

    // load/sweep/x<pct>/{fifo,wfq}: open-loop arrivals at <pct>% of C
    // against the sweep's tenant mix, under FIFO vs weighted-fair ordering:
    // the headline A/B. Past saturation WFQ protects the latency-critical
    // tenant's SLO attainment, FIFO does not.
    for (const double multiplier : multipliers_) {
      for (const serve::Discipline discipline :
           {serve::Discipline::kFifo, serve::Discipline::kWfq}) {
        const std::string point = "sweep/x" + percent(multiplier) + "/" +
                                  serve::discipline_name(discipline);
        add("load/" + point, [this, multiplier, discipline](double capacity) {
          serve::ServerConfig config =
              load_pool("load.sweep.x" + percent(multiplier) + "." +
                        serve::discipline_name(discipline));
          config.qos.discipline = discipline;
          load::LoadConfig lc = offer(multiplier, capacity);
          lc.tenants = sweep_tenants(capacity);
          return offered(std::move(config), lc);
        });
      }
    }

    // Four equal tenants at 1.5x C: the Jain fairness index over
    // per-tenant goodput must stay high.
    add("load/balanced/wfq", [this](double capacity) {
      load::LoadConfig lc = offer(1.5, capacity);
      for (int t = 0; t < 4; ++t) {
        load::TenantSpec tenant;
        tenant.qos.name = "t" + std::to_string(t);
        tenant.qos.weight = 1;
        tenant.share = 0.25;
        tenant.clients = 32;
        lc.tenants.push_back(tenant);
      }
      return offered(load_pool("load.balanced"), lc);
    });

    // MMPP calm/burst arrivals against an autoscaled pool (min_active=1):
    // the device count must grow on the burst and shrink after it.
    add("load/autoscale", [this](double capacity) {
      serve::ServerConfig config = load_pool("load.autoscale");
      config.qos.autoscaler.enabled = true;
      config.qos.autoscaler.min_active = 1;
      config.qos.autoscaler.period = sim::DurationPs{50'000'000};  // 50 us
      config.qos.autoscaler.up_queue_depth = 2.0;
      config.qos.autoscaler.cooldown = 1;
      load::LoadConfig lc = offer(0.4, capacity);
      lc.arrival.kind = load::ArrivalKind::kMmpp;
      lc.arrival.burst_rate_per_s = 3.0 * capacity;
      lc.duration *= 3;
      load::TenantSpec tenant;
      tenant.qos.name = "all";
      tenant.clients = 64;
      lc.tenants.push_back(tenant);
      return offered(std::move(config), lc);
    });

    // Closed loop: per-client chains paced by tenant think time instead of
    // stamped arrivals.
    add("load/closed", [this](double capacity) {
      load::LoadConfig lc = offer(1.0, capacity);
      lc.closed_loop = true;
      for (int t = 0; t < 2; ++t) {
        load::TenantSpec tenant;
        tenant.qos.name = "c" + std::to_string(t);
        tenant.qos.think_time = sim::DurationPs{50'000'000};  // 50 us
        tenant.share = 0.5;
        tenant.clients = 32;
        lc.tenants.push_back(tenant);
      }
      return offered(load_pool("load.closed"), lc);
    });
  }

  std::uint32_t devices() const { return devices_; }

  /// load/calibrate: a batch run at late-bound placement whose job
  /// throughput is the pool's capacity C.
  ServeScenario calibrate() const {
    serve::ServerConfig config = load_pool("load.calibrate");
    config.queue_depth = devices_;  // late-bound placement, like serve/
    config.max_retries = 100'000;
    serve::WorkloadConfig batch;
    batch.num_jobs = std::max(flags_.jobs, 4 * devices_);
    batch.seed = 2014;
    batch.mean_gap = 0;
    return {kCalibrate, std::move(config),
            serve::make_workload(app_names_, batch), &ctx_.suite, nullptr};
  }

  /// C from a load/calibrate run: its job throughput (1000 jobs/s for a
  /// degenerate run).
  static double capacity_of(const serve::ServeReport& calibrate) {
    const double capacity = calibrate.throughput_jobs_per_s;
    return capacity <= 0.0 ? 1000.0 : capacity;
  }

  /// C from a load/calibrate run that exports nothing: the capacity a
  /// scenario needs when load/calibrate itself did not run.
  double measure_capacity() const {
    ServeScenario run = calibrate();
    run.config.metrics = nullptr;
    run.config.tracer = nullptr;
    return capacity_of(run.run());
  }

  /// Sets the headline gauges: C and, per sweep point whose two runs are in
  /// `reports` (keyed by result name), the LC tenant's attainment delta
  /// (wfq - fifo).
  void export_headlines(
      const std::map<std::string, serve::ServeReport>& reports,
      double capacity, obs::MetricsRegistry& metrics) const {
    metrics.gauge("load.capacity_jobs_per_s").set(capacity);
    for (const double multiplier : multipliers_) {
      const std::string pct = percent(multiplier);
      const auto fifo = reports.find("load/sweep/x" + pct + "/fifo");
      const auto wfq = reports.find("load/sweep/x" + pct + "/wfq");
      if (fifo == reports.end() || wfq == reports.end()) continue;
      if (fifo->second.tenants.empty() || wfq->second.tenants.empty()) {
        continue;
      }
      metrics.gauge("load.sweep.x" + pct + ".lc_attainment_delta")
          .set(wfq->second.tenants[0].slo_attainment -
               fifo->second.tenants[0].slo_attainment);
    }
  }

 private:
  static std::string percent(double multiplier) {
    return std::to_string(static_cast<int>(multiplier * 100.0 + 0.5));
  }

  static sim::DurationPs seconds_to_ps(double seconds) {
    return static_cast<sim::DurationPs>(seconds * 1e12 + 0.5);
  }

  /// A load pool: deep enough for WFQ to reorder a real backlog; past
  /// saturation the small retry budget sheds load instead of queueing
  /// without bound.
  serve::ServerConfig load_pool(std::string prefix) const {
    serve::ServerConfig config =
        pool_config(ctx_, flags_, devices_, policy_, std::move(prefix));
    config.queue_depth = 16 * devices_;
    config.retry_after = sim::DurationPs{50'000'000};  // 50 us
    config.max_retries = 2;
    return config;
  }

  /// Arrivals at `multiplier` x C (the --arrival spec otherwise) over the
  /// workload window: --duration, or enough for ~--jobs arrivals at C.
  load::LoadConfig offer(double multiplier, double capacity) const {
    load::LoadConfig lc;
    lc.arrival = arrival_;
    lc.arrival.rate_per_s = multiplier * capacity;
    lc.duration =
        flags_.duration > 0
            ? flags_.duration
            : seconds_to_ps(static_cast<double>(flags_.jobs) / capacity);
    return lc;
  }

  /// The sweep's default tenant mix: a latency-critical minority with a
  /// deadline of three mean pool service times, against a deadline-free
  /// batch majority. --tenants replaces it verbatim.
  std::vector<load::TenantSpec> sweep_tenants(double capacity) const {
    if (!flags_.tenants_spec.empty()) {
      return load::parse_tenants(flags_.tenants_spec);
    }
    load::TenantSpec lc;
    lc.qos.name = "lc";
    lc.qos.slo = serve::SloClass::kLatencyCritical;
    lc.qos.weight = 8;
    lc.qos.deadline =
        seconds_to_ps(3.0 * static_cast<double>(devices_) / capacity);
    lc.share = 0.25;
    lc.clients = 64;
    load::TenantSpec batch;
    batch.qos.name = "batch";
    batch.qos.slo = serve::SloClass::kBatch;
    batch.qos.weight = 1;
    batch.share = 0.75;
    batch.clients = 64;
    return {lc, batch};
  }

  /// The scenario over load::make_load's plan for `load_config`.
  ServeScenario offered(serve::ServerConfig config,
                        const load::LoadConfig& load_config) const {
    load::LoadPlan plan = load::make_load(load_config, app_names_);
    config.qos.tenants = std::move(plan.tenants);
    config.qos.offered_window = load_config.duration;
    config.qos.closed_loop = load_config.closed_loop;
    return {{}, std::move(config), std::move(plan.specs), &ctx_.suite,
            nullptr};
  }

  const Context& ctx_;
  ServeFlags flags_;
  std::uint32_t devices_;
  serve::Policy policy_;
  std::vector<std::string> app_names_;
  std::vector<double> multipliers_;
  load::ArrivalSpec arrival_;
};

}  // namespace bigk::bench
