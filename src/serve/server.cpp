#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/chunk_cache.hpp"
#include "cache/pinned_pool.hpp"
#include "check/sanitizer.hpp"
#include "cusim/device_pool.hpp"
#include "dur/integrity.hpp"
#include "dur/journal.hpp"
#include "fault/fault.hpp"
#include "obs/prof/attribution.hpp"
#include "obs/prof/slo.hpp"
#include "sim/hash.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace bigk::serve {

namespace {

double to_ms(sim::DurationPs ps) { return static_cast<double>(ps) / 1e9; }

/// Nearest-rank p50, p95 and p99 of `latencies` (all zero when it is empty):
/// the p-th percentile is the smallest latency with at least p% of them at
/// or below it, so each is some job's actual latency.
std::array<sim::DurationPs, 3> percentiles(
    std::vector<sim::DurationPs> latencies) {
  if (latencies.empty()) return {};
  std::sort(latencies.begin(), latencies.end());
  const auto rank = [&](std::size_t percent) {
    return latencies[(percent * latencies.size() + 99) / 100 - 1];
  };
  return {rank(50), rank(95), rank(99)};
}

/// The Outcome of `records` over `makespan`.
Outcome summarize(const std::vector<const JobRecord*>& records,
                  sim::TimePs makespan) {
  Outcome out;
  std::vector<sim::DurationPs> latencies;
  for (const JobRecord* record : records) {
    ++out.submitted;
    out.rejections += record->rejections;
    if (record->completed) {
      ++out.completed;
      latencies.push_back(record->latency());
      // deadline_met stays true for a job without a deadline.
      if (record->deadline_met) {
        ++out.slo_attained;
      } else {
        ++out.deadline_misses;
      }
    } else if (record->failed) {
      ++out.failed_jobs;
    } else if (!record->admitted) {
      ++out.dropped;
    }
  }
  const auto [p50, p95, p99] = percentiles(std::move(latencies));
  out.latency_p50 = p50;
  out.latency_p95 = p95;
  out.latency_p99 = p99;
  const double makespan_s = static_cast<double>(makespan) * 1e-12;
  if (makespan_s > 0) {
    out.throughput_jobs_per_s = static_cast<double>(out.completed) / makespan_s;
    out.goodput_jobs_per_s = static_cast<double>(out.slo_attained) / makespan_s;
  }
  if (out.submitted > 0) {
    out.slo_attainment = static_cast<double>(out.slo_attained) /
                         static_cast<double>(out.submitted);
  }
  return out;
}

/// The windowed metrics telemetry_tick offers the SLO monitor, in snapshot
/// order. The monitor skips a metric missing from a snapshot, so a rule on
/// any other name could never fire; run_server rejects it instead.
constexpr std::array<std::string_view, 9> kSloMetrics = {
    "p50_ms",      "p95_ms",      "p99_ms",     "throughput_jobs_per_s",
    "queue_depth", "utilization", "fault_rate", "h2d_gbps",
    "d2h_gbps"};
/// The latency percentiles lead kSloMetrics: they are not observable before
/// the first job completes.
constexpr std::size_t kSloPercentiles = 3;

/// The rules of `spec`, each on a metric in kSloMetrics.
std::vector<obs::prof::SloRule> slo_rules(const std::string& spec) {
  std::vector<obs::prof::SloRule> rules = obs::prof::parse_slo_rules(spec);
  for (const obs::prof::SloRule& rule : rules) {
    if (std::find(kSloMetrics.begin(), kSloMetrics.end(), rule.metric) ==
        kSloMetrics.end()) {
      std::string valid;
      for (const std::string_view name : kSloMetrics) (valid += ' ') += name;
      throw std::invalid_argument("slo_spec: serve publishes no metric '" +
                                  rule.metric + "' (valid:" + valid + ")");
    }
  }
  return rules;
}

/// Cache dataset identity of an app's generated input: every runner of a
/// suite entry reads the entry's one dataset, so the app name is the
/// dataset.
std::uint64_t dataset_id_of(const std::string& app) {
  return sim::digest_bytes(std::as_bytes(std::span(app)));
}

/// `field` of every tenant, in tenant order.
std::vector<std::uint32_t> per_tenant(const std::vector<TenantConfig>& tenants,
                                      std::uint32_t TenantConfig::*field) {
  std::vector<std::uint32_t> values;
  for (const TenantConfig& tenant : tenants) values.push_back(tenant.*field);
  return values;
}

struct Job {
  JobRecord record;
  /// Built with the job, destroyed when it settles.
  std::unique_ptr<apps::JobRunner> runner;
  /// bigkstatic pattern signature of the (verified) app, 0 when the
  /// verification gate is disabled.
  std::uint64_t static_signature = 0;
  /// Raised once when the job settles, so the owning chain client can
  /// submit its next link (or, for the last link, return).
  std::unique_ptr<sim::Flag> done;
  /// bigkdur: record high-water mark across this session's run attempts —
  /// windows at or below it that execute again count as replayed work.
  std::uint64_t progress = 0;
  /// Index into ServerState::tenants (0, the default tenant, when no
  /// tenants are configured).
  std::uint32_t tenant = 0;
};

/// Where a periodic daemon's previous tick left off in the jobs that
/// finished and in the queue's depth samples.
struct TickCursor {
  std::size_t finished = 0;
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_samples = 0;
};

struct ServerState {
  const ServerConfig& config;
  sim::Simulation sim;
  cusim::DevicePool pool;
  /// The configured tenants, or one default weight-1 tenant without quota
  /// or think time when none are configured.
  std::vector<TenantConfig> tenants;
  /// Admission: pool depth and tenant quotas.
  JobQueue queue;
  /// Placement. With tenants a device holds one job at a time, so the
  /// discipline's order decides which job runs next; without, the job limit
  /// is unbounded and every admitted job is placed at once, which lets
  /// app-affinity stack a job behind a warm same-app device.
  Scheduler scheduler;
  /// Admitted jobs waiting for a device, in discipline order (FIFO for the
  /// default tenant).
  QosQueue<Job*> qos_queue;
  /// One FIFO per device; its worker is the single consumer, so jobs on one
  /// device serialize in dispatch order.
  std::vector<std::unique_ptr<sim::Channel<Job*>>> dispatch;
  /// bigkhetero: FIFO of jobs spilled to host-core execution (null unless
  /// hetero.spill_enabled). Its single cpu_worker serializes spilled jobs,
  /// so the host cores never oversubscribe across concurrent spills.
  std::unique_ptr<sim::Channel<Job*>> cpu_dispatch;
  std::vector<Job> jobs;
  /// Completed jobs in the order they finished.
  std::vector<const Job*> finished;
  /// bigkcache: one chunk cache + pinned pool per device (empty when the
  /// cache is disabled). Shared by every job dispatched to that device.
  std::vector<std::unique_ptr<cache::ChunkCache>> caches;
  std::vector<std::unique_ptr<cache::PinnedPool>> pools;
  /// bigkfault: the pool-wide fault plane (null without a fault_spec).
  std::unique_ptr<fault::FaultPlane> fault_plane;
  // --- bigkdur -------------------------------------------------------------
  /// Shared integrity plane, set once on every pool device (where its
  /// engines find it) and on every chunk cache (null when dur.integrity is
  /// off — byte-identical to the pre-dur build).
  std::unique_ptr<dur::Integrity> integrity;
  /// Run attempts that resumed past record zero from a journaled checkpoint.
  std::uint64_t resumed = 0;
  /// Checkpoint windows re-executed although an earlier attempt (or the
  /// journal) had already completed them.
  std::uint64_t chunks_replayed = 0;
  /// The simulated whole-server crash fired (dur.crash_at elapsed).
  bool crashed = false;
  // --- bigkprof -----------------------------------------------------------
  /// One bottleneck profiler per device, set once on the device's runtime;
  /// every engine launch on the device feeds it.
  std::vector<std::unique_ptr<obs::prof::StageProfiler>> profilers;
  obs::prof::SloMonitor slo;
  /// Effective gauge prefix (also the SLO counter scope).
  std::string metrics_scope;
  /// Telemetry-daemon tick state (deltas since the previous window).
  TickCursor telemetry_cursor;
  std::uint64_t last_h2d_bytes = 0;
  std::uint64_t last_d2h_bytes = 0;
  std::uint64_t last_compute_busy = 0;
  std::uint64_t last_fault_injected = 0;
  /// Jobs settled (completed, failed, or shed); serve_main waits for all of
  /// them before shutting the workers and the probe daemon down.
  std::uint64_t settled = 0;
  sim::Flag all_settled{sim};
  bool shutdown = false;
  /// Captured when the last job settles, before the shutdown handshake, so
  /// the makespan never includes a trailing probe tick.
  sim::TimePs finish_time = 0;
  // --- bigkload QoS plane --------------------------------------------------
  std::unique_ptr<Autoscaler> autoscaler;
  /// Autoscaler-daemon tick state (signals since the previous period).
  TickCursor scaler_cursor;

  explicit ServerState(const ServerConfig& cfg)
      : config(cfg),
        pool(sim, cfg.system, cfg.devices),
        tenants(cfg.qos.tenants.empty() ? std::vector<TenantConfig>(1)
                                        : cfg.qos.tenants),
        queue(cfg.queue_depth, cfg.retry_after,
              per_tenant(tenants, &TenantConfig::quota)),
        scheduler(cfg.policy, pool.size(),
                  cfg.qos.tenants.empty() ? Scheduler::kNoJobLimit : 1,
                  cfg.reinstate_after),
        qos_queue(cfg.qos.tenants.empty() ? Discipline::kFifo
                                          : cfg.qos.discipline,
                  per_tenant(tenants, &TenantConfig::weight)),
        slo(slo_rules(cfg.slo_spec)) {
    metrics_scope = cfg.metrics_prefix.empty()
                        ? std::string("serve.") + policy_name(cfg.policy) +
                              ".devices" + std::to_string(pool.size())
                        : cfg.metrics_prefix;
    slo.attach(cfg.metrics, cfg.tracer, metrics_scope + ".");
    for (std::uint32_t d = 0; d < pool.size(); ++d) {
      profilers.push_back(
          std::make_unique<obs::prof::StageProfiler>(cfg.prof_window));
      pool.device(d).set_profiler(profilers.back().get());
    }
    pool.attach_observability(cfg.tracer, cfg.metrics);
    if (!cfg.fault_spec.empty()) {
      fault_plane = std::make_unique<fault::FaultPlane>(cfg.fault_seed);
      fault_plane->add_all(fault::FaultSpec::parse(cfg.fault_spec));
      fault_plane->attach_observability(cfg.metrics, cfg.tracer);
      pool.set_fault_plane(fault_plane.get());
    }
    if (cfg.dur.integrity) {
      integrity = std::make_unique<dur::Integrity>();
      integrity->attach_observability(cfg.metrics, cfg.tracer);
      pool.set_integrity(integrity.get());
    }
    for (std::uint32_t d = 0; d < pool.size(); ++d) {
      dispatch.push_back(std::make_unique<sim::Channel<Job*>>(sim));
    }
    if (cfg.hetero.spill_enabled) {
      cpu_dispatch = std::make_unique<sim::Channel<Job*>>(sim);
    }
    if (cfg.cache_enabled) {
      const std::uint64_t capacity =
          cfg.cache_bytes != 0 ? cfg.cache_bytes
                               : cfg.system.gpu.global_memory_bytes / 4;
      for (std::uint32_t d = 0; d < pool.size(); ++d) {
        cusim::Runtime& device = pool.device(d);
        auto chunk_cache = std::make_unique<cache::ChunkCache>(
            device.gpu().memory(),
            cache::ChunkCache::Config{capacity});
        chunk_cache->attach_observability(cfg.metrics, cfg.tracer,
                                          device.device_name());
        // bigkdur: resident entries re-verify against their insert digest on
        // every hit and under the scrub daemon; the fault hook lets
        // bitflip_cache corrupt them under this device's pool index.
        chunk_cache->set_integrity(integrity.get());
        chunk_cache->set_fault(fault_plane.get(), d);
        caches.push_back(std::move(chunk_cache));
        pools.push_back(std::make_unique<cache::PinnedPool>(device));
      }
      // Warm-preference bound: what an affinity hit would actually save —
      // the staged input skip plus the PCIe bytes the device's cache holds
      // for this app's dataset.
      scheduler.set_warm_benefit(
          [this](std::uint32_t device, const std::string& app,
                 std::uint64_t input_bytes) {
            return input_bytes +
                   caches[device]->resident_bytes(dataset_id_of(app));
          });
    }
    if (cfg.metrics != nullptr) {
      queue.attach_metrics(*cfg.metrics, metrics_scope);
    }
    if (cfg.qos.autoscaler.enabled) {
      autoscaler = std::make_unique<Autoscaler>(cfg.qos.autoscaler,
                                                pool.size());
      // Start at the floor; the daemon grows the pool as load arrives.
      scheduler.park_from(autoscaler->min_active());
    }
  }

  void settle_one() { all_settled.advance_to(++settled); }

  /// Settles `job`, destroys its runner and signals its chain client. A
  /// runner copies its tables on its first run, so a job's per-run state
  /// lives from its first run to here.
  void settle_job(Job& job) {
    job.runner.reset();
    job.done->increment();
    settle_one();
  }

  void trace_serve_instant(const std::string& name) {
    if (config.tracer == nullptr) return;
    const obs::TrackId track = config.tracer->track("serve", "health");
    config.tracer->instant(track, name, sim.now(), "serve");
  }
};

/// bigkhetero spill policy: an admitted job goes to the CPU instead of a
/// device queue when the pool has nothing placeable (every device quarantined
/// or parked) or the admitted backlog exceeds the spill depth.
bool should_spill(const ServerState& st) {
  if (!st.config.hetero.spill_enabled) return false;
  return !st.scheduler.any_placeable() ||
         st.queue.outstanding() > st.config.hetero.spill_depth;
}

/// Routes `job` to host-core execution (the cpu_worker completes it).
void spill_job(ServerState& st, Job& job) {
  job.record.cpu_executed = true;
  st.trace_serve_instant("spill job " + std::to_string(job.record.spec.id) +
                         " to cpu");
  st.cpu_dispatch->push(&job);
}

/// Binds `job` to `device` and queues it on the device's worker.
void place(ServerState& st, Job& job, std::uint32_t device) {
  job.record.device = device;
  job.record.warm = st.scheduler.resident_app(device) == job.record.spec.app;
  st.scheduler.on_dispatch(device, job.record.spec.app,
                           job.record.input_bytes);
  st.dispatch[device]->push(&job);
}

/// The dispatch step every admitted job passes through: hands queued jobs,
/// in discipline order, to the device the scheduler picks while some device
/// can take one. Runs whenever a job is queued or a device slot may have
/// opened.
void dispatch(ServerState& st) {
  while (!st.qos_queue.empty() && st.scheduler.can_dispatch()) {
    Job& job = *st.qos_queue.pop().value();
    place(st, job,
          st.scheduler.pick_device(job.record.spec.app,
                                   job.record.input_bytes));
  }
}

/// The one job-exit path: frees the job's device slot (when it still holds
/// one on `device`), its admission slot and its tenant slot, then dispatches
/// into whatever opened up.
void release(ServerState& st, Job& job, std::optional<std::uint32_t> device) {
  if (device.has_value()) {
    st.scheduler.on_complete(*device, job.record.input_bytes);
  }
  st.queue.release(job.tenant);
  dispatch(st);
}

/// Settles an admitted job as failed; `reason` goes to the trace.
void fail_job(ServerState& st, Job& job, std::optional<std::uint32_t> device,
              const char* reason) {
  job.record.failed = true;
  release(st, job, device);
  st.trace_serve_instant("job " + std::to_string(job.record.spec.id) +
                         " failed: " + reason);
  st.settle_job(job);
}

/// Epilogue of a job that ran to its end, on `device` or, spilled, on the
/// host cores.
void complete(ServerState& st, Job& job, std::optional<std::uint32_t> device) {
  JobRecord& record = job.record;
  record.finish_time = st.sim.now();
  record.completed = true;
  if (record.spec.deadline > 0) {
    record.deadline_met =
        record.finish_time - record.spec.submit_time <= record.spec.deadline;
  }
  st.finished.push_back(&job);
  release(st, job, device);
  st.settle_job(job);
  if (st.config.tracer != nullptr) {
    const obs::TrackId track = st.config.tracer->track(
        "serve", device.has_value() ? st.pool.device(*device).device_name()
                                    : std::string("cpu spill"));
    st.config.tracer->complete(
        track, record.spec.app, record.start_time, record.finish_time,
        "serve",
        {{"job", static_cast<double>(record.spec.id)},
         device.has_value() ? obs::SpanArg{"warm", record.warm ? 1.0 : 0.0}
                            : obs::SpanArg{"spilled", 1.0}});
  }
}

/// Runs one job through admission control: keeps resubmitting until accepted
/// or out of retries. Rejections — queue full, no device placeable, or the
/// job's tenant at its admission quota — return an escalating
/// retry-after hint the client honors verbatim; the escalation streak is
/// keyed by the submitting client when the workload names one, by the job id
/// otherwise. An accepted job either spills or is queued for dispatch().
sim::Task<> submit_one(ServerState& st, Job& job) {
  const std::uint64_t client_key = job.record.spec.client != 0
                                       ? job.record.spec.client
                                       : job.record.spec.id;
  for (std::uint32_t attempt = 0;; ++attempt) {
    // With spill on, the host cores can run a job no device can take.
    const JobQueue::Admission admission = st.queue.try_admit(
        client_key, job.tenant,
        st.scheduler.any_placeable() || st.config.hetero.spill_enabled);
    if (admission.accepted) {
      job.record.admitted = true;
      job.record.admit_time = st.sim.now();
      if (should_spill(st)) {
        spill_job(st, job);
      } else {
        st.qos_queue.push(job.tenant, &job, job.record.input_bytes >> 10);
        dispatch(st);
      }
      co_return;  // settles when its worker finishes it
    }
    ++job.record.rejections;
    if (attempt >= st.config.max_retries) {  // shed for good
      st.settle_job(job);
      co_return;
    }
    co_await st.sim.delay(admission.retry_after);
  }
}

/// One client: its jobs form a chain — the first link submits at its stamped
/// instant, each later link only after the previous settled plus the
/// tenant's think time, with its submit timestamp re-stamped to the actual
/// instant so latency is measured from the real submission. A shed link does
/// not break the chain. An open-loop job is a chain of one.
sim::Task<> chain_client(ServerState& st, std::vector<std::size_t> chain) {
  for (std::size_t k = 0; k < chain.size(); ++k) {
    Job& job = st.jobs[chain[k]];
    if (k == 0) {
      if (job.record.spec.submit_time > 0) {
        co_await st.sim.delay(job.record.spec.submit_time);
      }
    } else {
      const sim::DurationPs think = st.tenants[job.tenant].think_time;
      if (think > 0) co_await st.sim.delay(think);
      job.record.spec.submit_time = st.sim.now();
    }
    co_await submit_one(st, job);
    if (job.record.admitted) co_await job.done->wait_ge(1);
  }
}

/// Hands an admitted job that cannot run on `from_device` (its run failed,
/// or it was queued behind a quarantine) to the best available device,
/// skipping the queue and the device limit; with the whole pool quarantined
/// the job spills to the host cores or, without spill, fails.
void redispatch(ServerState& st, std::uint32_t from_device, Job& job) {
  st.scheduler.on_complete(from_device, job.record.input_bytes);
  const std::uint32_t target = st.scheduler.pick_device(
      job.record.spec.app, job.record.input_bytes, /*redispatch=*/true);
  if (target < st.pool.size()) {
    ++job.record.redispatches;
    place(st, job, target);
  } else if (st.config.hetero.spill_enabled) {
    // bigkhetero: the job keeps its admission slot (and tenant quota) until
    // the cpu_worker completes it.
    ++job.record.redispatches;
    spill_job(st, job);
  } else {
    fail_job(st, job, std::nullopt, "no device");
    return;
  }
  dispatch(st);
}

/// The one daemon loop: runs `tick` once every `period` until shutdown.
template <class Tick>
sim::Task<> every(ServerState& st, sim::DurationPs period, Tick tick) {
  while (!st.shutdown) {
    co_await st.sim.delay(period);
    if (st.shutdown) break;
    tick();
  }
}

/// Probe tick (every probe_interval): probes quarantined devices and
/// reinstates the ones whose outage has elapsed (for a device that was never
/// lost — quarantined on consecutive DMA failures — the first probe
/// succeeds). Reinstatement is flap-damped: the device must pass
/// `reinstate_after` consecutive clean probes, so an outage that clears and
/// re-trips between probes keeps it out.
void probe_tick(ServerState& st) {
  for (std::uint32_t d = 0; d < st.pool.size(); ++d) {
    if (!st.scheduler.quarantined(d)) continue;
    const bool clean = st.fault_plane->probe_device(d, st.sim.now());
    if (!st.scheduler.on_probe(d, clean)) continue;
    st.trace_serve_instant("reinstate dev" + std::to_string(d));
    dispatch(st);
  }
}

/// bigkdur: simulated whole-server crash. At dur.crash_at the flag flips and
/// every worker stops launching new checkpoint windows; queued and in-flight
/// jobs settle as failed so serve_main drains and run_server returns. A
/// fresh run_server over the same journal models the restart.
sim::Task<> crash_daemon(ServerState& st) {
  co_await st.sim.delay(st.config.dur.crash_at);
  if (st.shutdown) co_return;
  st.crashed = true;
  st.trace_serve_instant("server crash");
}

/// bigkdur cache scrub tick (every dur.scrub_period): re-verifies up to
/// dur.scrub_entries resident chunk-cache entries on `device` against their
/// insert digests and evicts any whose bytes no longer match (the engine
/// then re-assembles those chunks on the next miss).
void scrub_tick(ServerState& st, std::uint32_t device) {
  st.caches[device]->scrub(st.config.dur.scrub_entries, st.sim.now());
}

/// Nearest-rank p50, p95 and p99 of the latencies of `jobs`.
std::array<sim::DurationPs, 3> percentiles(std::span<const Job* const> jobs) {
  std::vector<sim::DurationPs> latencies;
  latencies.reserve(jobs.size());
  for (const Job* job : jobs) latencies.push_back(job->record.latency());
  return percentiles(std::move(latencies));
}

/// What a daemon tick reads over its period: the jobs that finished since
/// the daemon's previous tick, and the mean of the queue depths sampled
/// since then (the current depth when none was).
struct Period {
  std::span<const Job* const> finished;
  double mean_depth = 0.0;
};

/// The period since `cursor`, which moves to now.
Period take_period(const ServerState& st, TickCursor& cursor) {
  Period period;
  period.finished = std::span(st.finished).subspan(cursor.finished);
  const std::uint64_t sum = st.queue.depth_sum();
  const std::uint64_t samples = st.queue.depth_samples();
  period.mean_depth =
      samples > cursor.depth_samples
          ? static_cast<double>(sum - cursor.depth_sum) /
                static_cast<double>(samples - cursor.depth_samples)
          : static_cast<double>(st.queue.outstanding());
  cursor = {st.finished.size(), sum, samples};
  return period;
}

/// bigkprof telemetry tick (every prof_window): takes the window's
/// completions, queue depth and DMA/compute/fault deltas since the previous
/// tick, publishes the live throughput signals as tracer counter tracks, and
/// evaluates the SLO rules against a snapshot of them.
void telemetry_tick(ServerState& st) {
  const sim::DurationPs window = st.config.prof_window;
  const sim::TimePs now = st.sim.now();
  const Period period = take_period(st, st.telemetry_cursor);
  // Events over this tick's window, per second.
  const auto per_s = [window](std::uint64_t events) {
    return static_cast<double>(events) * 1e12 / static_cast<double>(window);
  };
  const double jobs_per_s = per_s(period.finished.size());

  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  std::uint64_t busy = 0;
  for (std::uint32_t d = 0; d < st.pool.size(); ++d) {
    const gpusim::Gpu& gpu = st.pool.device(d).gpu();
    h2d += gpu.stats().h2d_bytes;
    d2h += gpu.stats().d2h_bytes;
    busy += gpu.compute_wall_busy();
  }
  // PCIe throughput over this tick's window: the bytes since the previous
  // tick, one window ago.
  const double h2d_gbps = per_s(h2d - st.last_h2d_bytes) / 1e9;
  const double d2h_gbps = per_s(d2h - st.last_d2h_bytes) / 1e9;
  const double utilization =
      static_cast<double>(busy - st.last_compute_busy) /
      (static_cast<double>(window) * static_cast<double>(st.pool.size()));
  st.last_h2d_bytes = h2d;
  st.last_d2h_bytes = d2h;
  st.last_compute_busy = busy;

  double fault_rate = 0.0;
  if (st.fault_plane != nullptr) {
    const std::uint64_t injected = st.fault_plane->stats().injected;
    fault_rate = static_cast<double>(injected - st.last_fault_injected) /
                 (static_cast<double>(window) * 1e-12);
    st.last_fault_injected = injected;
  }

  if (st.config.tracer != nullptr) {
    std::vector<std::uint64_t> device_jobs(st.pool.size(), 0);
    for (const Job* job : period.finished) {
      // Spilled jobs completed on the host cores, not on record.device.
      if (!job->record.cpu_executed) ++device_jobs[job->record.device];
    }
    const std::uint32_t pid = st.config.tracer->process("serve");
    st.config.tracer->counter_set(pid, "prof.jobs_per_s", now, jobs_per_s);
    st.config.tracer->counter_set(pid, "prof.h2d_gbps", now, h2d_gbps);
    st.config.tracer->counter_set(pid, "prof.d2h_gbps", now, d2h_gbps);
    for (std::uint32_t d = 0; d < st.pool.size(); ++d) {
      const std::uint32_t dev_pid =
          st.config.tracer->process(st.pool.device(d).device_name());
      st.config.tracer->counter_set(dev_pid, "prof.jobs_per_s", now,
                                    per_s(device_jobs[d]));
    }
  }

  if (!st.slo.rules().empty()) {
    const auto [p50, p95, p99] = percentiles(st.finished);
    const std::array<double, kSloMetrics.size()> snapshot = {
        to_ms(p50),
        to_ms(p95),
        to_ms(p99),
        jobs_per_s,
        period.mean_depth,
        utilization,
        fault_rate,
        h2d_gbps,
        d2h_gbps};
    std::map<std::string, double> values;
    for (std::size_t i = st.finished.empty() ? kSloPercentiles : 0;
         i < kSloMetrics.size(); ++i) {
      values.emplace(kSloMetrics[i], snapshot[i]);
    }
    st.slo.evaluate(now, values);
  }
}

/// How one run attempt of a job ended.
enum class RunEnd : std::uint8_t {
  kCompleted,
  /// The simulated crash stopped it before its next window.
  kCrashed,
  /// An unrecovered fault: retries exhausted, watchdog timeout or an
  /// unrepairable integrity mismatch.
  kFault,
  /// The device was lost; it quarantines at once.
  kDeviceLost,
};

/// bigkdur: runs `job` as a sequence of checkpoint windows, each through
/// `run_window(rec_begin, rec_end)`, with a journal write after each, so a
/// later attempt — redispatch after a failure, or a fresh server over the
/// same journal — resumes from the last checkpoint instead of record zero.
/// Resume is verified: the runner's current output prefix must re-digest to
/// the journaled value, otherwise the output did not survive and the job
/// restarts from zero. Device and spilled runs share it; `run_window` is an
/// engine launch or the host cores' fan-out.
template <class RunWindow>
sim::Task<RunEnd> run_windows(ServerState& st, Job& job, RunWindow run_window) {
  const std::uint64_t total = job.runner->num_records();
  const std::uint64_t window = st.config.dur.checkpoint_records > 0
                                   ? st.config.dur.checkpoint_records
                                   : total;
  dur::JobJournal* journal = st.config.dur.journal;
  std::uint64_t begin = 0;
  std::uint64_t journaled = 0;
  std::uint64_t windows_done = 0;
  if (journal != nullptr) {
    if (const dur::JobCheckpoint* cp = journal->find(job.record.spec.id)) {
      journaled = cp->records_done;
      // A zero digest means the app has no write-mode streams — its
      // output lives in table state the journal cannot vouch for — so
      // only a nonzero digest match proves the checkpoint survived.
      const std::uint64_t digest =
          cp->records_done > 0 ? job.runner->output_digest(cp->records_done)
                               : 0;
      if (digest != 0 && digest == cp->output_digest) {
        begin = std::min(cp->records_done, total);
        windows_done = cp->windows_done;
      }
    }
  }
  const std::uint64_t prior = std::max(job.progress, journaled);
  if (begin > 0) {
    ++st.resumed;
    job.record.resumed = true;
    st.trace_serve_instant("job " + std::to_string(job.record.spec.id) +
                           " resumed at record " + std::to_string(begin));
  }
  for (std::uint64_t wb = begin; wb < total;) {
    if (st.crashed) co_return RunEnd::kCrashed;
    const std::uint64_t we = std::min(wb + window, total);
    // Unrecovered faults surface here; anything else — checker violations
    // included — ends the run and propagates out of run_server.
    RunEnd fault = RunEnd::kCompleted;
    try {
      co_await run_window(wb, we);
    } catch (const fault::DeviceLostError&) {
      fault = RunEnd::kDeviceLost;
    } catch (const fault::FaultError&) {
      fault = RunEnd::kFault;
    }
    if (fault != RunEnd::kCompleted) co_return fault;
    if (we <= prior) ++st.chunks_replayed;
    job.progress = std::max(job.progress, we);
    ++windows_done;
    if (journal != nullptr) {
      const std::uint64_t digest = job.runner->output_digest(we);
      if (we == total) {
        journal->mark_complete(job.record.spec.id, we, digest);
      } else {
        journal->record(job.record.spec.id, we, windows_done, digest);
      }
    }
    wb = we;
  }
  co_return RunEnd::kCompleted;
}

/// Per-device worker: drains the device's dispatch FIFO one job at a time.
/// Cold jobs first stage their mapped input through the shared host memory
/// bus (one sequential read + one streamed write of input_bytes); warm jobs
/// reuse the dataset the previous same-app job left resident.
sim::Task<> device_worker(ServerState& st, std::uint32_t device_index) {
  cusim::Runtime& device = st.pool.device(device_index);
  hostsim::HostThread staging = st.pool.cpu().make_thread(2);
  staging.set_trace_label(device.device_name() + " staging");
  while (true) {
    std::optional<Job*> item = co_await st.dispatch[device_index]->pop();
    if (!item.has_value()) break;  // channel closed and drained
    Job& job = **item;
    if (st.scheduler.quarantined(device_index)) {
      // The device went down with this job still queued behind it.
      redispatch(st, device_index, job);
      continue;
    }
    if (st.crashed) {
      fail_job(st, job, device_index, "server crashed");
      continue;
    }
    job.record.start_time = st.sim.now();
    if (!job.record.warm && job.record.input_bytes > 0) {
      staging.read_sequential(core::kStagingRegionBase + device_index, 0,
                              job.record.input_bytes);
      staging.write_stream(job.record.input_bytes);
      co_await staging.commit();
    }
    job.record.staging_done_time = st.sim.now();
    std::unique_ptr<check::Sanitizer> sanitizer;
    if (st.config.check.enabled) {
      sanitizer =
          std::make_unique<check::Sanitizer>(st.config.check, st.config.metrics);
      sanitizer->install(device.gpu());
    }
    apps::JobRunConfig run_cfg;
    run_cfg.engine = st.config.engine;
    run_cfg.sanitizer = sanitizer.get();
    if (!st.caches.empty()) {
      run_cfg.chunk_cache = st.caches[device_index].get();
      run_cfg.pinned_pool = st.pools[device_index].get();
      run_cfg.dataset_id = dataset_id_of(job.record.spec.app);
    }
    run_cfg.exec_done = &job.record.exec_done_time;
    run_cfg.static_signature = job.static_signature;
    const RunEnd end = co_await run_windows(
        st, job, [&](std::uint64_t rec_begin, std::uint64_t rec_end) {
          run_cfg.rec_begin = rec_begin;
          run_cfg.rec_end = rec_end;
          return job.runner->run(device, run_cfg);
        });
    const bool faulted = end == RunEnd::kFault || end == RunEnd::kDeviceLost;
    if (sanitizer != nullptr) {
      sanitizer->uninstall();
      if (!faulted) sanitizer->finalize();  // throws check::CheckError
    }
    if (end == RunEnd::kCrashed) {
      fail_job(st, job, device_index, "server crashed");
      continue;
    }
    if (faulted) {
      // On quarantine the scheduler skips the device, and its chunk cache is
      // dropped as a device reset: device memory is not trusted across the
      // outage (pipecheck flags any read through a surviving lease).
      if (st.scheduler.on_failure(device_index, end == RunEnd::kDeviceLost)) {
        if (!st.caches.empty()) {
          st.caches[device_index]->invalidate_all(st.sim.now(),
                                                  /*device_reset=*/true);
        }
        st.trace_serve_instant("quarantine dev" +
                               std::to_string(device_index));
      }
      redispatch(st, device_index, job);
      continue;
    }
    st.scheduler.on_success(device_index);
    complete(st, job, device_index);
  }
}

/// bigkhetero CPU worker: drains spilled jobs one at a time, running each on
/// the shared host cores (JobRunner::run_cpu — no staging, no DMA, no
/// engine) in the same checkpoint windows as a device run. A spilled job
/// holds no device slot, so its exits name no device.
sim::Task<> cpu_worker(ServerState& st) {
  while (true) {
    std::optional<Job*> item = co_await st.cpu_dispatch->pop();
    if (!item.has_value()) break;  // channel closed and drained
    Job& job = **item;
    if (st.crashed) {
      fail_job(st, job, std::nullopt, "server crashed");
      continue;
    }
    job.record.start_time = st.sim.now();
    job.record.staging_done_time = job.record.start_time;  // no staging
    apps::CpuJobConfig cpu_cfg;
    cpu_cfg.exec_done = &job.record.exec_done_time;
    const RunEnd end = co_await run_windows(
        st, job, [&](std::uint64_t rec_begin, std::uint64_t rec_end) {
          cpu_cfg.rec_begin = rec_begin;
          cpu_cfg.rec_end = rec_end;
          return job.runner->run_cpu(st.pool.cpu(), cpu_cfg);
        });
    // The host cores inject no faults: a spilled run completes or crashes.
    if (end == RunEnd::kCompleted) {
      complete(st, job, std::nullopt);
    } else {
      fail_job(st, job, std::nullopt, "server crashed");
    }
  }
}

/// bigkload autoscaler tick (every qos.autoscaler.period): feeds the
/// period's mean admission-queue depth and the p99 latency of the jobs that
/// finished in it to the Autoscaler, has the scheduler apply the returned
/// step, and dispatches onto any device that woke.
void autoscaler_tick(ServerState& st) {
  const sim::TimePs now = st.sim.now();
  const Period period = take_period(st, st.scaler_cursor);
  const double p99 = to_ms(percentiles(period.finished)[2]);
  const Scheduler::Scaling scaling = st.scheduler.scale(st.autoscaler->decide(
      period.mean_depth, p99, st.scheduler.active_devices()));
  const auto trace = [&st](std::uint32_t device, const char* what,
                           const char* why) {
    if (device == st.pool.size()) return false;
    st.trace_serve_instant(what + std::to_string(device) + why);
    return true;
  };
  const bool woken = trace(scaling.woken, "scale-up dev", "");
  trace(scaling.parked, "scale-down dev", "");
  const bool failover = trace(scaling.failover, "scale-up dev", " (failover)");
  if (woken || failover) dispatch(st);
  const auto active = static_cast<double>(st.scheduler.active_devices());
  if (st.config.metrics != nullptr) {
    st.config.metrics->gauge(st.metrics_scope + ".autoscaler.active")
        .set(active);
  }
  if (st.config.tracer != nullptr) {
    const std::uint32_t pid = st.config.tracer->process("serve");
    st.config.tracer->counter_set(pid, "load.active_devices", now, active);
  }
}

/// Runs a worker. An error that escapes it (a checker violation, or a job
/// error that is no fault::FaultError) ends the run: shutdown stops the
/// daemons, the event queue drains, and run_server rethrows the error
/// instead of waiting for a job that never settles.
sim::Task<> stop_on_error(ServerState& st, sim::Task<> worker) {
  try {
    co_await std::move(worker);
  } catch (...) {
    st.shutdown = true;
    throw;
  }
}

sim::Task<> serve_main(ServerState& st) {
  // One chain client per JobSpec::client in closed loop, one per job in open
  // loop; spec order is preserved inside each chain, and std::map keys make
  // the spawn order deterministic.
  std::map<std::uint64_t, std::vector<std::size_t>> chains;
  for (std::size_t i = 0; i < st.jobs.size(); ++i) {
    chains[st.config.qos.closed_loop ? st.jobs[i].record.spec.client : i]
        .push_back(i);
  }
  std::vector<sim::Process> clients;
  clients.reserve(chains.size());
  for (auto& entry : chains) {
    clients.push_back(st.sim.spawn(chain_client(st, std::move(entry.second))));
  }
  std::vector<sim::Process> workers;
  workers.reserve(st.pool.size());
  for (std::uint32_t d = 0; d < st.pool.size(); ++d) {
    workers.push_back(st.sim.spawn(stop_on_error(st, device_worker(st, d))));
  }
  sim::Process spill_worker;
  if (st.cpu_dispatch != nullptr) {
    spill_worker = st.sim.spawn(stop_on_error(st, cpu_worker(st)));
  }
  // The spawn order decides ties between daemon events at one instant.
  std::vector<sim::Process> daemons;
  if (st.autoscaler != nullptr) {
    daemons.push_back(st.sim.spawn(every(st, st.config.qos.autoscaler.period,
                                         [&st] { autoscaler_tick(st); })));
  }
  if (st.fault_plane != nullptr) {
    daemons.push_back(st.sim.spawn(
        every(st, st.config.probe_interval, [&st] { probe_tick(st); })));
  }
  daemons.push_back(st.sim.spawn(
      every(st, st.config.prof_window, [&st] { telemetry_tick(st); })));
  if (st.config.dur.crash_at > 0) {
    daemons.push_back(st.sim.spawn(crash_daemon(st)));
  }
  if (st.config.dur.scrub_period > 0 && st.config.dur.scrub_entries > 0) {
    for (std::uint32_t d = 0; d < st.pool.size(); ++d) {
      daemons.push_back(st.sim.spawn(every(st, st.config.dur.scrub_period,
                                           [&st, d] { scrub_tick(st, d); })));
    }
  }
  for (sim::Process& process : clients) co_await process.join();
  // Redispatch can push a failed job onto another device's queue long after
  // every client returned, so the channels stay open until every job has
  // actually settled (completed, failed, or shed).
  co_await st.all_settled.wait_ge(st.jobs.size());
  st.finish_time = st.sim.now();
  st.shutdown = true;
  for (auto& channel : st.dispatch) channel->close();
  if (st.cpu_dispatch != nullptr) st.cpu_dispatch->close();
  for (sim::Process& process : workers) co_await process.join();
  if (spill_worker.valid()) co_await spill_worker.join();
  for (sim::Process& daemon : daemons) co_await daemon.join();
}

}  // namespace

ServeReport run_server(const ServerConfig& config,
                       const std::vector<JobSpec>& specs,
                       const std::vector<apps::BenchApp>& suite) {
  if (config.dur.scrub_period > 0 && config.dur.scrub_entries > 0 &&
      !(config.dur.integrity && config.cache_enabled)) {
    throw std::invalid_argument(
        "dur.scrub_period needs dur.integrity and cache_enabled: the scrub "
        "daemon re-verifies chunk-cache entries against their digests");
  }
  // A zero period would re-arm its daemon at one instant forever.
  if (config.probe_interval == 0) {
    throw std::invalid_argument(
        "probe_interval must be > 0: it is the period of the reinstatement "
        "probe");
  }
  if (config.prof_window == 0) {
    throw std::invalid_argument(
        "prof_window must be > 0: it is the telemetry period and the window "
        "of every profiler");
  }
  if (config.qos.autoscaler.enabled && config.qos.autoscaler.period == 0) {
    throw std::invalid_argument(
        "qos.autoscaler.period must be > 0 when the autoscaler is enabled: "
        "it is the decision period");
  }
  ServerState state(config);
  state.jobs.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    Job job;
    job.record.spec = spec;
    if (!config.qos.tenants.empty()) {
      if (spec.tenant >= config.qos.tenants.size()) {
        throw std::invalid_argument(
            "job " + std::to_string(spec.id) + " names tenant index " +
            std::to_string(spec.tenant) + " but only " +
            std::to_string(config.qos.tenants.size()) +
            " tenants are configured");
      }
      job.tenant = spec.tenant;
    }
    job.done = std::make_unique<sim::Flag>(state.sim);
    const apps::BenchApp& app = apps::find_app(suite, spec.app);
    // bigkstatic gate: refuse kernels the static verifier rejects, naming
    // the first violation so the submitter can find the offending line.
    const verify::KernelReport& verdict = apps::static_verdict(app);
    if (!verdict.passed) {
      const std::string reason =
          verdict.violations.empty()
              ? std::string("static verification failed")
              : verify::violation_line(verdict.violations.front());
      throw std::invalid_argument("app \"" + spec.app +
                                  "\" refused admission: " + reason);
    }
    job.static_signature = verdict.pattern_signature;
    job.runner = app.make_runner();
    job.record.input_bytes = job.runner->input_bytes();
    state.jobs.push_back(std::move(job));
  }

  state.sim.run_until_complete(serve_main(state));

  ServeReport report;
  report.makespan = state.finish_time;
  for (const Job* job : state.finished) {
    report.completion_order.push_back(job->record.spec.id);
  }
  std::vector<const JobRecord*> pool_records;
  for (const Job& job : state.jobs) pool_records.push_back(&job.record);
  static_cast<Outcome&>(report) = summarize(pool_records, report.makespan);
  report.rejections_queue_full = state.queue.rejected(RejectCause::kQueueFull);
  report.rejections_no_device = state.queue.rejected(RejectCause::kNoDevice);
  report.rejections_tenant_quota =
      state.queue.rejected(RejectCause::kTenantQuota);
  report.peak_queue_depth = state.queue.peak_depth();
  report.quarantines = state.scheduler.quarantines();
  report.reinstatements = state.scheduler.reinstatements();
  if (state.fault_plane != nullptr) {
    const fault::FaultStats& fs = state.fault_plane->stats();
    report.fault_injected = fs.injected;
    report.fault_recovered = fs.recovered;
    report.bitflips_injected =
        fs.injected_by_kind[static_cast<std::size_t>(
            fault::FaultKind::kBitflipDma)] +
        fs.injected_by_kind[static_cast<std::size_t>(
            fault::FaultKind::kBitflipCache)] +
        fs.injected_by_kind[static_cast<std::size_t>(
            fault::FaultKind::kBitflipWriteback)];
  }
  if (state.integrity != nullptr) {
    const dur::IntegrityStats& ds = state.integrity->stats();
    report.integrity_verified = ds.verified;
    report.integrity_detected = ds.detected;
    report.integrity_repaired = ds.repaired;
    report.scrub_checked = ds.scrubbed;
    report.scrub_evictions = ds.scrub_evictions;
  }
  report.resumed = state.resumed;
  report.chunks_replayed = state.chunks_replayed;
  report.crashed = state.crashed;
  report.devices.resize(state.pool.size());

  JobRecord::Breakdown breakdown_sums;
  for (const Job& job : state.jobs) {
    const JobRecord& record = job.record;
    report.redispatches += record.redispatches;
    if (record.cpu_executed) {
      ++report.spills;
      if (record.completed) ++report.cpu_completed;
    }
    if (record.completed) {
      const JobRecord::Breakdown b = record.breakdown();
      breakdown_sums.admission += b.admission;
      breakdown_sums.queue += b.queue;
      breakdown_sums.staging += b.staging;
      breakdown_sums.execution += b.execution;
      breakdown_sums.writeback += b.writeback;
      if (!record.cpu_executed) {
        // Spilled jobs completed on the host cores, not on record.device.
        DeviceReport& dev = report.devices[record.device];
        ++dev.jobs;
        if (record.warm) {
          ++dev.warm_jobs;
          ++report.warm_hits;
        }
      }
    }
    report.jobs.push_back(record);
  }

  if (report.completed > 0) {
    const double n = static_cast<double>(report.completed);
    report.breakdown_admission_ms = to_ms(breakdown_sums.admission) / n;
    report.breakdown_queue_ms = to_ms(breakdown_sums.queue) / n;
    report.breakdown_staging_ms = to_ms(breakdown_sums.staging) / n;
    report.breakdown_execution_ms = to_ms(breakdown_sums.execution) / n;
    report.breakdown_writeback_ms = to_ms(breakdown_sums.writeback) / n;
    report.breakdown_total_ms = to_ms(breakdown_sums.total()) / n;
  }
  report.slo_rules = state.slo.rules().size();
  report.slo_violations = state.slo.violations();
  for (std::uint32_t d = 0; d < state.pool.size(); ++d) {
    const gpusim::Gpu& gpu = state.pool.device(d).gpu();
    DeviceReport& dev = report.devices[d];
    dev.h2d_bytes = gpu.stats().h2d_bytes;
    dev.d2h_bytes = gpu.stats().d2h_bytes;
    dev.kernel_launches = gpu.stats().kernel_launches;
    if (report.makespan > 0) {
      dev.utilization = static_cast<double>(gpu.compute_wall_busy()) /
                        static_cast<double>(report.makespan);
    }
    if (!state.caches.empty()) {
      const cache::ChunkCache::Stats& stats = state.caches[d]->stats();
      dev.cache_hits = stats.hits;
      dev.cache_misses = stats.misses;
      dev.cache_evictions = stats.evictions;
      dev.cache_bytes_saved = stats.bytes_saved;
      dev.cache_hit_rate = state.caches[d]->hit_rate();
      report.cache_hits += stats.hits;
      report.cache_misses += stats.misses;
      report.cache_bytes_saved += stats.bytes_saved;
    }
    const obs::prof::StageProfiler& prof = *state.profilers[d];
    const obs::prof::Attribution attribution =
        obs::prof::attribute(prof.busy(), report.makespan);
    dev.bottleneck_stage = attribution.bottleneck_index();
    dev.overlap_efficiency = attribution.overlap_efficiency;
    dev.prof_windows = prof.window_count();
    dev.bottleneck_flips = prof.bottleneck_flips();
  }
  obs::prof::StageBusy pool_busy{};
  for (const auto& prof : state.profilers) {
    const obs::prof::StageBusy busy = prof->busy();
    for (std::size_t s = 0; s < obs::kStageCount; ++s) pool_busy[s] += busy[s];
    report.prof_windows += prof->window_count();
    report.bottleneck_flips += prof->bottleneck_flips();
  }
  const obs::prof::Attribution attribution =
      obs::prof::attribute(pool_busy, report.makespan);
  report.bottleneck_stage = attribution.bottleneck_index();
  report.overlap_efficiency = attribution.overlap_efficiency;
  if (report.cache_hits + report.cache_misses > 0) {
    report.cache_hit_rate =
        static_cast<double>(report.cache_hits) /
        static_cast<double>(report.cache_hits + report.cache_misses);
  }

  // --- bigkload QoS plane --------------------------------------------------
  report.min_active_devices = state.scheduler.min_active_devices();
  report.max_active_devices = state.scheduler.max_active_devices();
  report.final_active_devices = state.scheduler.active_devices();
  if (state.autoscaler != nullptr) {
    report.scale_ups = state.autoscaler->scale_ups();
    report.scale_downs = state.autoscaler->scale_downs();
  }
  sim::TimePs offered_window = config.qos.offered_window;
  if (offered_window == 0) {
    for (const JobRecord& record : report.jobs) {
      offered_window = std::max(offered_window, record.spec.submit_time);
    }
  }
  if (offered_window > 0) {
    report.offered_jobs_per_s = static_cast<double>(report.submitted) /
                                (static_cast<double>(offered_window) * 1e-12);
  }
  std::vector<double> normalized;
  for (std::uint32_t t = 0; t < config.qos.tenants.size(); ++t) {
    std::vector<const JobRecord*> tenant_records;
    for (const Job& job : state.jobs) {
      if (job.record.spec.tenant == t) tenant_records.push_back(&job.record);
    }
    TenantReport& tenant = report.tenants.emplace_back();
    static_cast<Outcome&>(tenant) = summarize(tenant_records, report.makespan);
    tenant.name = config.qos.tenants[t].name;
    tenant.slo = config.qos.tenants[t].slo;
    tenant.weight = config.qos.tenants[t].weight;
    // Weight-0 background tenants are excluded: they hold no fair-share
    // entitlement, so they neither lift nor sink the index.
    if (tenant.weight > 0) {
      normalized.push_back(tenant.goodput_jobs_per_s /
                           static_cast<double>(tenant.weight));
    }
  }
  report.fairness_jain = jain_index(normalized);

  if (config.metrics != nullptr) {
    report.export_metrics(*config.metrics, state.metrics_scope);
  }
  return report;
}

void ServeReport::export_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  registry.gauge(prefix + ".jobs").set(static_cast<double>(submitted));
  registry.gauge(prefix + ".completed").set(static_cast<double>(completed));
  registry.gauge(prefix + ".dropped").set(static_cast<double>(dropped));
  registry.gauge(prefix + ".rejections").set(static_cast<double>(rejections));
  registry.gauge(prefix + ".deadline_misses")
      .set(static_cast<double>(deadline_misses));
  registry.gauge(prefix + ".warm_hits").set(static_cast<double>(warm_hits));
  registry.gauge(prefix + ".failed_jobs").set(static_cast<double>(failed_jobs));
  registry.gauge(prefix + ".redispatches")
      .set(static_cast<double>(redispatches));
  registry.gauge(prefix + ".quarantines").set(static_cast<double>(quarantines));
  registry.gauge(prefix + ".reinstatements")
      .set(static_cast<double>(reinstatements));
  registry.gauge(prefix + ".rejections.queue_full")
      .set(static_cast<double>(rejections_queue_full));
  registry.gauge(prefix + ".rejections.no_device")
      .set(static_cast<double>(rejections_no_device));
  registry.gauge(prefix + ".hetero.spills").set(static_cast<double>(spills));
  registry.gauge(prefix + ".hetero.cpu_completed")
      .set(static_cast<double>(cpu_completed));
  registry.gauge(prefix + ".fault.injected")
      .set(static_cast<double>(fault_injected));
  registry.gauge(prefix + ".fault.recovered")
      .set(static_cast<double>(fault_recovered));
  registry.gauge(prefix + ".dur.verified")
      .set(static_cast<double>(integrity_verified));
  registry.gauge(prefix + ".dur.detected")
      .set(static_cast<double>(integrity_detected));
  registry.gauge(prefix + ".dur.repaired")
      .set(static_cast<double>(integrity_repaired));
  registry.gauge(prefix + ".dur.injected")
      .set(static_cast<double>(bitflips_injected));
  registry.gauge(prefix + ".dur.scrub_checked")
      .set(static_cast<double>(scrub_checked));
  registry.gauge(prefix + ".dur.scrub_evictions")
      .set(static_cast<double>(scrub_evictions));
  registry.gauge(prefix + ".dur.resumed").set(static_cast<double>(resumed));
  registry.gauge(prefix + ".dur.chunks_replayed")
      .set(static_cast<double>(chunks_replayed));
  registry.gauge(prefix + ".dur.crashed").set(crashed ? 1.0 : 0.0);
  registry.gauge(prefix + ".cache.hits").set(static_cast<double>(cache_hits));
  registry.gauge(prefix + ".cache.misses")
      .set(static_cast<double>(cache_misses));
  registry.gauge(prefix + ".cache.bytes_saved")
      .set(static_cast<double>(cache_bytes_saved));
  registry.gauge(prefix + ".cache.hit_rate").set(cache_hit_rate);
  registry.gauge(prefix + ".peak_queue_depth")
      .set(static_cast<double>(peak_queue_depth));
  registry.gauge(prefix + ".makespan_ms").set(to_ms(makespan));
  registry.gauge(prefix + ".latency_p50_ms").set(to_ms(latency_p50));
  registry.gauge(prefix + ".latency_p95_ms").set(to_ms(latency_p95));
  registry.gauge(prefix + ".latency_p99_ms").set(to_ms(latency_p99));
  registry.gauge(prefix + ".throughput_jobs_per_s").set(throughput_jobs_per_s);
  registry.gauge(prefix + ".prof.bottleneck_stage")
      .set(static_cast<double>(bottleneck_stage));
  registry.gauge(prefix + ".prof.overlap_efficiency").set(overlap_efficiency);
  registry.gauge(prefix + ".prof.windows")
      .set(static_cast<double>(prof_windows));
  registry.gauge(prefix + ".prof.bottleneck_flips")
      .set(static_cast<double>(bottleneck_flips));
  registry.gauge(prefix + ".breakdown.admission_ms").set(breakdown_admission_ms);
  registry.gauge(prefix + ".breakdown.queue_ms").set(breakdown_queue_ms);
  registry.gauge(prefix + ".breakdown.staging_ms").set(breakdown_staging_ms);
  registry.gauge(prefix + ".breakdown.execution_ms").set(breakdown_execution_ms);
  registry.gauge(prefix + ".breakdown.writeback_ms").set(breakdown_writeback_ms);
  registry.gauge(prefix + ".breakdown.total_ms").set(breakdown_total_ms);
  registry.gauge(prefix + ".slo.rules").set(static_cast<double>(slo_rules));
  registry.gauge(prefix + ".slo.violations")
      .set(static_cast<double>(slo_violations));
  registry.gauge(prefix + ".rejections.tenant_quota")
      .set(static_cast<double>(rejections_tenant_quota));
  registry.gauge(prefix + ".load.offered_jobs_per_s").set(offered_jobs_per_s);
  registry.gauge(prefix + ".load.goodput_jobs_per_s").set(goodput_jobs_per_s);
  registry.gauge(prefix + ".load.slo_attained")
      .set(static_cast<double>(slo_attained));
  registry.gauge(prefix + ".fairness.jain").set(fairness_jain);
  registry.gauge(prefix + ".autoscaler.scale_ups")
      .set(static_cast<double>(scale_ups));
  registry.gauge(prefix + ".autoscaler.scale_downs")
      .set(static_cast<double>(scale_downs));
  registry.gauge(prefix + ".autoscaler.min_active")
      .set(static_cast<double>(min_active_devices));
  registry.gauge(prefix + ".autoscaler.max_active")
      .set(static_cast<double>(max_active_devices));
  registry.gauge(prefix + ".autoscaler.final_active")
      .set(static_cast<double>(final_active_devices));
  for (const TenantReport& tenant : tenants) {
    const std::string tenant_prefix = prefix + ".tenant." + tenant.name;
    registry.gauge(tenant_prefix + ".weight")
        .set(static_cast<double>(tenant.weight));
    registry.gauge(tenant_prefix + ".submitted")
        .set(static_cast<double>(tenant.submitted));
    registry.gauge(tenant_prefix + ".completed")
        .set(static_cast<double>(tenant.completed));
    registry.gauge(tenant_prefix + ".shed")
        .set(static_cast<double>(tenant.dropped));
    registry.gauge(tenant_prefix + ".goodput_jobs_per_s")
        .set(tenant.goodput_jobs_per_s);
    registry.gauge(tenant_prefix + ".attainment").set(tenant.slo_attainment);
    registry.gauge(tenant_prefix + ".p99_ms").set(to_ms(tenant.latency_p99));
  }
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const std::string dev_prefix = prefix + ".dev" + std::to_string(d);
    registry.gauge(dev_prefix + ".utilization").set(devices[d].utilization);
    registry.gauge(dev_prefix + ".jobs")
        .set(static_cast<double>(devices[d].jobs));
    registry.gauge(dev_prefix + ".warm_jobs")
        .set(static_cast<double>(devices[d].warm_jobs));
    registry.gauge(dev_prefix + ".bottleneck_stage")
        .set(static_cast<double>(devices[d].bottleneck_stage));
  }
}

}  // namespace bigk::serve
