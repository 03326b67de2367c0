// bigkserve: an SLA-aware serving layer over a cusim::DevicePool.
//
// run_server() plays a job workload against N simulated devices behind one
// shared host CPU:
//   submit -> JobQueue admission (bounded depth, tenant quotas, reject with
//             retry-after)
//          -> QosQueue (the configured tenants under WFQ or FIFO, or one
//             default tenant under FIFO)
//          -> dispatch: Scheduler placement (round-robin / least-bytes /
//             app-affinity) onto a device holding fewer jobs than the
//             per-device limit — 1 with tenants (late binding), unbounded
//             without (placement at admission)
//          -> per-device FIFO worker: cold jobs stage their mapped input
//             through the shared host memory bus, then core::Engine
//             launches run the app's kernel on that device (BigKernel
//             pipeline, per-job sanitizer when checking is enabled), one
//             per checkpoint window.
// With hetero.spill_enabled an admitted job may instead run on the host
// cores, in the same checkpoint windows. Every job exit (completion,
// failure, crash) releases its slots through one path and dispatches again.
//
// Everything is deterministic: the same config + workload produce the same
// schedule, completion order, latencies, and metrics, byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "check/options.hpp"
#include "core/options.hpp"
#include "dur/journal.hpp"
#include "gpusim/config.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "serve/autoscaler.hpp"
#include "serve/job.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/tenant.hpp"
#include "serve/wfq.hpp"
#include "sim/time.hpp"

namespace bigk::serve {

struct ServerConfig {
  /// Per-device system model (every device is built from this; the shared
  /// host CPU comes from system.cpu).
  gpusim::SystemConfig system;
  std::uint32_t devices = 1;
  Policy policy = Policy::kRoundRobin;

  /// Admission control: max admitted-but-unfinished jobs across the pool.
  std::uint32_t queue_depth = 16;
  /// Retry-after hint returned on a client's first rejection; it doubles per
  /// consecutive rejection up to 8x.
  sim::DurationPs retry_after = sim::DurationPs{1'000'000'000};  // 1 ms
  /// Resubmissions a client attempts before giving up (0 = no retries).
  std::uint32_t max_retries = 64;

  /// Engine options for every job's BigKernel launch.
  core::Options engine;

  /// bigkcache: when enabled, every device gets a chunk cache (a partition
  /// of its arena) plus a pinned assembly-buffer pool, shared by all jobs on
  /// that device. Repeat jobs of an app whose chunks are still resident skip
  /// the assembly + PCIe transfer for those chunks, and the app-affinity
  /// warm-preference bound upgrades from "job input bytes" to the cache's
  /// live resident-bytes estimate.
  bool cache_enabled = false;
  /// Cache partition per device; 0 = a quarter of the device arena.
  std::uint64_t cache_bytes = 0;
  /// When enabled, each job runs under a fresh check::Sanitizer installed on
  /// its device; a violation throws check::CheckError out of run_server.
  check::CheckOptions check;

  // --- bigkfault ---------------------------------------------------------
  /// Fault specs (fault::FaultSpec::parse grammar, ';'-separated) installed
  /// on a pool-wide fault::FaultPlane; every engine launch and DMA stream
  /// injects from it under the device's pool index. Empty = no plane, and
  /// the server behaves byte-identically to the fault-free build.
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  /// Period of the reinstatement probe run against quarantined devices;
  /// must be > 0.
  sim::DurationPs probe_interval = sim::DurationPs{2'000'000'000};  // 2 ms
  /// bigkdur flap damping: consecutive clean probes a quarantined device
  /// must pass before reinstatement (1 = first clean probe reinstates).
  std::uint32_t reinstate_after = 1;

  // --- bigkprof -----------------------------------------------------------
  /// Attribution / telemetry window: every device gets a StageProfiler with
  /// this window, and once per window the telemetry daemon publishes the
  /// completions, queue depth and PCIe/compute/fault deltas since its
  /// previous tick and evaluates the SLO monitor. Must be > 0 (run_server
  /// throws std::invalid_argument otherwise). Default 100 us.
  sim::DurationPs prof_window = sim::DurationPs{100'000'000};
  /// Declarative SLO rules over the telemetry metrics, ';'-separated
  /// "<metric> <op> <threshold>" (obs::prof::parse_slo_rules grammar).
  /// Metrics: p50_ms p95_ms p99_ms (nearest-rank over every job completed so
  /// far) and, over the window, throughput_jobs_per_s queue_depth
  /// utilization fault_rate h2d_gbps d2h_gbps; run_server throws
  /// std::invalid_argument on a rule over any other name. Empty = no rules.
  std::string slo_spec;

  // --- bigkload QoS plane --------------------------------------------------
  struct QosConfig {
    /// Tenants in JobSpec::tenant index order. With tenants a device holds
    /// one job at a time, so an admitted job waits in the discipline's order
    /// and is placed when a device goes idle. Empty = one default weight-1
    /// tenant without quota under FIFO, and every admitted job is placed at
    /// admission, queueing on its device (JobSpec::tenant is ignored).
    std::vector<TenantConfig> tenants;
    /// Ordering of admitted jobs across tenants while they wait for a free
    /// device (kWfq default; kFifo is the baseline for A/B runs). Ignored
    /// without tenants.
    Discipline discipline = Discipline::kWfq;
    /// Closed-loop mode: jobs sharing a JobSpec::client id form one chain —
    /// each submits only after the previous settled plus the tenant's think
    /// time, 0 for the default tenant. Open loop (the default) is a chain of
    /// one per job, submitted at its stamped instant.
    bool closed_loop = false;
    /// Denominator for the offered-load gauge; 0 = the last submit instant.
    sim::DurationPs offered_window = 0;
    /// Pool autoscaler (enabled flag inside; works with or without tenants).
    AutoscalerConfig autoscaler;
  };
  QosConfig qos;

  // --- bigkhetero spill-over ----------------------------------------------
  struct HeteroConfig {
    /// Spill jobs to host-core execution (JobRunner::run_cpu — no staging,
    /// no DMA, the same checkpoint windows as a device run) when no device
    /// is available at placement time or the pool backlog exceeds
    /// `spill_depth`. Off = byte-identical to the pre-hetero build.
    bool spill_enabled = false;
    /// Outstanding-jobs threshold past which admitted jobs spill to the CPU
    /// instead of queueing for a device. A spilled job runs on all of the
    /// host's hardware threads.
    std::uint32_t spill_depth = 8;
  };
  HeteroConfig hetero;

  // --- bigkdur durability & integrity --------------------------------------
  struct DurConfig {
    /// End-to-end chunk integrity: every chunk's FNV digest is computed once
    /// at assembly and re-verified after DMA, on every cache hit, on staged
    /// write-back, and on the hetero CPU partition. Off = byte-identical to
    /// the pre-dur build (no digests, no verification).
    bool integrity = false;
    /// Durable per-job progress journal, owned by the caller so it survives
    /// a simulated server crash: build a new server over the same journal
    /// and in-flight jobs resume from their last verified checkpoint. Null =
    /// no checkpointing (jobs always run whole).
    dur::JobJournal* journal = nullptr;
    /// Records per checkpoint window; a job runs as a sequence of windows
    /// with a journal write after each. 0 = the whole job is one window.
    std::uint64_t checkpoint_records = 0;
    /// Simulated whole-server crash instant (0 = never). At `crash_at` the
    /// workers stop launching new windows; in-flight and queued jobs settle
    /// as failed so run_server returns, and a fresh run_server over the same
    /// journal models the restart.
    sim::TimePs crash_at = 0;
    /// Background cache scrub daemon: every `scrub_period` each device's
    /// chunk cache re-verifies up to `scrub_entries` resident entries and
    /// evicts any whose bytes no longer match their insert digest. Either
    /// 0 = scrubbing off. Requires `integrity` and the chunk cache;
    /// run_server throws std::invalid_argument otherwise.
    sim::DurationPs scrub_period = 0;
    std::uint64_t scrub_entries = 0;
  };
  DurConfig dur;

  /// Optional telemetry sinks (must outlive the run). With a tracer, every
  /// device gets its own "devK ..." process rows plus a "serve" process with
  /// one job span per completion.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Gauge-name prefix for the auto-export into `metrics`; empty picks
  /// "serve.<policy>.devices<N>". Give each scenario its own prefix when one
  /// registry collects several runs.
  std::string metrics_prefix;
};

struct DeviceReport {
  std::uint64_t jobs = 0;
  std::uint64_t warm_jobs = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernel_launches = 0;
  /// SM busy time / makespan.
  double utilization = 0.0;
  /// bigkcache (all zero when the cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes_saved = 0;
  double cache_hit_rate = 0.0;
  /// bigkprof (from the device's StageProfiler; bottleneck_stage is an
  /// obs::Stage index, -1 when the device ran no profiled work).
  std::int32_t bottleneck_stage = -1;
  double overlap_efficiency = 0.0;
  std::uint64_t prof_windows = 0;
  std::uint64_t bottleneck_flips = 0;
};

/// The pool's Outcome plus what only the pool knows.
struct ServeReport : Outcome {
  /// One record per submitted job, in spec order.
  std::vector<JobRecord> jobs;
  /// Job ids in the order they finished.
  std::vector<std::uint64_t> completion_order;
  std::vector<DeviceReport> devices;

  sim::TimePs makespan = 0;
  std::uint64_t warm_hits = 0;
  std::uint32_t peak_queue_depth = 0;

  /// bigkfault (all zero without a fault plane).
  std::uint64_t fault_injected = 0;
  std::uint64_t fault_recovered = 0;
  /// Jobs handed to another device after a failure or quarantine.
  std::uint64_t redispatches = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t reinstatements = 0;
  /// Rejection breakdown by cause (sums to `rejections`).
  std::uint64_t rejections_queue_full = 0;
  std::uint64_t rejections_no_device = 0;
  std::uint64_t rejections_tenant_quota = 0;

  /// bigkhetero (all zero unless hetero.spill_enabled).
  /// Jobs routed to host-core execution (at placement or on redispatch).
  std::uint64_t spills = 0;
  /// Spilled jobs that completed on the CPU (included in `completed`).
  std::uint64_t cpu_completed = 0;

  /// bigkcache totals across devices (all zero when the cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bytes_saved = 0;
  double cache_hit_rate = 0.0;

  // --- bigkprof -----------------------------------------------------------
  /// Mean queueing-delay breakdown over completed jobs, in ms. The five
  /// parts partition [submit, finish] exactly, so they sum to the mean
  /// latency (breakdown_total_ms).
  double breakdown_admission_ms = 0.0;
  double breakdown_queue_ms = 0.0;
  double breakdown_staging_ms = 0.0;
  double breakdown_execution_ms = 0.0;
  double breakdown_writeback_ms = 0.0;
  double breakdown_total_ms = 0.0;
  /// Pool-level limiting stage (argmax of summed per-device stage busy;
  /// obs::Stage index, -1 without profiling) and overlap efficiency
  /// (1 - makespan / sum of stage busy, clamped at 0).
  std::int32_t bottleneck_stage = -1;
  double overlap_efficiency = 0.0;
  /// Sums over devices of the windowed timeline sizes.
  std::uint64_t prof_windows = 0;
  std::uint64_t bottleneck_flips = 0;
  /// SLO monitoring outcome (0/0 when no slo_spec was configured).
  std::uint64_t slo_rules = 0;
  std::uint64_t slo_violations = 0;

  // --- bigkdur -------------------------------------------------------------
  /// Integrity-plane totals (all zero with dur.integrity off).
  std::uint64_t integrity_verified = 0;
  std::uint64_t integrity_detected = 0;
  std::uint64_t integrity_repaired = 0;
  std::uint64_t scrub_checked = 0;
  std::uint64_t scrub_evictions = 0;
  /// Silent-corruption injections (bitflip_dma/cache/writeback) the fault
  /// plane performed — with integrity on, detected == injected.
  std::uint64_t bitflips_injected = 0;
  /// Job run attempts that began past record zero from a journaled
  /// checkpoint (redispatch after a failure, or a post-crash restart).
  std::uint64_t resumed = 0;
  /// Checkpoint windows re-executed even though an earlier attempt (this
  /// session or the journal) had already completed them — the work a
  /// from-zero restart redoes that checkpoint resume skips.
  std::uint64_t chunks_replayed = 0;
  /// The simulated crash fired during this run (dur.crash_at elapsed).
  bool crashed = false;

  // --- bigkload QoS plane --------------------------------------------------
  /// One block per configured tenant (empty without a QoS config).
  std::vector<TenantReport> tenants;
  /// Jain index over weight-normalized tenant goodput (weight-0 background
  /// tenants excluded); 1.0 when fewer than two weighted tenants exist.
  double fairness_jain = 1.0;
  /// Offered load: submitted jobs over the configured window.
  double offered_jobs_per_s = 0.0;
  /// Autoscaler trajectory (static pool: min == max == devices, 0 events).
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint32_t min_active_devices = 0;
  std::uint32_t max_active_devices = 0;
  std::uint32_t final_active_devices = 0;

  /// Registers the headline numbers as `<prefix>.*` gauges (latency
  /// percentiles in ms, throughput, per-device utilization, shedding
  /// counts), so they ride along in the standard bench JSON counters array.
  /// These gauges are the report's one serialized form.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;
};

/// Runs `specs` against a fresh DevicePool built from `config`, resolving
/// app names through `suite` (see apps::benchmark_apps / apps::find_app).
/// bigkstatic admission gate: every submitted app's kernel must pass the
/// static contract verifier (apps::static_verdict) before any of its jobs
/// is admitted; a failing or unverified app makes run_server throw
/// std::invalid_argument naming the first violation, and a verified app's
/// pattern signature is mixed into its chunk-cache keys. An error a job
/// raises that is no fault::FaultError ends the run and propagates out.
ServeReport run_server(const ServerConfig& config,
                       const std::vector<JobSpec>& specs,
                       const std::vector<apps::BenchApp>& suite);

}  // namespace bigk::serve
