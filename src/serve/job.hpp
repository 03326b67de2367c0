// Job descriptions and outcomes for the bigkserve serving layer, plus the
// deterministic workload generator used by benchmarks and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/common.hpp"
#include "sim/time.hpp"

namespace bigk::serve {

/// One request submitted to the server: run app `app` once, arriving
/// `submit_time` after the start of the run.
struct JobSpec {
  std::uint64_t id = 0;
  std::string app;
  sim::TimePs submit_time = 0;
  /// Latency SLO measured from submission; 0 = no deadline.
  sim::DurationPs deadline = 0;
  /// bigkload QoS plane: index into ServerConfig::qos.tenants (ignored when
  /// no tenants are configured).
  std::uint32_t tenant = 0;
  /// Simulated client the job belongs to; 0 = anonymous (the job id keys
  /// the retry-escalation streak instead, preserving the legacy behavior).
  /// The load generator allocates globally unique ids starting at 1; in
  /// closed-loop mode a client's jobs form one think-time-paced chain.
  std::uint64_t client = 0;

  bool operator==(const JobSpec&) const = default;
};

/// What happened to one job, as reported by the server.
struct JobRecord {
  JobSpec spec;
  std::uint64_t input_bytes = 0;
  std::uint32_t device = 0;
  /// Admission rejections before acceptance (or before the job gave up).
  std::uint32_t rejections = 0;
  /// bigkfault: times the job was handed to another device after its device
  /// failed mid-run or was quarantined with the job still queued.
  std::uint32_t redispatches = 0;
  bool admitted = false;
  bool completed = false;
  /// bigkfault: admitted but never finished — the run failed and no
  /// available device remained to take the redispatch.
  bool failed = false;
  /// Device already held this app's dataset, so input staging was skipped.
  bool warm = false;
  /// bigkhetero: the job spilled to host-core execution (no device, no
  /// staging/DMA) because the device pool was saturated or quarantined.
  bool cpu_executed = false;
  /// bigkdur: at least one run attempt resumed past record zero from a
  /// journaled checkpoint instead of restarting the job from scratch.
  bool resumed = false;
  bool deadline_met = true;
  sim::TimePs admit_time = 0;
  sim::TimePs start_time = 0;
  /// bigkprof: input staging finished on the worker (== start_time for warm
  /// jobs, which skip staging).
  sim::TimePs staging_done_time = 0;
  /// bigkprof: kernel pipeline finished; the remainder up to finish_time is
  /// table download / write-back on the serving side.
  sim::TimePs exec_done_time = 0;
  sim::TimePs finish_time = 0;

  bool operator==(const JobRecord&) const = default;

  sim::DurationPs latency() const noexcept {
    return completed ? finish_time - spec.submit_time : 0;
  }

  /// bigkprof queueing-delay breakdown: an exact partition of
  /// [submit_time, finish_time], so the parts always sum to latency().
  struct Breakdown {
    sim::DurationPs admission = 0;  ///< submit -> admitted
    sim::DurationPs queue = 0;      ///< admitted -> worker picked it up
    sim::DurationPs staging = 0;    ///< input staging on the worker
    sim::DurationPs execution = 0;  ///< engine pipeline (launch to exec done)
    sim::DurationPs writeback = 0;  ///< table download / epilogue -> finish

    sim::DurationPs total() const noexcept {
      return admission + queue + staging + execution + writeback;
    }
  };

  /// Valid only for completed jobs (returns all-zero otherwise).
  Breakdown breakdown() const noexcept {
    Breakdown b;
    if (!completed) return b;
    b.admission = admit_time - spec.submit_time;
    b.queue = start_time - admit_time;
    const sim::TimePs staged =
        staging_done_time >= start_time ? staging_done_time : start_time;
    b.staging = staged - start_time;
    // A redispatched job can carry a stale exec timestamp from the failed
    // attempt; clamp into [staged, finish] so the partition stays exact.
    sim::TimePs exec = exec_done_time;
    if (exec < staged) exec = finish_time;
    if (exec > finish_time) exec = finish_time;
    b.execution = exec - staged;
    b.writeback = finish_time - exec;
    return b;
  }
};

/// The outcome statistics of a set of jobs: the pool's report block and each
/// tenant's.
struct Outcome {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Gave up at admission (retries exhausted).
  std::uint64_t dropped = 0;
  /// Admitted but abandoned: the run failed with no device left to take it,
  /// or the server crashed first.
  std::uint64_t failed_jobs = 0;
  /// Admission rejections (a job may be rejected several times).
  std::uint64_t rejections = 0;
  /// Completions past their deadline.
  std::uint64_t deadline_misses = 0;
  /// Deadline-met completions (jobs without a deadline count as attained).
  std::uint64_t slo_attained = 0;
  /// Nearest-rank percentiles of the completed jobs' latencies: each is one
  /// of those latencies.
  sim::DurationPs latency_p50 = 0;
  sim::DurationPs latency_p95 = 0;
  sim::DurationPs latency_p99 = 0;
  /// Completions per second of makespan.
  double throughput_jobs_per_s = 0.0;
  /// Useful throughput: deadline-met completions per second of makespan.
  double goodput_jobs_per_s = 0.0;
  /// slo_attained / submitted, in [0, 1].
  double slo_attainment = 0.0;
};

/// Deterministic workload shape for make_workload.
struct WorkloadConfig {
  std::uint32_t num_jobs = 32;
  std::uint64_t seed = 1;
  /// Mean gap between consecutive submissions; actual gaps are uniform in
  /// [0, 2*mean_gap]. 0 = all jobs arrive at t=0.
  sim::DurationPs mean_gap = 0;
  /// Deadline applied to every job (0 = none).
  sim::DurationPs deadline = 0;
};

/// Builds a mixed job sequence over `app_names` (round-started by a
/// splitmix64 stream seeded from `cfg.seed`), sorted by submit_time with ids
/// in submission order. Same names + config => byte-identical workload.
inline std::vector<JobSpec> make_workload(
    const std::vector<std::string>& app_names, const WorkloadConfig& cfg) {
  std::vector<JobSpec> specs;
  if (app_names.empty()) return specs;
  apps::Rng rng(cfg.seed);
  sim::TimePs t = 0;
  specs.reserve(cfg.num_jobs);
  for (std::uint32_t j = 0; j < cfg.num_jobs; ++j) {
    JobSpec spec;
    spec.id = j;
    spec.app = app_names[rng.below(app_names.size())];
    spec.submit_time = t;
    spec.deadline = cfg.deadline;
    specs.push_back(std::move(spec));
    if (cfg.mean_gap > 0) t += rng.below(2 * cfg.mean_gap + 1);
  }
  return specs;
}

}  // namespace bigk::serve
