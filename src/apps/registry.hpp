// Registry of the paper's six benchmark applications (plus the indexed
// MasterCard variant) in evaluation order, type-erased for the benchmark
// harness and the serving layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "core/stream.hpp"
#include "cusim/runtime.hpp"
#include "gpusim/config.hpp"
#include "hostsim/host_cpu.hpp"
#include "schemes/metrics.hpp"
#include "schemes/runners.hpp"
#include "sim/hash.hpp"
#include "sim/simulation.hpp"
#include "verify/contracts.hpp"

namespace bigk::apps {

/// Everything a JobRunner needs besides the target device: the engine
/// options, the engine's attachments and the job's record window. It is one
/// engine launch of the app (schemes::launch_app); the pointers are
/// externally owned and may be null, and `sanitizer` (when set) must already
/// be installed on the runtime's GPU by the caller. The serving layer
/// launches jobs in checkpoint windows ([rec_begin, rec_end), 0/0 = the
/// whole job); rec_begin == 0 resets the app's output state, later windows
/// keep it.
using JobRunConfig = schemes::LaunchConfig;

/// Configuration for CPU-side job execution (bigkhetero serve spill-over):
/// the job's kernel runs on hostsim cores through the plain CPU runner path
/// — no staging, no DMA, no engine.
struct CpuJobConfig {
  /// Software threads (0 = all of the host's hardware threads).
  std::uint32_t threads = 0;
  /// When set, the runner writes the sim time at which kernel execution
  /// finished (there is no separate write-back phase on the CPU path).
  sim::TimePs* exec_done = nullptr;
  /// Record window [rec_begin, rec_end) to execute, as in JobRunConfig: 0/0
  /// = the whole job, and only rec_begin == 0 resets the output state.
  std::uint64_t rec_begin = 0;
  std::uint64_t rec_end = 0;
};

/// One runnable instance of a benchmark application, type-erased so the
/// serving layer can launch any registered app on any device of a pool
/// without knowing its concrete type. A runner owns its per-run state (its
/// tables and what its streams write, from its first run on) and may share
/// its read-only input with other runners of the same app; run() may be
/// called repeatedly (each call resets output state first) and multiple
/// runners execute concurrently against distinct devices.
class JobRunner {
 public:
  virtual ~JobRunner() = default;

  virtual const std::string& app_name() const noexcept = 0;
  virtual std::uint64_t num_records() const = 0;
  /// Total bytes of the app's mapped input streams (what a cold job must
  /// stage through the shared host memory bus before launch).
  virtual std::uint64_t input_bytes() const = 0;

  /// Executes one BigKernel launch of this app on `runtime` (fresh
  /// core::Engine per call, the schemes::launch_app that run_bigkernel
  /// makes): upload tables, launch, download, release.
  virtual sim::Task<> run(cusim::Runtime& runtime, const JobRunConfig& cfg) = 0;

  /// Executes cfg's record window of this app on host cores (bigkhetero
  /// spill path), through the same cpu_fan_out schemes::run_cpu uses.
  /// Produces output identical to run() — the kernels are
  /// partition-invariant and execution-side agnostic.
  virtual sim::Task<> run_cpu(hostsim::HostCpu& cpu,
                              const CpuJobConfig& cfg) = 0;

  /// bigkdur: FNV digest of the app's write-mode output prefix covering the
  /// first `records_done` records — the journal checkpoints (records_done,
  /// digest) pairs so a restarted server only resumes from a checkpoint
  /// whose bytes still match. Returns 0 when the app has no write-mode
  /// streams (resume then restarts from record 0).
  virtual std::uint64_t output_digest(std::uint64_t records_done) {
    (void)records_done;
    return 0;
  }
};

/// bigkdur crash/restart support: a JobRunner that forwards to a runner
/// owned outside the server. The serving layer builds a fresh runner per
/// job, so a suite whose make_runner hands out these views keeps each app's
/// output storage (and so the journal's digests) alive across a simulated
/// server crash.
class SharedJobRunner final : public JobRunner {
 public:
  explicit SharedJobRunner(std::shared_ptr<JobRunner> inner)
      : inner_(std::move(inner)) {}

  const std::string& app_name() const noexcept override {
    return inner_->app_name();
  }
  std::uint64_t num_records() const override { return inner_->num_records(); }
  std::uint64_t input_bytes() const override { return inner_->input_bytes(); }
  sim::Task<> run(cusim::Runtime& runtime, const JobRunConfig& cfg) override {
    return inner_->run(runtime, cfg);
  }
  sim::Task<> run_cpu(hostsim::HostCpu& cpu,
                      const CpuJobConfig& cfg) override {
    return inner_->run_cpu(cpu, cfg);
  }
  std::uint64_t output_digest(std::uint64_t records_done) override {
    return inner_->output_digest(records_done);
  }

 private:
  std::shared_ptr<JobRunner> inner_;
};

/// JobRunner over one concrete app type: run() is schemes::launch_app
/// against a caller-provided device of a pool, run_cpu() the CPU fan-out.
template <class App>
class AppJobRunner : public JobRunner {
 public:
  /// Builds the app from `args`: its Params (a dataset of its own is
  /// generated here) or the dataset it shares.
  template <class... Args>
  explicit AppJobRunner(std::string name, Args&&... args)
      : app_(std::forward<Args>(args)...), name_(std::move(name)) {}

  const std::string& app_name() const noexcept override { return name_; }
  std::uint64_t num_records() const override { return app_.num_records(); }

  std::uint64_t input_bytes() const override {
    std::uint64_t total = 0;
    for (const schemes::StreamDecl& decl : app_.stream_decls()) {
      total += decl.binding.size_bytes();
    }
    return total;
  }

  sim::Task<> run(cusim::Runtime& runtime, const JobRunConfig& cfg) override {
    // bigkdur: windowed launches resume mid-job — only the first window may
    // reset the app's output state, later windows append to it.
    reset_output(cfg.rec_begin == 0);
    co_await schemes::launch_app(runtime, app_, cfg);
  }

  sim::Task<> run_cpu(hostsim::HostCpu& cpu,
                      const CpuJobConfig& cfg) override {
    reset_output(cfg.rec_begin == 0);
    auto bindings = schemes::detail::make_bindings(app_.stream_decls());
    const auto [begin, end] = schemes::record_window(
        cfg.rec_begin, cfg.rec_end, app_.num_records());
    co_await schemes::detail::cpu_fan_out(
        cpu, bindings, app_.tables(), app_.kernel(), begin, end,
        cfg.threads > 0 ? cfg.threads : cpu.config().hw_threads,
        schemes::kCpuBatchRecords);
    if (cfg.exec_done != nullptr) *cfg.exec_done = cpu.sim().now();
  }

  std::uint64_t output_digest(std::uint64_t records_done) override {
    // Digest the write-mode output prefix the first `records_done` records
    // produced — the journal's proof that a checkpoint's bytes survived.
    reset_output(/*job_start=*/false);
    sim::Digest sum;
    bool any = false;
    for (const schemes::StreamDecl& decl : app_.stream_decls()) {
      const core::StreamBinding& b = decl.binding;
      if (b.mode != core::AccessMode::kReadWrite) continue;
      sum.mix_bytes(b.out_prefix(records_done));
      any = true;
    }
    return any ? sum.value() : 0;
  }

  App& app() noexcept { return app_; }

 private:
  /// Resets the app's output state when a job starts at record 0, and on
  /// the runner's first use otherwise: an app may allocate that state on its
  /// first reset (K-means's cluster-id column), so a runner built for a
  /// queued job holds none of it.
  void reset_output(bool job_start) {
    if (job_start || !output_live_) app_.reset();
    output_live_ = true;
  }

  // stream_decls() is non-const on the duck-typed app interface.
  mutable App app_;
  std::string name_;
  bool output_live_ = false;
};

struct BenchApp {
  std::string name;
  AppInfo info;
  /// Table II marks pattern recognition "NA" for the indexed variant.
  bool pattern_applicable = true;
  // run, make_runner and dataset_digest share one dataset per entry, and
  // copies of the entry share it too. It is generated on the first call of
  // any of them, so building a suite costs no generation.
  /// Runs a fresh instance over the entry's dataset under `scheme`.
  std::function<schemes::RunMetrics(schemes::Scheme,
                                    const gpusim::SystemConfig&,
                                    const schemes::SchemeConfig&)>
      run;
  /// Builds a JobRunner over the entry's dataset: the runner reads the
  /// shared streams and writes only its own tables and read-write streams.
  std::function<std::unique_ptr<JobRunner>()> make_runner;
  /// FNV digest of the entry's dataset: every stream byte and every table's
  /// initial value. No run may change it.
  std::function<std::uint64_t()> dataset_digest;
  /// bigkstatic: runs the static kernel-contract verifier over a small
  /// instance (the verdict depends on kernel code, not data scale). Use
  /// static_verdict() for the memoized result.
  std::function<verify::KernelReport()> verify;
  /// Memoized verify() result; populated by static_verdict().
  mutable std::shared_ptr<const verify::KernelReport> verdict;
};

/// Builds the benchmark suite at the given scale (data sizes follow
/// Table I's paper-scale figures times `scaled.scale`).
std::vector<BenchApp> benchmark_apps(const ScaledSystem& scaled);

/// Datasets the registry's entries have generated in this process so far:
/// one per entry whose run, make_runner or dataset_digest has been called,
/// however often.
std::uint64_t datasets_generated();

/// Registered app names in evaluation order.
std::vector<std::string> app_names(const std::vector<BenchApp>& suite);

/// Looks `name` up in `suite`; throws std::invalid_argument listing every
/// valid app name when there is no such app.
const BenchApp& find_app(const std::vector<BenchApp>& suite,
                         std::string_view name);

/// Runs the app's static verifier once and memoizes the report on the entry.
/// An app without a registered verifier yields a failed report with an
/// "unverified" violation, so admission gates refuse it with a clear reason.
const verify::KernelReport& static_verdict(const BenchApp& app);

}  // namespace bigk::apps
