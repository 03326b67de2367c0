// Facade bundling the bigkcheck checkers behind one object: constructs the
// checkers CheckOptions enables, installs them on a simulated GPU (memory
// observer + warp-access observer), and enforces the collected verdict at
// the end of a run. The scheme runners (schemes::RunScaffold) and the
// serving layer own one of these when checking is enabled
// (SchemeConfig::check / ServerConfig::check / BIGK_CHECK); the engine only
// feeds its pipeline checker.
#pragma once

#include <memory>

#include "check/memcheck.hpp"
#include "check/options.hpp"
#include "check/pipecheck.hpp"
#include "check/racecheck.hpp"
#include "check/report.hpp"
#include "gpusim/gpu.hpp"
#include "obs/metrics_registry.hpp"

namespace bigk::check {

class Sanitizer {
 public:
  explicit Sanitizer(const CheckOptions& options,
                     obs::MetricsRegistry* metrics = nullptr);
  ~Sanitizer();

  Sanitizer(const Sanitizer&) = delete;
  Sanitizer& operator=(const Sanitizer&) = delete;

  /// Hooks the enabled checkers into `gpu`: the memory sanitizer becomes the
  /// arena's MemoryObserver (adopting pre-existing allocations as
  /// initialized) and the race detector the warp-access observer.
  void install(gpusim::Gpu& gpu);

  /// Detaches from the GPU (also done by the destructor).
  void uninstall();

  Reporter& reporter() noexcept { return reporter_; }
  const Reporter& reporter() const noexcept { return reporter_; }

  /// Enabled checkers, or nullptr when switched off in CheckOptions.
  MemChecker* memcheck() noexcept { return mem_.get(); }
  RaceChecker* racecheck() noexcept { return race_.get(); }
  PipelineChecker* pipecheck() noexcept { return pipe_.get(); }

  /// Throws CheckError with the diagnostic summary if anything was reported.
  void finalize() const { reporter_.enforce(); }

 private:
  Reporter reporter_;
  std::unique_ptr<MemChecker> mem_;
  std::unique_ptr<RaceChecker> race_;
  std::unique_ptr<PipelineChecker> pipe_;
  gpusim::Gpu* gpu_ = nullptr;
};

}  // namespace bigk::check
