// bigkload workload generator: turns an arrival process plus per-tenant
// traffic descriptions into a concrete serve::JobSpec sequence (a LoadPlan)
// that drives serve::run_server through its normal admission path.
//
// Open loop (the default): arrivals come from the seeded ArrivalProcess
// regardless of how the server keeps up — the only way to observe behavior
// past saturation. Each arrival is assigned a tenant (by arrival share), a
// client (uniform over the tenant's simulated client population), and an app
// (by the tenant's mix weights), all from one splitmix64 stream, so the
// whole plan is a pure function of (config, app names).
//
// Closed loop (comparison mode): each simulated client owns a fixed job
// chain and submits its next job only after the previous one settled plus
// the tenant's think time — arrival pressure self-throttles to service
// capacity, which is exactly why closed-loop benches cannot see overload.
// The generator stamps only each chain's first submit instant; the server
// paces the rest at run time.
//
// --tenants flag grammar (parse_tenants), ';'-separated tenant entries:
//   "<name>:class=<lc|batch>,weight=<n>,share=<w>,quota=<n>,deadline_us=<n>,
//    think_us=<n>,clients=<n>,apps=<App A|App B*3|...>"
// Every key is optional; `share` values are relative weights over the
// tenants, an app's `*<w>` suffix is its relative weight in the mix, and an
// absent `apps` key means a uniform mix over the whole suite. Tokens follow
// sim/spec.hpp: weight, quota and clients are 32-bit integers, share and
// mix weights are finite and positive, and the *_us durations are decimal
// microseconds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "load/arrival.hpp"
#include "serve/job.hpp"
#include "serve/tenant.hpp"

namespace bigk::load {

/// One app in a tenant's workload mix, with a relative draw weight.
struct MixEntry {
  std::string app;
  double weight = 1.0;
};

/// One tenant's traffic description: the serve-side QoS config plus the
/// generation-side knobs (arrival share, app mix, client population).
struct TenantSpec {
  serve::TenantConfig qos;
  /// Relative share of the arrival stream assigned to this tenant.
  double share = 1.0;
  /// App mix; empty = uniform over every registered app.
  std::vector<MixEntry> mix;
  /// Simulated client population (client ids are stable across runs).
  std::uint32_t clients = 64;
};

struct LoadConfig {
  ArrivalSpec arrival;
  /// Generation window: open-loop arrivals are drawn in [0, duration).
  sim::DurationPs duration = 2 * sim::kMillisecond;
  /// Hard cap on generated jobs (guards against huge rate*duration asks).
  std::uint64_t max_jobs = 200'000;
  /// Closed loop: think-time pacing per client instead of open arrivals.
  bool closed_loop = false;
  std::vector<TenantSpec> tenants;
};

struct LoadPlan {
  /// Ready to hand to serve::run_server (ids in submission order, tenant /
  /// client / deadline stamped).
  std::vector<serve::JobSpec> specs;
  /// Tenant configs in spec.tenant index order (for ServerConfig::qos).
  std::vector<serve::TenantConfig> tenants;
  /// Offered load over the generation window.
  double offered_jobs_per_s = 0.0;
  /// Total simulated clients across tenants.
  std::uint64_t clients = 0;
  /// True when max_jobs truncated the plan (log it — a silently capped
  /// sweep point under-reports offered load).
  bool truncated = false;
};

/// Parses the --tenants grammar above; throws std::invalid_argument naming
/// the offending token. Empty input returns an empty vector (the caller
/// falls back to its default tenant set).
std::vector<TenantSpec> parse_tenants(std::string_view text);

/// Generates the plan. `app_names` is the app universe for uniform mixes
/// and for validating explicit mixes; throws std::invalid_argument on an
/// unknown app name, an empty tenant list, or a non-positive share sum.
LoadPlan make_load(const LoadConfig& config,
                   const std::vector<std::string>& app_names);

}  // namespace bigk::load
