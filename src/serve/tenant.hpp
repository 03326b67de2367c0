// bigkload QoS plane: tenants and SLO classes.
//
// A tenant is a traffic source with its own weight in the weighted-fair
// scheduler, an optional admission quota (max admitted-but-unfinished jobs),
// an SLO class, and — for generated workloads — a default per-job deadline
// and a closed-loop think time. Per-tenant accounting (goodput, SLO
// attainment, latency percentiles) and the Jain fairness index over
// weight-normalized goodput are the serving layer's multi-tenant headline.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/job.hpp"
#include "sim/time.hpp"

namespace bigk::serve {

enum class SloClass : std::uint8_t {
  /// Tight per-job deadline; the WFQ weight should dominate the mix.
  kLatencyCritical,
  /// Throughput-oriented; tolerates queueing behind latency-critical work.
  kBatch,
};

inline const char* slo_class_name(SloClass slo) {
  switch (slo) {
    case SloClass::kLatencyCritical: return "latency-critical";
    case SloClass::kBatch: return "batch";
  }
  return "?";
}

/// Parses an SLO class name ("lc" / "latency-critical" / "batch"); throws
/// std::invalid_argument on anything else.
inline SloClass slo_class_from_name(std::string_view name) {
  if (name == "lc" || name == "latency-critical") {
    return SloClass::kLatencyCritical;
  }
  if (name == "batch") return SloClass::kBatch;
  throw std::invalid_argument("unknown SLO class \"" + std::string(name) +
                              "\"; valid classes: \"lc\" \"batch\"");
}

struct TenantConfig {
  std::string name = "default";
  SloClass slo = SloClass::kBatch;
  /// Weighted-fair share. 0 is allowed and means "background": the tenant
  /// runs at the scheduler's epsilon weight — far behind every weighted
  /// tenant, but never starved forever (virtual time always catches up with
  /// its finish tags once weighted backlogs drain or age past them).
  std::uint32_t weight = 1;
  /// Max admitted-but-unfinished jobs for this tenant; 0 = unlimited. On top
  /// of the pool-wide JobQueue depth, so one tenant cannot monopolize
  /// admission slots.
  std::uint32_t quota = 0;
  /// Default per-job deadline the load generator stamps on this tenant's
  /// jobs (0 = none).
  sim::DurationPs deadline = 0;
  /// Closed-loop mode: a client waits this long after one job settles before
  /// submitting its next.
  sim::DurationPs think_time = 0;
};

/// Per-tenant outcome block of a ServeReport: the Outcome of the tenant's
/// jobs.
struct TenantReport : Outcome {
  std::string name;
  SloClass slo = SloClass::kBatch;
  std::uint32_t weight = 1;
};

/// Jain fairness index J(x) = (sum x)^2 / (n * sum x^2), in (0, 1]; 1 is a
/// perfectly even allocation. The all-zero allocation is defined as 1 (no
/// tenant is ahead of any other), and an empty vector as 1.
inline double jain_index(const std::vector<double>& x) {
  if (x.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(x.size()) * sum_sq);
}

}  // namespace bigk::serve
