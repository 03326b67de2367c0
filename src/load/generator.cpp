#include "load/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "apps/common.hpp"
#include "sim/spec.hpp"

namespace bigk::load {

namespace {

constexpr std::string_view kGrammar = "--tenants";

/// The "App A|App B*3" mix of an `apps=` value.
std::vector<MixEntry> parse_mix(std::string_view text) {
  std::vector<MixEntry> mix;
  for (const std::string_view piece : sim::spec::split(text, '|')) {
    MixEntry entry;
    const std::size_t star = piece.rfind('*');
    entry.app = std::string(sim::spec::trim(piece.substr(0, star)));
    if (star != std::string_view::npos) {
      const sim::spec::Field weight{kGrammar, "apps",
                                    sim::spec::trim(piece.substr(star + 1))};
      entry.weight = weight.positive<double>();
    }
    if (entry.app.empty()) {
      sim::spec::fail(kGrammar, "apps", piece, "expected <app>[*<weight>]");
    }
    mix.push_back(std::move(entry));
  }
  if (mix.empty()) sim::spec::fail(kGrammar, "apps", text, "empty app mix");
  return mix;
}

TenantSpec parse_tenant_entry(std::string_view text) {
  TenantSpec tenant;
  const std::size_t colon = text.find(':');
  tenant.qos.name = std::string(sim::spec::trim(text.substr(0, colon)));
  // A ',' or '=' in the name is a field list missing its ':'.
  if (tenant.qos.name.empty() ||
      tenant.qos.name.find_first_of(",=") != std::string::npos) {
    sim::spec::fail(kGrammar, {}, text,
                    "expected <name>[:<key>=<value>,...]");
  }
  if (colon == std::string_view::npos) return tenant;
  for (const std::string_view piece :
       sim::spec::split(text.substr(colon + 1), ',')) {
    const sim::spec::Field field = sim::spec::key_value(kGrammar, piece);
    if (field.key == "class") {
      tenant.qos.slo = serve::slo_class_from_name(field.value);
    } else if (field.key == "weight") {
      tenant.qos.weight = field.number<std::uint32_t>();
    } else if (field.key == "share") {
      tenant.share = field.positive<double>();
    } else if (field.key == "quota") {
      tenant.qos.quota = field.number<std::uint32_t>();
    } else if (field.key == "deadline_us") {
      tenant.qos.deadline = field.duration<double>(sim::kMicrosecond);
    } else if (field.key == "think_us") {
      tenant.qos.think_time = field.duration<double>(sim::kMicrosecond);
    } else if (field.key == "clients") {
      tenant.clients = field.positive<std::uint32_t>();
    } else if (field.key == "apps") {
      tenant.mix = parse_mix(field.value);
    } else {
      field.fail("unknown key (valid: class weight share quota deadline_us "
                 "think_us clients apps)");
    }
  }
  return tenant;
}

/// Weighted draw over [0, weights.size()); `u` uniform in [0, 1).
std::size_t weighted_pick(const std::vector<double>& cumulative, double u) {
  const double target = u * cumulative.back();
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (target < cumulative[i]) return i;
  }
  return cumulative.size() - 1;
}

}  // namespace

std::vector<TenantSpec> parse_tenants(std::string_view text) {
  std::vector<TenantSpec> tenants;
  for (const std::string_view entry : sim::spec::split(text, ';')) {
    tenants.push_back(parse_tenant_entry(entry));
  }
  return tenants;
}

LoadPlan make_load(const LoadConfig& config,
                   const std::vector<std::string>& app_names) {
  if (config.tenants.empty()) {
    throw std::invalid_argument("make_load needs at least one tenant");
  }
  if (app_names.empty()) {
    throw std::invalid_argument("make_load needs at least one app");
  }
  if (config.duration <= 0) {
    throw std::invalid_argument("make_load needs a positive duration");
  }

  // Resolve each tenant's mix (uniform over the suite when empty) and check
  // every named app exists.
  struct ResolvedTenant {
    const TenantSpec* spec;
    std::vector<std::string> apps;
    std::vector<double> app_cumulative;
    std::uint64_t client_base = 0;
  };
  std::vector<ResolvedTenant> resolved;
  std::vector<double> share_cumulative;
  double share_sum = 0.0;
  std::uint64_t client_base = 1;  // 0 is the "no client" sentinel
  for (const TenantSpec& tenant : config.tenants) {
    ResolvedTenant rt;
    rt.spec = &tenant;
    double mix_sum = 0.0;
    if (tenant.mix.empty()) {
      for (const std::string& app : app_names) {
        rt.apps.push_back(app);
        mix_sum += 1.0;
        rt.app_cumulative.push_back(mix_sum);
      }
    } else {
      for (const MixEntry& entry : tenant.mix) {
        if (std::find(app_names.begin(), app_names.end(), entry.app) ==
            app_names.end()) {
          throw std::invalid_argument("tenant \"" + tenant.qos.name +
                                      "\": unknown app \"" + entry.app + "\"");
        }
        rt.apps.push_back(entry.app);
        mix_sum += entry.weight;
        rt.app_cumulative.push_back(mix_sum);
      }
    }
    rt.client_base = client_base;
    client_base += tenant.clients;
    resolved.push_back(std::move(rt));
    share_sum += tenant.share;
    share_cumulative.push_back(share_sum);
  }
  if (share_sum <= 0.0) {
    throw std::invalid_argument("tenant shares must sum to a positive value");
  }

  LoadPlan plan;
  plan.clients = client_base - 1;
  for (const TenantSpec& tenant : config.tenants) {
    plan.tenants.push_back(tenant.qos);
  }
  const double duration_s = sim::to_seconds(config.duration);

  // Separate streams for the arrival clock and the categorical draws, both
  // derived from the one spec seed: the plan is a pure function of
  // (config, app_names).
  apps::Rng draw(config.arrival.seed ^ sim::kSplitMixGamma);

  if (!config.closed_loop) {
    ArrivalProcess process(config.arrival);
    for (;;) {
      const sim::TimePs at = process.next();
      if (at >= config.duration) break;
      if (plan.specs.size() >= config.max_jobs) {
        plan.truncated = true;
        break;
      }
      const std::size_t t = weighted_pick(share_cumulative, draw.unit());
      const ResolvedTenant& rt = resolved[t];
      serve::JobSpec spec;
      spec.id = plan.specs.size();
      spec.tenant = static_cast<std::uint32_t>(t);
      spec.client = rt.client_base + draw.below(rt.spec->clients);
      spec.app = rt.apps[weighted_pick(rt.app_cumulative, draw.unit())];
      spec.submit_time = at;
      spec.deadline = rt.spec->qos.deadline;
      plan.specs.push_back(std::move(spec));
    }
  } else {
    // Closed loop: every client owns a chain of jobs; only the first submit
    // instant is stamped here (uniform over the window so clients do not
    // stampede at t=0) — the server paces the rest by think time.
    const double total_target = config.arrival.rate_per_s * duration_s;
    for (std::size_t t = 0; t < resolved.size(); ++t) {
      const ResolvedTenant& rt = resolved[t];
      const double tenant_target =
          total_target * rt.spec->share / share_sum;
      const std::uint64_t per_client = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 tenant_target / static_cast<double>(rt.spec->clients) + 0.5));
      for (std::uint32_t c = 0; c < rt.spec->clients; ++c) {
        const sim::TimePs offset = static_cast<sim::TimePs>(
            draw.below(static_cast<std::uint64_t>(config.duration)));
        for (std::uint64_t k = 0; k < per_client; ++k) {
          if (plan.specs.size() >= config.max_jobs) {
            plan.truncated = true;
            break;
          }
          serve::JobSpec spec;
          spec.id = plan.specs.size();
          spec.tenant = static_cast<std::uint32_t>(t);
          spec.client = rt.client_base + c;
          spec.app = rt.apps[weighted_pick(rt.app_cumulative, draw.unit())];
          // Later chain links are re-stamped by the server when the client
          // actually submits them.
          spec.submit_time = offset;
          spec.deadline = rt.spec->qos.deadline;
          plan.specs.push_back(std::move(spec));
        }
      }
    }
  }

  plan.offered_jobs_per_s =
      static_cast<double>(plan.specs.size()) / duration_s;
  return plan;
}

}  // namespace bigk::load
