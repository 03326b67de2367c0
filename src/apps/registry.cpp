#include "apps/registry.hpp"

#include <sstream>
#include <stdexcept>

#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/wordcount.hpp"
#include "verify/verifier.hpp"

namespace bigk::apps {

namespace {

template <class App>
BenchApp make_entry(const ScaledSystem& scaled, std::uint64_t seed,
                    bool pattern_applicable = true) {
  BenchApp entry;
  entry.info = App::paper_info();
  entry.name = entry.info.name;
  entry.pattern_applicable = pattern_applicable;
  const std::uint64_t bytes = scaled.data_bytes(entry.info.paper_data_gb);
  entry.run = [bytes, seed](schemes::Scheme scheme,
                            const gpusim::SystemConfig& config,
                            const schemes::SchemeConfig& sc) {
    typename App::Params params;
    params.data_bytes = bytes;
    params.seed = seed;
    App app(params);
    return schemes::run_scheme(scheme, config, app, sc);
  };
  const std::string name = entry.name;
  entry.make_runner = [bytes, seed, name]() -> std::unique_ptr<JobRunner> {
    typename App::Params params;
    params.data_bytes = bytes;
    params.seed = seed;
    return std::make_unique<AppJobRunner<App>>(name, params);
  };
  entry.verify = [seed, name]() {
    typename App::Params params;
    params.data_bytes = 1u << 16;  // contracts depend on code, not scale
    params.seed = seed;
    App app(params);
    verify::KernelReport report = verify::verify_app(app);
    report.app = name;
    return report;
  };
  return entry;
}

}  // namespace

std::vector<BenchApp> benchmark_apps(const ScaledSystem& scaled) {
  std::vector<BenchApp> suite;
  suite.push_back(make_entry<KmeansApp>(scaled, 11));
  suite.push_back(make_entry<WordCountApp>(scaled, 22));
  suite.push_back(make_entry<NetflixApp>(scaled, 33));
  suite.push_back(make_entry<OpinionApp>(scaled, 44));
  suite.push_back(make_entry<DnaApp>(scaled, 55));
  suite.push_back(make_entry<MastercardApp>(scaled, 66));
  suite.push_back(make_entry<MastercardIndexedApp>(scaled, 77,
                                                   /*pattern_applicable=*/false));
  return suite;
}

std::vector<std::string> app_names(const std::vector<BenchApp>& suite) {
  std::vector<std::string> names;
  names.reserve(suite.size());
  for (const BenchApp& app : suite) names.push_back(app.name);
  return names;
}

const BenchApp& find_app(const std::vector<BenchApp>& suite,
                         std::string_view name) {
  for (const BenchApp& app : suite) {
    if (app.name == name) return app;
  }
  std::ostringstream message;
  message << "unknown app \"" << name << "\"; valid apps:";
  for (const BenchApp& app : suite) message << " \"" << app.name << "\"";
  throw std::invalid_argument(message.str());
}

const verify::KernelReport& static_verdict(const BenchApp& app) {
  if (!app.verdict) {
    if (app.verify) {
      app.verdict =
          std::make_shared<const verify::KernelReport>(app.verify());
    } else {
      verify::KernelReport report;
      report.app = app.name;
      verify::Violation violation;
      violation.check = verify::Check::kStreamingRestriction;
      violation.kind = "unverified";
      violation.message = "no static verifier registered for app";
      report.add(std::move(violation));
      app.verdict =
          std::make_shared<const verify::KernelReport>(std::move(report));
    }
  }
  return *app.verdict;
}

}  // namespace bigk::apps
