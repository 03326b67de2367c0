#include "apps/registry.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/wordcount.hpp"
#include "verify/verifier.hpp"

namespace bigk::apps {

namespace {

std::uint64_t generated_datasets = 0;

/// One entry's dataset, generated on first use and kept for as long as any
/// copy of the entry lives.
template <class App>
class SharedDataset {
 public:
  using Dataset = typename App::Dataset;

  explicit SharedDataset(const typename App::Params& params)
      : params_(params) {}

  std::shared_ptr<const Dataset> get() {
    if (data_ == nullptr) {
      data_ = std::make_shared<const Dataset>(params_);
      ++generated_datasets;
    }
    return data_;
  }

 private:
  typename App::Params params_;
  std::shared_ptr<const Dataset> data_;
};

/// FNV digest of what `app` reads: its stream bytes, then its tables.
template <class App>
std::uint64_t input_digest(App& app) {
  sim::Digest sum;
  for (const schemes::StreamDecl& decl : app.stream_decls()) {
    sum.mix_bytes({decl.binding.host_data, decl.binding.size_bytes()});
  }
  const core::TableSet& tables = std::as_const(app).tables();
  for (std::uint32_t id = 0; id < tables.size(); ++id) {
    sum.mix_bytes(tables.raw_bytes(id));
  }
  return sum.value();
}

template <class App>
BenchApp make_entry(const ScaledSystem& scaled, std::uint64_t seed,
                    bool pattern_applicable = true) {
  BenchApp entry;
  entry.info = App::paper_info();
  entry.name = entry.info.name;
  entry.pattern_applicable = pattern_applicable;
  typename App::Params params;
  params.data_bytes = scaled.data_bytes(entry.info.paper_data_gb);
  params.seed = seed;
  auto dataset = std::make_shared<SharedDataset<App>>(params);
  entry.run = [dataset](schemes::Scheme scheme,
                        const gpusim::SystemConfig& config,
                        const schemes::SchemeConfig& sc) {
    App app(dataset->get());
    return schemes::run_scheme(scheme, config, app, sc);
  };
  const std::string name = entry.name;
  entry.make_runner = [dataset, name]() -> std::unique_ptr<JobRunner> {
    return std::make_unique<AppJobRunner<App>>(name, dataset->get());
  };
  entry.dataset_digest = [dataset] {
    // A fresh app over the dataset has not run, so its streams and its
    // tables are the dataset's own bytes.
    App app(dataset->get());
    return input_digest(app);
  };
  entry.verify = [params, name]() {
    typename App::Params small = params;
    small.data_bytes = 1u << 16;  // contracts depend on code, not scale
    App app(small);
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

std::uint64_t datasets_generated() { return generated_datasets; }

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
