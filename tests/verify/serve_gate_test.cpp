// bigkstatic admission gate: the serving layer refuses jobs for apps whose
// kernels fail (or never ran) static verification, names the violation in
// the error, and threads the verified pattern signature into the engine's
// chunk-cache keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/server.hpp"
#include "toy_suite.hpp"
#include "verify/contracts.hpp"
#include "verify/violators.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

ServerConfig gate_server() {
  ServerConfig config;
  config.system = toy_system();
  config.devices = 1;
  config.queue_depth = 8;
  config.engine = toy_engine_options();
  return config;
}

std::vector<JobSpec> jobs_for(const std::string& app, std::uint32_t count) {
  WorkloadConfig workload;
  workload.num_jobs = count;
  workload.seed = 3;
  return make_workload({app}, workload);
}

TEST(ServeGateTest, VerifiedToySuiteIsAdmitted) {
  const auto suite = make_toy_suite(1, 2'000);
  const ServeReport report =
      run_server(gate_server(), jobs_for("toy0", 2), suite);
  EXPECT_EQ(report.completed, 2u);
  // The gate also published the verdict through the suite entry.
  ASSERT_NE(suite[0].verdict, nullptr);
  EXPECT_TRUE(suite[0].verdict->passed);
  EXPECT_NE(suite[0].verdict->pattern_signature, 0u);
}

TEST(ServeGateTest, UnverifiedAppIsRefusedWithClearError) {
  auto suite = make_toy_suite(1, 2'000);
  suite[0].verify = nullptr;  // no registered verifier: fail closed
  suite[0].verdict = nullptr;
  try {
    run_server(gate_server(), jobs_for("toy0", 1), suite);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("toy0"), std::string::npos) << what;
    EXPECT_NE(what.find("refused admission"), std::string::npos) << what;
  }
}

TEST(ServeGateTest, ContractViolatorIsRefusedNamingTheViolation) {
  auto suite = make_toy_suite(1, 2'000);
  // Swap in a verifier that reports the seeded gather violator's verdict:
  // a real streaming-restriction violation with a violators.hpp call-site.
  suite[0].verify = [] {
    for (const auto& violator : verify::violator_cases()) {
      if (violator.expected == verify::Check::kStreamingRestriction) {
        verify::KernelReport report = violator.verify();
        report.app = "toy0";
        return report;
      }
    }
    throw std::logic_error("no streaming violator registered");
  };
  suite[0].verdict = nullptr;
  try {
    run_server(gate_server(), jobs_for("toy0", 1), suite);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("refused admission"), std::string::npos) << what;
    EXPECT_NE(what.find("streaming_restriction"), std::string::npos) << what;
    EXPECT_NE(what.find("violators.hpp"), std::string::npos) << what;
  }
}

TEST(ServeGateTest, VerifiedSignatureFlowsIntoCacheKeys) {
  // Same workload twice: with the gate on, chunk-cache keys carry the static
  // pattern signature; repeat jobs must still hit (the signature is stable),
  // proving the signature is mixed in consistently rather than poisoning
  // reuse.
  const auto suite = make_toy_suite(1, 2'000);
  ServerConfig config = gate_server();
  config.cache_enabled = true;
  const auto specs = jobs_for("toy0", 4);
  const ServeReport gated = run_server(config, specs, suite);
  EXPECT_EQ(gated.completed, 4u);
  EXPECT_GT(gated.cache_hits, 0u);

  // And the run is deterministic under the gate.
  const ServeReport again = run_server(config, specs, suite);
  EXPECT_EQ(again.cache_hits, gated.cache_hits);
  EXPECT_EQ(again.makespan, gated.makespan);
}

}  // namespace
}  // namespace bigk::serve
