// bigkstatic end-to-end verifier tests: every registered benchmark app must
// pass every contract (with the statically derived stride cycle confirmed by
// the online core::PatternDetector), and every seeded violator kernel must be
// caught by exactly the check it targets, with its call-site named.
#include "verify/verifier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "verify/contracts.hpp"
#include "verify/violators.hpp"

namespace bigk::verify {
namespace {

const KernelReport& verdict_for(const std::vector<apps::BenchApp>& suite,
                                const std::string& name) {
  for (const auto& entry : suite) {
    if (entry.name == name) return apps::static_verdict(entry);
  }
  ADD_FAILURE() << "app not registered: " << name;
  static const KernelReport kEmpty;
  return kEmpty;
}

std::vector<std::int64_t> read_cycle(const KernelReport& report,
                                     std::uint32_t stream) {
  for (const auto& s : report.streams) {
    if (s.stream == stream) return s.read_strides;
  }
  return {};
}

TEST(Verifier, AllRegisteredAppsPassEveryContract) {
  const apps::ScaledSystem scaled;
  const auto suite = apps::benchmark_apps(scaled);
  ASSERT_FALSE(suite.empty());
  for (const auto& entry : suite) {
    const KernelReport& report = apps::static_verdict(entry);
    EXPECT_TRUE(report.passed) << entry.name << ": "
                               << (report.violations.empty()
                                       ? std::string("(no violations)")
                                       : violation_line(report.violations[0]));
    EXPECT_EQ(report.app, entry.name);
    // Pattern-applicable apps (Table II) must derive an affine read pattern;
    // the index-driven variant must be flagged non-affine, not mis-fit.
    EXPECT_EQ(report.affine_reads, entry.pattern_applicable) << entry.name;
    if (report.passed) {
      EXPECT_NE(report.pattern_signature, 0u) << entry.name;
    }
  }
}

TEST(Verifier, StaticCycleMatchesOnlineDetectorForPatterningApps) {
  const apps::ScaledSystem scaled;
  const auto suite = apps::benchmark_apps(scaled);
  for (const auto& entry : suite) {
    if (!entry.pattern_applicable) continue;
    const KernelReport& report = verdict_for(suite, entry.name);
    ASSERT_TRUE(report.passed) << entry.name;
    for (const auto& stream : report.streams) {
      if (!stream.has_reads) continue;
      EXPECT_TRUE(stream.affine) << entry.name << " stream " << stream.stream;
      // The cross-validation itself: PatternDetector, fed the statically
      // derived addresses, locked onto the same stride cycle.
      EXPECT_TRUE(stream.detector_confirmed)
          << entry.name << " stream " << stream.stream;
      EXPECT_FALSE(stream.read_strides.empty())
          << entry.name << " stream " << stream.stream;
    }
  }
}

TEST(Verifier, DerivedCyclesMatchTheKernelsAccessShapes) {
  const apps::ScaledSystem scaled;
  const auto suite = apps::benchmark_apps(scaled);
  // K-means: 4 doubles read per record then skip the written element.
  EXPECT_EQ(read_cycle(verdict_for(suite, "K-means"), 0),
            (std::vector<std::int64_t>{8, 8, 8, 40}));
  // Word Count / MasterCard: byte-at-a-time scans.
  EXPECT_EQ(read_cycle(verdict_for(suite, "Word Count"), 0),
            (std::vector<std::int64_t>{1}));
  EXPECT_EQ(read_cycle(verdict_for(suite, "MasterCard Affinity"), 0),
            (std::vector<std::int64_t>{1}));
  // Netflix: two u64 header reads then the stride to the next record.
  EXPECT_EQ(read_cycle(verdict_for(suite, "Netflix"), 0),
            (std::vector<std::int64_t>{8, 8, 64}));
  // DNA: 3 u64 reads then skip to the next record.
  EXPECT_EQ(read_cycle(verdict_for(suite, "DNA Assembly"), 0),
            (std::vector<std::int64_t>{8, 8, 8, 64}));
  // Indexed MasterCard gathers via an address table: no affine read fit.
  const KernelReport& indexed =
      verdict_for(suite, "MasterCard Affinity (indexed)");
  EXPECT_TRUE(indexed.passed);
  EXPECT_FALSE(indexed.affine_reads);
}

TEST(Verifier, VerdictIsMemoizedPerEntry) {
  const apps::ScaledSystem scaled;
  const auto suite = apps::benchmark_apps(scaled);
  const KernelReport& a = apps::static_verdict(suite.front());
  const KernelReport& b = apps::static_verdict(suite.front());
  EXPECT_EQ(&a, &b);
}

TEST(Verifier, UnverifiedEntryFailsClosed) {
  apps::BenchApp entry;
  entry.name = "no-verifier";
  const KernelReport& report = apps::static_verdict(entry);
  EXPECT_FALSE(report.passed);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].kind, "unverified");
}

TEST(Verifier, EveryViolatorIsCaughtByItsTargetCheck) {
  for (const auto& violator : violator_cases()) {
    const KernelReport report = violator.verify();
    SCOPED_TRACE(violator.name);
    EXPECT_FALSE(report.passed);
    // The check this violator was built to trip must have failed...
    EXPECT_FALSE(report.checks.passed(violator.expected))
        << "expected " << check_name(violator.expected) << " to fail";
    // ...and at least one of its violations must name a call-site inside the
    // violator kernels themselves (exact file:line provenance).
    bool sited = false;
    for (const auto& violation : report.violations) {
      if (violation.check != violator.expected) continue;
      if (violation.site.known() &&
          violation.site.file.find("violators.hpp") != std::string::npos) {
        sited = true;
      }
    }
    EXPECT_TRUE(sited) << "no violation of "
                       << check_name(violator.expected)
                       << " carries a violators.hpp call-site";
    // A failed kernel never gets a cacheable pattern signature.
    EXPECT_EQ(report.pattern_signature, 0u);
  }
}

// A stream that declares an output column and writes another element of
// its records is reported by name; K-means, which writes only its column,
// passes (AllRegisteredAppsPassEveryContract).
TEST(Verifier, WriteOutsideTheOutputColumnIsAnAliasViolation) {
  for (const auto& violator : violator_cases()) {
    if (violator.name != "write_outside_output_column") continue;
    const KernelReport report = violator.verify();
    bool named = false;
    for (const auto& violation : report.violations) {
      named |= violation.check == Check::kAliasOverlap &&
               violation.kind == "write_outside_output_column";
    }
    EXPECT_TRUE(named);
    return;
  }
  FAIL() << "no output-column violator registered";
}

TEST(Verifier, ViolatorSuiteCoversEveryContract) {
  bool seen[5] = {};
  for (const auto& violator : violator_cases()) {
    seen[static_cast<std::size_t>(violator.expected)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Verifier, StreamingViolationNamesValueOrigin) {
  // The gather violator routes a stream value into a read address; the
  // report must name both the offending read and where the value came from.
  for (const auto& violator : violator_cases()) {
    if (violator.expected != Check::kStreamingRestriction) continue;
    const KernelReport report = violator.verify();
    bool origin_named = false;
    for (const auto& violation : report.violations) {
      if (violation.check != Check::kStreamingRestriction) continue;
      if (violation.origin.known() && violation.site.known() &&
          violation.origin.line != violation.site.line) {
        origin_named = true;
      }
    }
    EXPECT_TRUE(origin_named) << violator.name;
  }
}

TEST(Verifier, ReportJsonIsWellFormedAndSchemaStable) {
  const apps::ScaledSystem scaled;
  const auto suite = apps::benchmark_apps(scaled);
  const KernelReport& report = verdict_for(suite, "K-means");
  const std::string json = report_json(report);
  for (const char* key :
       {"\"app\":", "\"passed\":", "\"pattern_signature\":",
        "\"affine_reads\":", "\"checks\":", "\"streaming_restriction\":",
        "\"addr_gen_purity\":", "\"phase_agreement\":", "\"alias_overlap\":",
        "\"pattern_consistency\":", "\"streams\":", "\"violations\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace bigk::verify
