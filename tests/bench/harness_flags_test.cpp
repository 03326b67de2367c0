// Harness flag parsing: ratio-valued flags (--cpu-ratio) must reject
// malformed and out-of-range input with a clear error instead of silently
// clamping a typo into a valid split, while accepting the whole legal range
// including both endpoints. Counts, BIGK_SCALE and --offered-load go
// through the same shared number parser, and a malformed value stops the
// binary with exit status 1 and an error naming the flag.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace bigk::bench {
namespace {

TEST(HarnessFlags, ParseRatioAcceptsTheFullRange) {
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0", "--cpu-ratio"), 0.0);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("1", "--cpu-ratio"), 1.0);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0.25", "--cpu-ratio"), 0.25);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0.5", "--cpu-ratio"), 0.5);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("1.0", "--cpu-ratio"), 1.0);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("5e-1", "--cpu-ratio"), 0.5);
  EXPECT_DOUBLE_EQ(Harness::parse_ratio("0.0", "--cpu-ratio"), 0.0);
}

TEST(HarnessFlags, ParseRatioRejectsOutOfRange) {
  EXPECT_THROW(Harness::parse_ratio("1.5", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("-0.1", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("2", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("nan", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("inf", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("1e300", "--cpu-ratio"),
               std::invalid_argument);
}

TEST(HarnessFlags, ParseRatioRejectsMalformedInput) {
  EXPECT_THROW(Harness::parse_ratio("", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("abc", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("0.5x", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("0.2.5", "--cpu-ratio"),
               std::invalid_argument);
  EXPECT_THROW(Harness::parse_ratio("--", "--cpu-ratio"),
               std::invalid_argument);
}

TEST(HarnessFlags, ParseRatioErrorNamesTheFlagAndValue) {
  try {
    Harness::parse_ratio("1.5", "--cpu-ratio");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--cpu-ratio"), std::string::npos);
    EXPECT_NE(message.find("1.5"), std::string::npos);
  }
}

/// The std::invalid_argument message `parse` throws; "" when it returns.
template <class Parse>
std::string rejection(Parse parse) {
  try {
    parse();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(HarnessFlags, CountsAreWholePositiveIntegersOfTheirWidth) {
  EXPECT_EQ(parse_positive<std::uint32_t>("8", "--jobs"), 8u);
  // --fault-seed is 64-bit; read as 32 bits it would wrap to 705032704.
  EXPECT_EQ(parse_positive<std::uint64_t>("5000000000", "--fault-seed"),
            5'000'000'000ull);
  // "8abc" must not run as 8 jobs.
  for (const char* value : {"8abc", "0", "-3", "1.5", "", "4294967296"}) {
    const std::string message =
        rejection([&] { parse_positive<std::uint32_t>(value, "--jobs"); });
    EXPECT_NE(message.find("--jobs"), std::string::npos) << value;
    EXPECT_NE(message.find(std::string("'") + value + "'"), std::string::npos)
        << message;
  }
}

TEST(HarnessFlags, ScaleAndOfferedLoadArePositiveFiniteNumbers) {
  EXPECT_DOUBLE_EQ(parse_positive<double>("0.001", "BIGK_SCALE"), 0.001);
  EXPECT_DOUBLE_EQ(parse_positive<double>("1.5", "--offered-load"), 1.5);
  // A malformed BIGK_SCALE must not fall back to the default scale.
  for (const char* value : {"0.0O1", "0", "-1", "nan", ""}) {
    EXPECT_NE(rejection([&] { parse_positive<double>(value, "BIGK_SCALE"); })
                  .find("BIGK_SCALE"),
              std::string::npos)
        << value;
  }
}

/// Builds a Harness over `args` with BIGK_SCALE set to `scale`.
void make_harness(const char* scale, std::vector<std::string> args) {
  ::setenv("BIGK_SCALE", scale, 1);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  Harness harness("bench", &argc, argv.data());
}

TEST(HarnessFlagsDeathTest, MalformedJobsExitsNamingTheFlag) {
  EXPECT_EXIT((make_harness("0.0001", {"bench", "--jobs", "8abc"})),
              ::testing::ExitedWithCode(1), "--jobs: '8abc'");
}

TEST(HarnessFlagsDeathTest, MalformedScaleExitsNamingTheVariable) {
  EXPECT_EXIT((make_harness("0.0O1", {"bench"})),
              ::testing::ExitedWithCode(1), "BIGK_SCALE: '0.0O1'");
}

}  // namespace
}  // namespace bigk::bench
