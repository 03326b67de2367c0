// The shared spec tokenizer (sim/spec.hpp) and the five grammars built on
// it: FaultSpec, ArrivalSpec, the --tenants list, SLO rules and BIGK_CHECK.
// Malformed numbers that the hand-rolled parsers accepted are rejected with
// a message naming the key and the token, and a seeded fuzz run checks that
// every parser either returns or throws std::invalid_argument.
#include "sim/spec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check/options.hpp"
#include "fault/fault.hpp"
#include "load/arrival.hpp"
#include "load/generator.hpp"
#include "obs/prof/slo.hpp"
#include "sim/hash.hpp"

namespace bigk {
namespace {

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

bool mentions(const std::string& message, std::string_view part) {
  return message.find(part) != std::string::npos;
}

TEST(SpecTokenizer, SplitTrimsBlanksAndSkipsEmptyPieces) {
  EXPECT_EQ(sim::spec::split(" a ,\tb,, c ,", ','),
            (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_TRUE(sim::spec::split("", ';').empty());
  EXPECT_TRUE(sim::spec::split(" ; ;", ';').empty());
}

TEST(SpecTokenizer, KeyValueNeedsBothSides) {
  const sim::spec::Field field = sim::spec::key_value("g", " rate = 5 ");
  EXPECT_EQ(field.key, "rate");
  EXPECT_EQ(field.value, "5");
  EXPECT_EQ(sim::spec::key_value("g", "apps=a=b").value, "a=b");
  for (const char* piece : {"rate", "=5", "rate=", " = "}) {
    EXPECT_TRUE(mentions(rejection([&] { sim::spec::key_value("g", piece); }),
                         "g: '"))
        << piece;
  }
}

TEST(SpecTokenizer, NumbersAreWholeTokensOfTheFieldsType) {
  const auto field = [](std::string_view value) {
    return sim::spec::Field{"g", "k", value};
  };
  EXPECT_EQ(field("4294967295").number<std::uint32_t>(), 4294967295u);
  EXPECT_EQ(field("18446744073709551615").number<std::uint64_t>(),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(field("5e-1").number<double>(), 0.5);
  for (const char* token :
       {"", "4294967296", "-1", "+1", "1.5", "1e3", "8abc", " 1", "0x10"}) {
    const std::string message =
        rejection([&] { field(token).number<std::uint32_t>(); });
    EXPECT_TRUE(mentions(message, std::string("g: k='") + token + "'"))
        << token << " -> " << message;
  }
  for (const char* token : {"", "nan", "inf", "-inf", "1e309", "1e", "0.0O1"}) {
    EXPECT_TRUE(mentions(rejection([&] { field(token).number<double>(); }),
                         "not a finite number"))
        << token;
  }
  EXPECT_EQ(field("3").positive<std::uint32_t>(), 3u);
  EXPECT_TRUE(mentions(rejection([&] { field("0").positive<double>(); }),
                       "must be > 0"));
}

TEST(SpecTokenizer, DurationsScaleRoundAndRejectOverflow) {
  const auto field = [](std::string_view value) {
    return sim::spec::Field{"g", "k", value};
  };
  EXPECT_EQ(field("7").duration<std::uint64_t>(sim::kMicrosecond),
            7 * sim::kMicrosecond);
  EXPECT_EQ(field("0.3").duration<double>(sim::kMicrosecond), 300'000u);
  EXPECT_EQ(field("1.2e-05").duration<double>(sim::kMicrosecond), 12u);
  EXPECT_EQ(field("18446744073709").duration<std::uint64_t>(sim::kMicrosecond),
            18'446'744'073'709'000'000ull);
  for (const char* token : {"18446744073710", "-1"}) {
    EXPECT_FALSE(rejection([&] {
                   field(token).duration<std::uint64_t>(sim::kMicrosecond);
                 }).empty())
        << token;
  }
  for (const char* token : {"1e14", "-1"}) {
    EXPECT_FALSE(rejection([&] {
                   field(token).duration<double>(sim::kMicrosecond);
                 }).empty())
        << token;
  }
}

// --- values the hand-rolled parsers accepted -------------------------------

TEST(SpecGrammar, FaultProbabilityMustBeFinite) {
  // NaN fails every comparison: it would pass both the [0, 1] and the
  // trigger check, and the spec could never fire.
  EXPECT_TRUE(mentions(
      rejection([] { fault::FaultSpec::parse("dma_error,p=nan"); }),
      "p='nan'"));
}

TEST(SpecGrammar, FaultDeviceMustFitItsField) {
  // 2^32 + 1 must not wrap to device 1.
  EXPECT_TRUE(mentions(rejection([] {
                         fault::FaultSpec::parse(
                             "dma_error,nth=1,device=4294967297");
                       }),
                       "device='4294967297'"));
  EXPECT_EQ(fault::FaultSpec::parse_one("dma_error,nth=1,device=7").device,
            7u);
}

TEST(SpecGrammar, ArrivalRateMustBeFinite) {
  // A NaN rate would make make_load generate no jobs.
  EXPECT_TRUE(mentions(
      rejection([] { load::ArrivalSpec::parse("poisson,rate=nan"); }),
      "rate='nan'"));
}

TEST(SpecGrammar, ArrivalSeedIsReadExactly) {
  // 2^53 + 1: read through a double, the seed would come back as 2^53.
  EXPECT_EQ(load::ArrivalSpec::parse("poisson,seed=9007199254740993").seed,
            9007199254740993ull);
  EXPECT_FALSE(rejection([] {
                 load::ArrivalSpec::parse("poisson,seed=1.5");
               }).empty());
}

TEST(SpecGrammar, TenantWeightAndQuotaMustBeIntegersThatFit) {
  // Neither may truncate or wrap to 1.
  EXPECT_TRUE(mentions(rejection([] {
                         load::parse_tenants("a:weight=1.5,quota=4294967297");
                       }),
                       "weight='1.5'"));
  EXPECT_TRUE(mentions(
      rejection([] { load::parse_tenants("a:quota=4294967297"); }),
      "quota='4294967297'"));
}

TEST(SpecGrammar, TenantShareMustBeFinite) {
  // A NaN share would silently give tenant a no jobs.
  EXPECT_TRUE(mentions(
      rejection([] { load::parse_tenants("a:share=nan;b:share=1"); }),
      "share='nan'"));
}

TEST(SpecGrammar, TenantEntryMissingItsColonIsRejected) {
  // Without its ':' the whole entry would name one tenant of weight 1.
  EXPECT_TRUE(mentions(rejection([] { load::parse_tenants("lc,weight=8"); }),
                       "'lc,weight=8'"));
}

TEST(SpecGrammar, SloThresholdMustBeFinite) {
  EXPECT_TRUE(mentions(
      rejection([] { obs::prof::parse_slo_rules("p99_ms <= nan"); }),
      "p99_ms='nan'"));
}

TEST(SpecGrammar, EveryGrammarTrimsBlanksAndSkipsEmptyPieces) {
  const load::ArrivalSpec arrival =
      load::ArrivalSpec::parse(" poisson, rate=5 ,,seed = 2,");
  EXPECT_DOUBLE_EQ(arrival.rate_per_s, 5.0);
  EXPECT_EQ(arrival.seed, 2u);
  const auto faults = fault::FaultSpec::parse(" dma_error , nth = 3 ;; ");
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].nth, 3u);
  const auto tenants =
      load::parse_tenants(" lc : weight = 8 ,, apps = a | b*2 ;");
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].qos.name, "lc");
  EXPECT_EQ(tenants[0].qos.weight, 8u);
  ASSERT_EQ(tenants[0].mix.size(), 2u);
  EXPECT_EQ(tenants[0].mix[1].app, "b");
  EXPECT_DOUBLE_EQ(tenants[0].mix[1].weight, 2.0);
  EXPECT_EQ(obs::prof::parse_slo_rules(" ; p99_ms <= 5 ;").size(), 1u);
  const check::CheckOptions check = check::CheckOptions::parse(" memcheck, ,");
  EXPECT_TRUE(check.memcheck);
  EXPECT_FALSE(check.racecheck);
}

// --- seeded fuzz -----------------------------------------------------------

/// One grammar's vocabulary: the heads a spec starts with, the keys of its
/// key=value fields and values that fit most of them. A grammar without
/// keys is an SLO rule list when it has comparison operators
/// ("<head> <op> <value>") and a BIGK_CHECK item list ("<head>,<head>...")
/// otherwise.
struct Vocabulary {
  std::vector<std::string_view> heads;
  std::vector<std::string_view> keys;
  std::vector<std::string_view> values;
  std::vector<std::string_view> ops;
};

const std::array<Vocabulary, 5>& vocabularies() {
  static const std::array<Vocabulary, 5> kVocabularies = {{
      {{"dma_error", "pcie_degrade", "device_lost", "stage_stall",
        "stale_cache", "bitflip_dma", "fault.stale_cache"},
       {"p", "nth", "every", "max", "device", "factor", "stall_us",
        "stall_ms", "down_us", "down_ms"},
       {"1", "2", "3", "0.5"},
       {}},
      {{"poisson", "mmpp", "diurnal"},
       {"rate", "burst", "calm_us", "burst_us", "amplitude", "period_us",
        "seed"},
       {"1", "2", "10", "0.5", "0.9999999"},
       {}},
      {{"lc:", "batch:", "a:", "b"},
       {"class", "weight", "share", "quota", "deadline_us", "think_us",
        "clients", "apps"},
       {"1", "2", "0.5", "lc", "batch", "toy0|toy2*3"},
       {}},
      {{"p99_ms", "utilization", "queue_depth", "p99ms"},
       {},
       {"1", "5", "0.5"},
       {"<=", ">=", "<", ">", "=="}},
      {{"memcheck", "racecheck", "pipecheck", "fail_fast", "off", "1"},
       {},
       {},
       {}},
  }};
  return kVocabularies;
}

/// Values that probe every edge of the number and list rules.
constexpr std::array<std::string_view, 32> kEdgeValues = {
    "0",          "-0",          "0.9999999",
    "1.5",        "-1",          "+2",
    "1e3",        "1e-7",        "1e308",
    "1e309",      "4.9e-324",    "nan",
    "inf",        "0x10",        "4294967295",
    "4294967297", "18446744073709551615",
    "18446744073709551616",      "9007199254740993",
    "abc",        "batch",       "gold",
    "toy0",       "toy0|toy2*3", "toy2*0",
    "*2",         "a||b",        "8abc",
    "1e",         ".5",          " ",
    ""};

/// Field separators, mostly the grammars' own.
constexpr std::array<std::string_view, 16> kJoins = {
    ",", ",", ",", ",", ",", ",", ",", ",", ",", ",",
    ", ", ",,", ";", ":", "|", " "};

/// Single characters of the grammars' alphabet, for point mutations.
constexpr std::string_view kAlphabet = ",;=:|*<> \t-+.e0123456789anpx_";

template <class Words>
const typename Words::value_type& pick(sim::SplitMix64& rng,
                                       const Words& words) {
  return words[rng.below(words.size())];
}

/// One fuzz input: one or two specs in a randomly chosen grammar's
/// vocabulary (sometimes borrowing another's heads, keys or edge values),
/// then, for half of the inputs, one to three point mutations.
std::string draw_spec(sim::SplitMix64& rng) {
  const auto& all = vocabularies();
  const Vocabulary& grammar = pick(rng, all);
  const auto vocabulary = [&]() -> const Vocabulary& {
    return rng.below(8) == 0 ? pick(rng, all) : grammar;
  };
  const auto value = [&] {
    return rng.below(4) != 0 && !grammar.values.empty()
               ? pick(rng, grammar.values)
               : pick(rng, kEdgeValues);
  };
  std::string text;
  const std::uint64_t specs = rng.below(4) == 0 ? 2 : 1;
  for (std::uint64_t s = 0; s < specs; ++s) {
    if (s > 0) text += rng.below(4) == 0 ? ";;" : ";";
    text += pick(rng, vocabulary().heads);
    if (!grammar.ops.empty()) {
      text += rng.below(2) == 0 ? " " : "";
      text += pick(rng, grammar.ops);
      text += value();
      continue;
    }
    const std::uint64_t fields = rng.below(4);
    for (std::uint64_t f = 0; f < fields; ++f) {
      const Vocabulary& words = vocabulary();
      text += pick(rng, kJoins);
      if (words.keys.empty()) {
        text += pick(rng, words.heads);
        continue;
      }
      text += pick(rng, words.keys);
      text += rng.below(8) == 0 ? " = " : "=";
      text += value();
    }
  }
  const std::uint64_t edits = rng.below(2) == 0 ? 0 : 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.below(text.size() + 1);
    const char c = kAlphabet[rng.below(kAlphabet.size())];
    switch (rng.below(3)) {
      case 0:
        text.insert(at, 1, c);
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      default:
        if (at < text.size()) text[at] = c;
        break;
    }
  }
  return text;
}

/// Runs `parse`: true when it returned, false when it threw
/// std::invalid_argument. Any other exception fails the test.
template <class Parse>
bool accepted(std::string_view grammar, const std::string& text, Parse parse) {
  try {
    parse();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << grammar << " '" << text << "' threw " << error.what();
  } catch (...) {
    ADD_FAILURE() << grammar << " '" << text << "' threw a non-std exception";
  }
  return false;
}

TEST(SpecGrammarFuzz, ParsersReturnOrThrowInvalidArgument) {
  constexpr int kDraws = 20'000;
  sim::SplitMix64 rng(2014);
  std::array<int, 5> parsed{};
  for (int draw = 0; draw < kDraws; ++draw) {
    const std::string text = draw_spec(rng);

    std::vector<fault::FaultSpec> faults;
    if (accepted("fault spec", text,
                 [&] { faults = fault::FaultSpec::parse(text); })) {
      ++parsed[0];
      for (const fault::FaultSpec& spec : faults) {
        const std::string printed = spec.to_string();
        std::string reprinted;
        EXPECT_NO_THROW(
            reprinted = fault::FaultSpec::parse_one(printed).to_string())
            << text;
        EXPECT_EQ(reprinted, printed) << text;
      }
    }

    load::ArrivalSpec arrival;
    if (accepted("--arrival", text,
                 [&] { arrival = load::ArrivalSpec::parse(text); })) {
      ++parsed[1];
      const std::string printed = arrival.to_string();
      std::string reprinted;
      EXPECT_NO_THROW(reprinted = load::ArrivalSpec::parse(printed).to_string())
          << text;
      EXPECT_EQ(reprinted, printed) << text;
    }

    parsed[2] += accepted("--tenants", text,
                          [&] { load::parse_tenants(text); });
    parsed[3] += accepted("SLO rules", text,
                          [&] { obs::prof::parse_slo_rules(text); });
    parsed[4] += accepted("BIGK_CHECK", text,
                          [&] { check::CheckOptions::parse(text); });
  }
  // Every grammar accepted a share of the draws, so the round trips above
  // were exercised.
  for (std::size_t g = 0; g < parsed.size(); ++g) {
    EXPECT_GT(parsed[g], kDraws / 200) << "grammar " << g;
  }
}

}  // namespace
}  // namespace bigk
