// Configuration for the bigkcheck correctness checkers (the repo's
// compute-sanitizer analogue). Header-only, depending on nothing but the
// shared spec tokenizer, so core::Options and schemes::SchemeConfig can
// embed it.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "sim/spec.hpp"

namespace bigk::check {

struct CheckOptions {
  /// Master switch; when false no checker is constructed and the simulator
  /// hooks stay null (zero overhead).
  bool enabled = false;

  /// Device-memory sanitizer (bounds / liveness / initialized bytes).
  bool memcheck = true;
  /// Warp/block data-race detector over the traced lane access streams.
  bool racecheck = true;
  /// Pipeline-ordering checker (flag-after-data, ring-slot lifecycle,
  /// address-generation coverage).
  bool pipecheck = true;

  /// Throw CheckError at the first violation instead of collecting until
  /// finalize().
  bool fail_fast = false;

  /// Diagnostics kept verbatim; violations beyond the cap are still counted.
  std::uint32_t max_recorded = 64;

  static CheckOptions all_enabled() {
    CheckOptions options;
    options.enabled = true;
    return options;
  }

  /// Parses the BIGK_CHECK environment variable: unset/""/"0"/"off" keeps
  /// checking disabled; "1"/"on"/"all" enables every checker; otherwise a
  /// comma list of {memcheck, racecheck, pipecheck, fail_fast} enables a
  /// subset. Unknown items throw.
  static CheckOptions from_env() {
    const char* value = std::getenv("BIGK_CHECK");
    return parse(value == nullptr ? std::string_view{}
                                  : std::string_view{value});
  }

  static CheckOptions parse(std::string_view spec) {
    CheckOptions options;
    spec = sim::spec::trim(spec);
    if (spec.empty() || spec == "0" || spec == "off") return options;
    if (spec == "1" || spec == "on" || spec == "all") {
      return all_enabled();
    }
    options.enabled = true;
    options.memcheck = options.racecheck = options.pipecheck = false;
    for (const std::string_view item : sim::spec::split(spec, ',')) {
      if (item == "memcheck") {
        options.memcheck = true;
      } else if (item == "racecheck") {
        options.racecheck = true;
      } else if (item == "pipecheck") {
        options.pipecheck = true;
      } else if (item == "fail_fast") {
        options.fail_fast = true;
      } else {
        sim::spec::fail("BIGK_CHECK", {}, item,
                        "unknown item (valid: memcheck racecheck pipecheck "
                        "fail_fast, or 0 off 1 on all)");
      }
    }
    return options;
  }
};

}  // namespace bigk::check
