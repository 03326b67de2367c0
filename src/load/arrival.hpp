// bigkload arrival processes: deterministic, seeded generators of job
// arrival instants for the open-loop workload generator.
//
//   poisson   memoryless arrivals at a constant rate (exponential gaps via
//             inverse-CDF sampling)
//   mmpp      2-state Markov-modulated Poisson process: the rate switches
//             between a calm and a burst level with exponentially
//             distributed dwell times — the standard bursty-traffic model
//   diurnal   sinusoidally modulated Poisson rate (a compressed day/night
//             cycle), sampled by thinning against the peak rate
//
// Every process is a pure function of (spec, seed): the same pair produces
// the same arrival sequence on every platform, which is what makes whole
// load sweeps replayable bit for bit.
//
// --arrival flag grammar (ArrivalSpec::parse):
//   "poisson[,rate=<jobs/s>][,seed=<n>]"
//   "mmpp[,rate=<calm jobs/s>][,burst=<burst jobs/s>][,calm_us=<mean dwell>]
//        [,burst_us=<mean dwell>][,seed=<n>]"
//   "diurnal[,rate=<mean jobs/s>][,amplitude=<0..1>][,period_us=<n>]
//           [,seed=<n>]"
// Tokens follow sim/spec.hpp: rates and the amplitude are finite and
// positive, the *_us durations are decimal microseconds rounded to the
// picosecond (at least 1 ps), and the seed is a 64-bit integer read exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/hash.hpp"
#include "sim/time.hpp"

namespace bigk::load {

enum class ArrivalKind : std::uint8_t { kPoisson, kMmpp, kDiurnal };

inline const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kMmpp: return "mmpp";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "?";
}

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Mean rate (poisson), calm-state rate (mmpp), or mean rate around which
  /// the diurnal cycle oscillates.
  double rate_per_s = 10'000.0;
  /// mmpp: burst-state rate; 0 = 8x rate_per_s.
  double burst_rate_per_s = 0.0;
  /// mmpp: mean dwell time in each state.
  sim::DurationPs mean_calm = 400 * sim::kMicrosecond;
  sim::DurationPs mean_burst = 100 * sim::kMicrosecond;
  /// diurnal: rate(t) = rate * (1 + amplitude * sin(2 pi t / period)).
  double amplitude = 0.8;
  sim::DurationPs period = sim::kMillisecond;
  /// Seed for the process (and, via LoadConfig, the whole generated plan).
  std::uint64_t seed = 1;

  /// Parses the --arrival grammar above; throws std::invalid_argument with
  /// the offending token on malformed input.
  static ArrivalSpec parse(std::string_view text);

  /// Round-trips through parse(): same process, same seed.
  std::string to_string() const;

  /// Copy with every rate multiplied by `factor` (offered-load sweeps).
  ArrivalSpec scaled(double factor) const;
};

/// Streaming generator of the arrival instants described by a spec.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalSpec& spec, std::uint64_t seed);
  explicit ArrivalProcess(const ArrivalSpec& spec)
      : ArrivalProcess(spec, spec.seed) {}

  /// Next arrival instant; the sequence is strictly increasing.
  sim::TimePs next();

  const ArrivalSpec& spec() const noexcept { return spec_; }

 private:
  double uniform();                    // (0, 1]
  sim::DurationPs exp_gap(double rate_per_s);
  sim::DurationPs exp_dwell(sim::DurationPs mean);

  ArrivalSpec spec_;
  sim::SplitMix64 rng_;
  sim::TimePs now_ = 0;
  // mmpp state machine.
  bool in_burst_ = false;
  sim::TimePs dwell_end_ = 0;
};

}  // namespace bigk::load
