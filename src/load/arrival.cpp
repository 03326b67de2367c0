#include "load/arrival.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/spec.hpp"

namespace bigk::load {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr std::string_view kGrammar = "--arrival";

}  // namespace

ArrivalSpec ArrivalSpec::parse(std::string_view text) {
  const std::vector<std::string_view> pieces = sim::spec::split(text, ',');
  const std::string_view kind = pieces.empty() ? text : pieces.front();
  ArrivalSpec spec;
  if (kind == "poisson") {
    spec.kind = ArrivalKind::kPoisson;
  } else if (kind == "mmpp") {
    spec.kind = ArrivalKind::kMmpp;
  } else if (kind == "diurnal") {
    spec.kind = ArrivalKind::kDiurnal;
  } else {
    sim::spec::fail(kGrammar, {}, kind,
                    "unknown arrival process (valid: poisson mmpp diurnal)");
  }
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    const sim::spec::Field field = sim::spec::key_value(kGrammar, pieces[i]);
    const auto duration = [&field] {
      const sim::DurationPs ps = field.duration<double>(sim::kMicrosecond);
      if (ps == 0) field.fail("must be at least 1 ps");
      return ps;
    };
    if (field.key == "rate") {
      spec.rate_per_s = field.positive<double>();
    } else if (field.key == "burst") {
      spec.burst_rate_per_s = field.positive<double>();
    } else if (field.key == "calm_us") {
      spec.mean_calm = duration();
    } else if (field.key == "burst_us") {
      spec.mean_burst = duration();
    } else if (field.key == "amplitude") {
      spec.amplitude = field.positive<double>();
      if (spec.amplitude >= 1.0) field.fail("must be in (0, 1)");
    } else if (field.key == "period_us") {
      spec.period = duration();
    } else if (field.key == "seed") {
      spec.seed = field.number<std::uint64_t>();
    } else {
      field.fail("unknown key (valid: rate burst calm_us burst_us amplitude "
                 "period_us seed)");
    }
  }
  return spec;
}

std::string ArrivalSpec::to_string() const {
  std::ostringstream out;
  out << arrival_kind_name(kind) << ",rate=" << rate_per_s;
  if (kind == ArrivalKind::kMmpp) {
    // An unset burst rate stays unset: 8x a rate near the double maximum
    // would print as "inf".
    if (burst_rate_per_s > 0.0) out << ",burst=" << burst_rate_per_s;
    out << ",calm_us=" << static_cast<double>(mean_calm) / 1e6
        << ",burst_us=" << static_cast<double>(mean_burst) / 1e6;
  } else if (kind == ArrivalKind::kDiurnal) {
    // Shortest round-trip form: at the stream's 6 digits an amplitude just
    // below 1 would print as the out-of-range "1".
    char digits[32];
    const auto printed =
        std::to_chars(digits, digits + sizeof(digits), amplitude);
    out << ",amplitude=" << std::string_view(digits, printed.ptr)
        << ",period_us=" << static_cast<double>(period) / 1e6;
  }
  out << ",seed=" << seed;
  return out.str();
}

ArrivalSpec ArrivalSpec::scaled(double factor) const {
  ArrivalSpec spec = *this;
  spec.rate_per_s *= factor;
  if (spec.burst_rate_per_s > 0.0) spec.burst_rate_per_s *= factor;
  return spec;
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  if (spec_.rate_per_s <= 0.0) {
    throw std::invalid_argument("arrival rate must be positive");
  }
  if (spec_.kind == ArrivalKind::kMmpp) {
    if (spec_.burst_rate_per_s <= 0.0) {
      spec_.burst_rate_per_s = 8.0 * spec_.rate_per_s;
    }
    dwell_end_ = exp_dwell(spec_.mean_calm);
  }
}

double ArrivalProcess::uniform() {
  // (0, 1]: keeps -log() finite.
  return 1.0 - rng_.unit();
}

sim::DurationPs ArrivalProcess::exp_gap(double rate_per_s) {
  const double gap_s = -std::log(uniform()) / rate_per_s;
  const double gap_ps = gap_s * 1e12;
  if (gap_ps >= 9e18) return static_cast<sim::DurationPs>(9e18);
  const auto gap = static_cast<sim::DurationPs>(gap_ps + 0.5);
  return gap > 0 ? gap : 1;
}

sim::DurationPs ArrivalProcess::exp_dwell(sim::DurationPs mean) {
  const double dwell = -std::log(uniform()) * static_cast<double>(mean);
  if (dwell >= 9e18) return static_cast<sim::DurationPs>(9e18);
  const auto d = static_cast<sim::DurationPs>(dwell + 0.5);
  return d > 0 ? d : 1;
}

sim::TimePs ArrivalProcess::next() {
  switch (spec_.kind) {
    case ArrivalKind::kPoisson:
      now_ += exp_gap(spec_.rate_per_s);
      return now_;
    case ArrivalKind::kMmpp: {
      // Sample the next arrival in the current state; if it falls past the
      // state's dwell boundary, advance to the boundary, flip the state, and
      // resample from there (both the Poisson stream and the dwell clock are
      // memoryless, so restarting at the boundary is exact).
      for (;;) {
        const double rate =
            in_burst_ ? spec_.burst_rate_per_s : spec_.rate_per_s;
        const sim::TimePs candidate = now_ + exp_gap(rate);
        if (candidate <= dwell_end_) {
          now_ = candidate;
          return now_;
        }
        now_ = dwell_end_;
        in_burst_ = !in_burst_;
        dwell_end_ =
            now_ + exp_dwell(in_burst_ ? spec_.mean_burst : spec_.mean_calm);
      }
    }
    case ArrivalKind::kDiurnal: {
      // Thinning (Lewis-Shedler): draw from a Poisson stream at the peak
      // rate and accept each candidate with probability rate(t) / peak.
      const double peak = spec_.rate_per_s * (1.0 + spec_.amplitude);
      for (;;) {
        now_ += exp_gap(peak);
        const double phase =
            static_cast<double>(now_ % spec_.period) /
            static_cast<double>(spec_.period);
        const double rate =
            spec_.rate_per_s *
            (1.0 + spec_.amplitude * std::sin(2.0 * kPi * phase));
        if (uniform() * peak <= rate) return now_;
      }
    }
  }
  throw std::logic_error("unhandled arrival kind");
}

}  // namespace bigk::load
