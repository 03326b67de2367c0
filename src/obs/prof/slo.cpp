#include "obs/prof/slo.hpp"

#include <cstdio>

#include "sim/spec.hpp"

namespace bigk::obs::prof {
namespace {

constexpr std::string_view kGrammar = "SLO rule";

const char* op_text(SloRule::Op op) {
  switch (op) {
    case SloRule::Op::kLt: return "<";
    case SloRule::Op::kLe: return "<=";
    case SloRule::Op::kGt: return ">";
    case SloRule::Op::kGe: return ">=";
  }
  return "?";
}

}  // namespace

bool SloRule::holds(double value) const noexcept {
  switch (op) {
    case Op::kLt: return value < threshold;
    case Op::kLe: return value <= threshold;
    case Op::kGt: return value > threshold;
    case Op::kGe: return value >= threshold;
  }
  return true;
}

std::string SloRule::to_string() const {
  std::string out = metric;
  out += ' ';
  out += op_text(op);
  out += ' ';
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", threshold);
  out += buf;
  return out;
}

SloRule SloRule::parse(std::string_view text) {
  const std::string_view rule_text = sim::spec::trim(text);
  // Two-character operators first so "<=" is not read as "<" + "=...".
  static constexpr struct {
    std::string_view token;
    Op op;
  } kOps[] = {
      {"<=", Op::kLe}, {">=", Op::kGe}, {"<", Op::kLt}, {">", Op::kGt}};
  for (const auto& candidate : kOps) {
    const std::size_t pos = rule_text.find(candidate.token);
    if (pos == std::string_view::npos) continue;
    SloRule rule;
    rule.metric = std::string(sim::spec::trim(rule_text.substr(0, pos)));
    rule.op = candidate.op;
    if (rule.metric.empty()) break;
    const sim::spec::Field threshold{
        kGrammar, rule.metric,
        sim::spec::trim(rule_text.substr(pos + candidate.token.size()))};
    rule.threshold = threshold.number<double>();
    return rule;
  }
  sim::spec::fail(kGrammar, {}, text,
                  "expected '<metric> <op> <threshold>' with op one of "
                  "< <= > >=");
}

std::vector<SloRule> parse_slo_rules(std::string_view spec) {
  std::vector<SloRule> rules;
  for (const std::string_view piece : sim::spec::split(spec, ';')) {
    rules.push_back(SloRule::parse(piece));
  }
  return rules;
}

SloMonitor::SloMonitor(std::vector<SloRule> rules)
    : rules_(std::move(rules)) {}

void SloMonitor::attach(MetricsRegistry* metrics, Tracer* tracer,
                        std::string scope) {
  metrics_ = metrics;
  tracer_ = tracer;
  scope_ = std::move(scope);
}

std::uint64_t SloMonitor::evaluate(
    sim::TimePs now, const std::map<std::string, double>& values) {
  std::uint64_t violated = 0;
  for (const SloRule& rule : rules_) {
    const auto it = values.find(rule.metric);
    if (it == values.end()) continue;  // metric not observable yet
    if (rule.holds(it->second)) continue;
    ++violated;
    ++violations_;
    if (metrics_ != nullptr) {
      metrics_->counter(scope_ + "slo.violation").add();
      metrics_->counter(scope_ + "slo.violation." + rule.metric).add();
    }
    if (tracer_ != nullptr) {
      tracer_->instant(tracer_->track(scope_ + "slo", rule.metric),
                       rule.to_string(), now, "slo");
    }
  }
  return violated;
}

}  // namespace bigk::obs::prof
