#include "obs/rules.hpp"

#include "obs/snapshot.hpp"
#include "obs/text_buffer.hpp"

namespace topfull::obs {

namespace {

/// The SLO bad-fraction burn expression over one window, as a multiple of
/// the error budget. NaN (no completions in the window) compares false,
/// so the alert stays quiet before traffic.
std::string BurnExpr(double window_s, double budget) {
  const std::string w = Num(window_s) + "s";
  return "(1 - sum(rate(topfull_requests_good_total[" + w +
         "])) / sum(rate(topfull_requests_completed_total[" + w + "]))) / " +
         Num(budget);
}

}  // namespace

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
  }
  return "unknown";
}

void RuleEngine::AddRecording(RecordingRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  recordings_.push_back(std::move(rule));
}

void RuleEngine::AddAlert(AlertRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  AlertStatus status;
  status.rule = std::move(rule);
  alerts_.push_back(std::move(status));
}

void RuleEngine::Evaluate(double t_s) {
  std::lock_guard<std::mutex> lock(mu_);
  last_eval_s_ = t_s;

  for (const RecordingRule& rule : recordings_) {
    const QueryResult result = EvalInstant(*tsdb_, rule.expr, t_s, eval_options_);
    if (!result.ok) continue;  // a misconfigured rule must not kill the run
    if (result.type == QueryResult::Type::kScalar) {
      tsdb_->Append(rule.name, {}, MetricType::kGauge, t_s,
                    result.series[0].points[0].value);
    } else if (result.type == QueryResult::Type::kVector) {
      for (const QuerySeries& series : result.series) {
        tsdb_->Append(rule.name, series.labels, MetricType::kGauge, t_s,
                      series.points[0].value);
      }
    }
  }

  for (AlertStatus& alert : alerts_) {
    bool all_true = !alert.rule.exprs.empty();
    double value = 0.0;
    bool have_value = false;
    for (const std::string& expr : alert.rule.exprs) {
      const QueryResult result = EvalInstant(*tsdb_, expr, t_s, eval_options_);
      bool truthy = false;
      if (result.ok && result.type == QueryResult::Type::kScalar) {
        const double v = result.series[0].points[0].value;
        truthy = v != 0.0;  // NaN compares false: stays quiet
        if (!have_value) {
          value = v;
          have_value = true;
        }
      } else if (result.ok && result.type == QueryResult::Type::kVector &&
                 !result.series.empty()) {
        truthy = true;
        if (!have_value) {
          value = result.series[0].points[0].value;
          have_value = true;
        }
      }
      if (!truthy) {
        all_true = false;
        break;
      }
    }

    const auto transition = [this, t_s, &alert](AlertState to) {
      transitions_.push_back(
          {t_s, alert.rule.name, alert.state, to, alert.value});
      alert.state = to;
      alert.since_s = t_s;
    };
    if (have_value) alert.value = value;
    if (all_true) {
      switch (alert.state) {
        case AlertState::kInactive:
          transition(alert.rule.for_s <= 0.0 ? AlertState::kFiring
                                             : AlertState::kPending);
          break;
        case AlertState::kPending:
          if (t_s - alert.since_s >= alert.rule.for_s) {
            transition(AlertState::kFiring);
          }
          break;
        case AlertState::kFiring:
          break;
      }
    } else if (alert.state != AlertState::kInactive) {
      transition(AlertState::kInactive);
    }
  }
}

double RuleEngine::last_eval_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_eval_s_;
}

std::string RuleEngine::AlertsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // JsonDouble: an infinite alert value (e.g. a burn ratio with a zero
  // denominator) must not leak bare "inf" into the JSON body.
  std::string out = "{\"status\":\"success\",\"data\":{\"last_eval_s\":" +
                    JsonDouble(last_eval_s_) + ",\"alerts\":[";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const AlertStatus& alert = alerts_[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(alert.rule.name) + "\",\"severity\":\"" +
           JsonEscape(alert.rule.severity) + "\",\"for_s\":" +
           JsonDouble(alert.rule.for_s) + ",\"state\":\"" +
           AlertStateName(alert.state) + "\",\"since_s\":" +
           JsonDouble(alert.since_s) + ",\"value\":" + JsonDouble(alert.value) +
           "}";
  }
  out += "],\"transitions\":[";
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const AlertTransition& tr = transitions_[i];
    if (i > 0) out += ",";
    out += "{\"t_s\":" + JsonDouble(tr.t_s) + ",\"rule\":\"" +
           JsonEscape(tr.rule) + "\",\"from\":\"" + AlertStateName(tr.from) + "\",\"to\":\"" +
           AlertStateName(tr.to) + "\",\"value\":" + JsonDouble(tr.value) + "}";
  }
  out += "]}}\n";
  return out;
}

AlertRule GoodputFloorRule(double floor_rps, double for_s) {
  AlertRule rule;
  rule.name = "goodput_floor_burn";
  rule.exprs = {"sum(rate(topfull_requests_good_total[10s])) < " +
                Num(floor_rps)};
  rule.for_s = for_s;
  rule.severity = "page";
  return rule;
}

std::vector<AlertRule> SloBurnRules(double slo_target, double burn_threshold) {
  const double budget = 1.0 - slo_target;
  std::vector<AlertRule> rules;

  AlertRule fast;
  fast.name = "slo_fast_burn";
  // Multi-window AND: the short window reacts, the longer one confirms.
  fast.exprs = {BurnExpr(5.0, budget) + " > " + Num(burn_threshold),
                BurnExpr(30.0, budget) + " > " + Num(burn_threshold)};
  fast.for_s = 2.0;
  fast.severity = "page";
  rules.push_back(std::move(fast));

  AlertRule slow;
  slow.name = "slo_slow_burn";
  slow.exprs = {BurnExpr(30.0, budget) + " > " + Num(burn_threshold / 2.0),
                BurnExpr(120.0, budget) + " > " + Num(burn_threshold / 2.0)};
  slow.for_s = 15.0;
  slow.severity = "ticket";
  rules.push_back(std::move(slow));
  return rules;
}

}  // namespace topfull::obs
