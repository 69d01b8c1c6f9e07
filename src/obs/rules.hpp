// Recording rules and multi-window burn-rate alert rules over the TSDB.
//
// The engine evaluates at metric-window boundaries (1 Hz sim time by
// default). A recording rule appends its instant-vector result back into
// the store under the rule's name, so later expressions (and /query) can
// build on it. An alert rule carries one or more condition expressions —
// ALL must be true at the evaluation time (the multi-window AND of
// burn-rate alerting: a fast window to react and a slow window to resist
// flapping) — and drives the usual inactive -> pending -> firing state
// machine: pending after the first true evaluation, firing once the
// conditions have held `for_s` seconds, back to inactive on the first
// false one. Every state change is recorded as an AlertTransition
// (sim-time-stamped, deterministic) and merged into the decision JSONL so
// scenario invariants can assert on the alert stream.
//
// "True" for a condition: a comparison/vector expression evaluating to a
// non-empty vector, or a scalar evaluating non-zero. Evaluation is
// strictly backward-looking (see query.hpp), so a boundary evaluated late
// — e.g. by the end-of-run catch-up — gives the identical result.
//
// Thread safety: Evaluate and the JSON/state readers lock internally;
// transitions() returns a reference and is for single-threaded use after
// the run (exports, invariant checks).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "obs/query.hpp"
#include "obs/tsdb.hpp"

namespace topfull::obs {

struct RecordingRule {
  std::string name;  ///< series name the result is recorded under
  std::string expr;
};

struct AlertRule {
  std::string name;
  /// Condition expressions; the alert is eligible only when every one is
  /// true at the evaluation time.
  std::vector<std::string> exprs;
  /// Seconds the conditions must hold before pending becomes firing.
  double for_s = 0.0;
  std::string severity = "page";
};

enum class AlertState { kInactive, kPending, kFiring };
const char* AlertStateName(AlertState state);

struct AlertTransition {
  double t_s = 0.0;
  std::string rule;
  AlertState from = AlertState::kInactive;
  AlertState to = AlertState::kInactive;
  /// The first condition's value at the transition (0 when unavailable).
  double value = 0.0;
};

class RuleEngine {
 public:
  explicit RuleEngine(Tsdb* tsdb) : tsdb_(tsdb) {}

  void AddRecording(RecordingRule rule);
  void AddAlert(AlertRule rule);

  /// Evaluates every recording rule (results appended to the store), then
  /// every alert rule, at time `t_s`. Boundaries must be evaluated in
  /// increasing time order; each exactly once.
  void Evaluate(double t_s);

  /// Post-run reader (not safe against a concurrent Evaluate).
  const std::vector<AlertTransition>& transitions() const {
    return transitions_;
  }

  std::size_t rule_count() const { return alerts_.size(); }
  double last_eval_s() const;

  /// The canonical `/alerts` body: current states plus the transition log.
  /// Served live and written as the `<name>.alerts.json` artifact — byte
  /// equality between the two is the replay contract.
  std::string AlertsJson() const;

 private:
  struct AlertStatus {
    AlertRule rule;
    AlertState state = AlertState::kInactive;
    double since_s = 0.0;  ///< time the current state was entered
    double value = 0.0;    ///< last observed condition value
  };

  Tsdb* tsdb_;
  mutable std::mutex mu_;
  std::vector<RecordingRule> recordings_;
  std::vector<AlertStatus> alerts_;
  std::vector<AlertTransition> transitions_;
  double last_eval_s_ = 0.0;
  EvalOptions eval_options_;
};

/// `goodput_floor_burn`: total good throughput over a 10 s window stays
/// below `floor_rps` for `for_s` seconds. The scenario matrix asserts this
/// one fires for trapped controllers and clears for escaping ones.
AlertRule GoodputFloorRule(double floor_rps, double for_s = 20.0);

/// `slo_fast_burn` / `slo_slow_burn`: SLO bad-request fraction consumes
/// the error budget (1 - slo_target) at more than `burn_threshold` times
/// the sustainable rate over fast (5 s + 30 s) or slow (30 s + 120 s)
/// window pairs — the standard multi-window burn-rate pattern.
std::vector<AlertRule> SloBurnRules(double slo_target = 0.99,
                                    double burn_threshold = 2.0);

}  // namespace topfull::obs
