#include "scenario/scenario.hpp"

#include <algorithm>
#include <utility>

namespace topfull::scenario {

const char* InvariantKindName(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kGoodputFloor: return "goodput_floor";
    case InvariantKind::kEscapesOverloadBy: return "escapes_overload_by";
    case InvariantKind::kMaxRetryAmplification: return "max_retry_amplification";
    case InvariantKind::kFairnessIndexMin: return "fairness_index_min";
    case InvariantKind::kNoOscillationAfter: return "no_oscillation_after";
    case InvariantKind::kNoAlertFiring: return "no_alert_firing";
  }
  return "unknown";
}

std::optional<InvariantKind> InvariantKindFromName(const std::string& name) {
  if (name == "goodput_floor") return InvariantKind::kGoodputFloor;
  if (name == "escapes_overload_by") return InvariantKind::kEscapesOverloadBy;
  if (name == "max_retry_amplification") {
    return InvariantKind::kMaxRetryAmplification;
  }
  if (name == "fairness_index_min") return InvariantKind::kFairnessIndexMin;
  if (name == "no_oscillation_after") return InvariantKind::kNoOscillationAfter;
  if (name == "no_alert_firing") return InvariantKind::kNoAlertFiring;
  return std::nullopt;
}

ScenarioSpec ScenarioSpec::Make(std::string name, std::string app) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.app = std::move(app);
  return spec;
}

ScenarioSpec& ScenarioSpec::Describe(std::string text) {
  description = std::move(text);
  return *this;
}

ScenarioSpec& ScenarioSpec::Seed(std::uint64_t s) {
  seed = s;
  return *this;
}

ScenarioSpec& ScenarioSpec::Duration(double seconds) {
  duration_s = seconds;
  return *this;
}

ScenarioSpec& ScenarioSpec::Phase(double at_s, double users, double ramp_s) {
  phases.push_back({at_s, users, ramp_s});
  return *this;
}

ScenarioSpec& ScenarioSpec::Diurnal(double low, double high, double period_s) {
  diurnal_low = low;
  diurnal_high = high;
  diurnal_period_s = period_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::Tenant(TenantSpec tenant) {
  tenants.push_back(std::move(tenant));
  return *this;
}

ScenarioSpec& ScenarioSpec::Client(double timeout_s, int retries,
                                   double backoff_s, double think) {
  client_timeout_s = timeout_s;
  client_retries = retries;
  client_retry_backoff_s = backoff_s;
  think_s = think;
  return *this;
}

ScenarioSpec& ScenarioSpec::Rpc(double timeout_s, int retries,
                                double backoff_s) {
  hop_timeout_s = timeout_s;
  hop_retries = retries;
  hop_retry_backoff_s = backoff_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::Fault(FaultDirective fault) {
  faults.push_back(std::move(fault));
  return *this;
}

ScenarioSpec& ScenarioSpec::StaticRate(double rate) {
  static_rate = rate;
  return *this;
}

ScenarioSpec& ScenarioSpec::DistinctPriorities(bool on) {
  distinct_priorities = on;
  return *this;
}

ScenarioSpec& ScenarioSpec::Require(InvariantKind kind, double value,
                                    double from_s) {
  invariants.push_back({kind, value, from_s, ""});
  return *this;
}

ScenarioSpec& ScenarioSpec::Require(InvariantKind kind, double value,
                                    double from_s, std::string param) {
  invariants.push_back({kind, value, from_s, std::move(param)});
  return *this;
}

ScenarioSpec& ScenarioSpec::ExpectViolation(std::string controller,
                                            InvariantKind kind) {
  expected_violations.push_back({std::move(controller), kind});
  return *this;
}

workload::Schedule ScenarioSpec::BuildUserSchedule(double divisor) const {
  if (diurnal_period_s > 0.0) {
    return workload::Schedule::Diurnal(diurnal_low / divisor,
                                       diurnal_high / divisor,
                                       Seconds(diurnal_period_s),
                                       Seconds(duration_s));
  }
  workload::Schedule schedule = workload::Schedule::Constant(0.0);
  double prev_users = 0.0;
  for (const WorkloadPhase& phase : phases) {
    const SimTime at = Seconds(phase.at_s);
    if (phase.ramp_s > 0.0) {
      // Stepped linear climb from the previous level, 1 s granularity
      // (matching Schedule::Ramp), landing exactly on `users`.
      const SimTime step = Seconds(1);
      const auto steps =
          std::max<int>(1, static_cast<int>(Seconds(phase.ramp_s) / step));
      for (int i = 1; i <= steps; ++i) {
        const double frac = static_cast<double>(i) / static_cast<double>(steps);
        schedule.Then(at + i * step,
                      (prev_users + (phase.users - prev_users) * frac) / divisor);
      }
    } else {
      schedule.Then(at, phase.users / divisor);
    }
    prev_users = phase.users;
  }
  return schedule;
}

bool ScenarioSpec::ExpectsViolation(const std::string& controller,
                                    InvariantKind kind) const {
  for (const Expectation& e : expected_violations) {
    if (e.controller == controller && e.invariant == kind) return true;
  }
  return false;
}

ScenarioSpec ScenarioSpec::TimeScaled(double factor) const {
  ScenarioSpec scaled = *this;
  scaled.duration_s *= factor;
  for (WorkloadPhase& phase : scaled.phases) {
    phase.at_s *= factor;
    phase.ramp_s *= factor;
  }
  scaled.diurnal_period_s *= factor;
  for (Invariant& inv : scaled.invariants) {
    inv.from_s *= factor;
    // The escape budget is itself a time; every other value is a
    // rate/ratio threshold and survives the shrink untouched.
    if (inv.kind == InvariantKind::kEscapesOverloadBy) inv.value *= factor;
  }
  const auto scale = [factor](SimTime t) {
    return static_cast<SimTime>(static_cast<double>(t) * factor);
  };
  for (FaultDirective& f : scaled.faults) {
    f.event.at = scale(f.event.at);
    f.event.duration = scale(f.event.duration);
    f.event.restart_delay = scale(f.event.restart_delay);
    f.event.restart_stagger = scale(f.event.restart_stagger);
    if (f.chaos.has_value()) {
      f.chaos->start_s *= factor;
      f.chaos->horizon_s *= factor;
      f.chaos->min_duration_s *= factor;
      f.chaos->max_duration_s *= factor;
    }
  }
  return scaled;
}

std::string CheckScenario(const ScenarioSpec& spec, int shards) {
  if (!(spec.duration_s > 0.0)) return "duration must be > 0";
  for (std::size_t i = 1; i < spec.phases.size(); ++i) {
    if (spec.phases[i].at_s < spec.phases[i - 1].at_s) {
      return "phase times must be nondecreasing";
    }
  }
  if (spec.open_loop && !spec.tenants.empty()) {
    return "tenants need closed-loop users, not rps phases";
  }
  if (spec.replicas < 1) return "replicas must be >= 1";
  if (spec.replicas != 1 && spec.app != "alibaba") {
    return "replicas=" + std::to_string(spec.replicas) +
           " needs app=alibaba: only the Alibaba demo has copies";
  }
  if (spec.hpa && shards > 1) {
    return "hpa is not supported across " + std::to_string(shards) +
           " shards: each shard builds its own VM cluster, so the shards "
           "would autoscale separate clusters";
  }
  return "";
}

std::optional<fault::FaultSchedule> ExpandFaults(const ScenarioSpec& spec,
                                                 const sim::Application& app,
                                                 std::string* error) {
  fault::FaultSchedule schedule;
  for (const FaultDirective& f : spec.faults) {
    if (f.chaos.has_value()) {
      const fault::FaultSchedule chaos = fault::MakeChaosSchedule(app, *f.chaos);
      for (const fault::FaultEvent& e : chaos.events()) schedule.Add(e);
      continue;
    }
    if (f.event.type != fault::FaultType::kVmOutage &&
        app.FindService(f.event.service) == sim::kNoService) {
      *error = "unknown service '" + f.event.service + "' in " +
               fault::FaultTypeName(f.event.type) + " fault";
      return std::nullopt;
    }
    schedule.Add(f.event);
  }
  return schedule;
}

}  // namespace topfull::scenario
