#include "scenario/runner.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "fault/profile.hpp"
#include "obs/snapshot.hpp"
#include "obs/text_buffer.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull::scenario {
namespace {

std::unique_ptr<sim::Application> MakeApp(const ScenarioSpec& spec,
                                          std::string* error) {
  if (spec.app == "boutique") {
    apps::BoutiqueOptions options;
    options.seed = spec.seed;
    options.distinct_priorities = spec.distinct_priorities;
    return apps::MakeOnlineBoutique(options);
  }
  if (spec.app == "trainticket") {
    apps::TrainTicketOptions options;
    options.seed = spec.seed;
    options.distinct_priorities = spec.distinct_priorities;
    return apps::MakeTrainTicket(options);
  }
  if (spec.app == "alibaba") {
    apps::AlibabaDemoOptions options;
    options.seed = spec.seed;
    return apps::MakeAlibabaDemo(options).app;
  }
  *error = "unknown app '" + spec.app + "'";
  return nullptr;
}

/// `name` names the cell's telemetry files (default: scenario_controller).
CellVerdict RunCell(const ScenarioSpec& spec, const std::string& controller,
                    const std::string& name = {}) {
  CellVerdict verdict;
  verdict.scenario = spec.name;
  verdict.controller = controller;

  const auto variant = exp::VariantFromName(controller);
  if (!variant.has_value()) {
    verdict.error = "unknown controller '" + controller + "'";
    return verdict;
  }
  // A probe app validates the app name and the fault profile before
  // anything runs, so a bad cell yields an error rather than a half-run
  // scenario.
  const auto probe = MakeApp(spec, &verdict.error);
  if (probe == nullptr) return verdict;

  exp::RunSpec run;
  run.label = spec.name + "_" + controller;
  run.duration_s = spec.duration_s;
  if (!spec.fault_profile.empty()) {
    std::string fault_error;
    const auto parsed =
        fault::ParseFaultProfile(spec.fault_profile, *probe, &fault_error);
    if (!parsed.has_value()) {
      verdict.error = "fault profile: " + fault_error;
      return verdict;
    }
    run.faults = *parsed;
  }
  run.make_app = [&spec] {
    std::string error;
    auto app = MakeApp(spec, &error);
    if (spec.hop_timeout_s > 0.0) {
      app->ConfigureRpc(Seconds(spec.hop_timeout_s), spec.hop_retries,
                        Seconds(spec.hop_retry_backoff_s));
    }
    return app;
  };
  // One closed-loop pool per tenant, splitting the scheduled population by
  // weight. A scenario without tenants runs one anonymous pool over the
  // full schedule (the legacy uniform-users setup).
  run.traffic = [&spec](workload::TrafficDriver& traffic, sim::Application& app) {
    std::vector<TenantSpec> tenants = spec.tenants;
    if (tenants.empty()) tenants.push_back(TenantSpec{});
    double total_weight = 0.0;
    for (const TenantSpec& tenant : tenants) total_weight += tenant.weight;
    if (total_weight <= 0.0) total_weight = 1.0;
    const workload::Schedule users = spec.BuildUserSchedule();
    for (const TenantSpec& tenant : tenants) {
      workload::ClosedLoopConfig config = exp::UniformUsers(app);
      if (!tenant.api_weights.empty()) config.mix.weights = tenant.api_weights;
      config.think = Seconds(spec.think_s);
      config.client_timeout = Seconds(spec.client_timeout_s);
      config.max_client_retries = spec.client_retries;
      config.client_retry_backoff = Seconds(spec.client_retry_backoff_s);
      config.user_priority_lo = tenant.priority_lo;
      config.user_priority_hi = tenant.priority_hi;
      config.tenant = tenant.name;
      traffic.AddClosedLoop(std::move(config),
                            users.Scaled(tenant.weight / total_weight));
    }
  };
  run.variant = *variant;
  std::shared_ptr<rl::GaussianPolicy> policy;
  if (exp::VariantNeedsPolicy(*variant)) policy = exp::GetPretrainedPolicy();
  run.policy = policy.get();
  run.static_rate = spec.static_rate;

  // Every cell gets a time-series plane with the standard burn-rate rules
  // plus a goodput-floor alert derived from the scenario's own floor
  // invariant, so kNoAlertFiring always has the same rules to judge. The
  // plane and the SLO monitor are pure observers that read only the window
  // stream, so the verdict is identical for any pool size and with tracing
  // on or off.
  double goodput_floor = 0.0;
  for (const Invariant& inv : spec.invariants) {
    if (inv.kind == InvariantKind::kGoodputFloor) {
      goodput_floor = inv.value;
      break;
    }
  }
  const std::unique_ptr<obs::TsdbPlane> tsdb =
      exp::MakeSloTsdbPlane(goodput_floor);
  run.tsdb = tsdb.get();

  const exp::RunResult result = exp::Run(run, name);
  const sim::Application& app = result.app();

  // --- Fold the run into artefacts and check --------------------------------
  RunArtifacts artifacts;
  artifacts.metrics = &app.metrics();
  artifacts.slo_events = &result.slo_events;
  artifacts.alerts = &tsdb->rules().transitions();
  std::uint64_t client_attempts = 0;
  std::uint64_t client_intents = 0;
  std::vector<double> all_rates;
  for (const auto& pool : result.traffic[0]->pools()) {
    artifacts.tenant_outcomes.push_back(pool->Outcomes());
    for (const workload::UserOutcomes& user : pool->Outcomes()) {
      client_attempts += user.attempts;
      client_intents += user.intents;
      if (user.ok + user.failed > 0) all_rates.push_back(user.SuccessRate());
    }
  }
  artifacts.amplification = obs::ComputeAmplification(
      app.HopAttempts(), app.Retries(), client_attempts, client_intents);

  verdict.invariants = CheckInvariants(spec, artifacts);
  verdict.pass = true;
  verdict.conforms = true;
  for (InvariantResult& check : verdict.invariants) {
    check.expected_violation =
        spec.ExpectsViolation(controller, check.invariant.kind);
    verdict.pass = verdict.pass && check.ok;
    verdict.conforms =
        verdict.conforms && (check.ok == !check.expected_violation);
  }
  verdict.goodput_rps = app.metrics().AvgTotalGoodput();
  verdict.fairness = obs::SuccessRateFairness(all_rates);
  verdict.amplification = artifacts.amplification;
  verdict.slo_events = result.slo_events.size();
  return verdict;
}

std::string Quote(const std::string& s) { return "\"" + obs::JsonEscape(s) + "\""; }

std::string Bool(bool b) { return b ? "true" : "false"; }

void AppendInvariantJson(std::string* out, const InvariantResult& result) {
  *out += "{\"kind\":" + std::string(Quote(InvariantKindName(result.invariant.kind)));
  *out += ",\"value\":" + obs::Num(result.invariant.value);
  *out += ",\"from_s\":" + obs::Num(result.invariant.from_s);
  if (!result.invariant.param.empty()) {
    *out += ",\"param\":" + Quote(result.invariant.param);
  }
  *out += ",\"ok\":" + std::string(Bool(result.ok));
  *out += ",\"expected_violation\":" + std::string(Bool(result.expected_violation));
  *out += ",\"conforms\":" + std::string(Bool(result.ok == !result.expected_violation));
  *out += ",\"measured\":" + obs::Num(result.measured);
  *out += ",\"detail\":" + Quote(result.detail);
  if (result.witness.has_value()) {
    const obs::SloEvent& ev = *result.witness;
    *out += ",\"witness\":{\"t_s\":" + obs::Num(ev.t_s);
    *out += ",\"type\":" + Quote(obs::SloEventTypeName(ev.type));
    *out += ",\"subject\":" + Quote(ev.subject);
    *out += ",\"value\":" + obs::Num(ev.value);
    *out += ",\"threshold\":" + obs::Num(ev.threshold) + "}";
  }
  *out += "}";
}

}  // namespace

CellVerdict RunScenarioCell(const ScenarioSpec& spec,
                            const std::string& controller) {
  return RunCell(spec, controller);
}

std::vector<CellVerdict> RunScenarioMatrix(
    const std::vector<ScenarioSpec>& scenarios, const MatrixOptions& options) {
  const std::size_t cols = options.controllers.size();
  const std::size_t n = scenarios.size() * cols;
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Global();
  return pool.ParallelMap(n, [&scenarios, &options, cols](std::size_t i) {
    const ScenarioSpec& spec = scenarios[i / cols];
    const std::string& controller = options.controllers[i % cols];
    // Telemetry names carry the cell index so exports never collide and
    // the naming is pool-size independent.
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "%03zu_", i);
    return RunCell(spec, controller,
                   prefix + exp::SanitizeFileName(spec.name + "_" + controller));
  });
}

std::string MatrixReportJson(const std::vector<CellVerdict>& verdicts) {
  std::string out = "{\"schema\":\"topfull.scenario_matrix.v1\",\"cells\":[";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const CellVerdict& cell = verdicts[i];
    if (i != 0) out += ",";
    out += "{\"scenario\":" + Quote(cell.scenario);
    out += ",\"controller\":" + Quote(cell.controller);
    out += ",\"pass\":" + std::string(Bool(cell.pass));
    out += ",\"conforms\":" + std::string(Bool(cell.conforms));
    if (!cell.error.empty()) out += ",\"error\":" + Quote(cell.error);
    out += ",\"goodput_rps\":" + obs::Num(cell.goodput_rps);
    out += ",\"slo_events\":" + std::to_string(cell.slo_events);
    out += ",\"amplification\":{\"hop\":" + obs::Num(cell.amplification.hop_amplification);
    out += ",\"client\":" + obs::Num(cell.amplification.client_amplification);
    out += ",\"total\":" + obs::Num(cell.amplification.total);
    out += ",\"hop_attempts\":" + std::to_string(cell.amplification.hop_attempts);
    out += ",\"server_retries\":" + std::to_string(cell.amplification.server_retries);
    out += ",\"client_attempts\":" + std::to_string(cell.amplification.client_attempts);
    out += ",\"client_intents\":" + std::to_string(cell.amplification.client_intents) + "}";
    out += ",\"fairness\":{\"users\":" + std::to_string(cell.fairness.users);
    out += ",\"jain\":" + obs::Num(cell.fairness.jain);
    out += ",\"mean\":" + obs::Num(cell.fairness.mean);
    out += ",\"variance\":" + obs::Num(cell.fairness.variance);
    out += ",\"min\":" + obs::Num(cell.fairness.min);
    out += ",\"max\":" + obs::Num(cell.fairness.max) + "}";
    out += ",\"invariants\":[";
    for (std::size_t j = 0; j < cell.invariants.size(); ++j) {
      if (j != 0) out += ",";
      AppendInvariantJson(&out, cell.invariants[j]);
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

void PrintMatrixReport(const std::vector<CellVerdict>& verdicts) {
  Table table("Scenario conformance matrix (cell = scenario x controller)");
  table.SetHeader({"scenario", "controller", "verdict", "goodput", "amp",
                   "jain", "events", "detail"});
  for (const CellVerdict& cell : verdicts) {
    std::string note;
    if (!cell.error.empty()) {
      note = cell.error;
    } else {
      for (const InvariantResult& result : cell.invariants) {
        if (result.ok == !result.expected_violation) continue;
        note = std::string(InvariantKindName(result.invariant.kind)) + ": " +
               result.detail;
        if (result.expected_violation) note += " (expected a violation)";
        break;
      }
      if (note.empty() && !cell.pass) note = "violations all expected";
    }
    table.AddRow({cell.scenario, cell.controller,
                  cell.conforms ? "conform" : "FAIL", Fmt(cell.goodput_rps, 1),
                  Fmt(cell.amplification.total, 2), Fmt(cell.fairness.jain, 3),
                  std::to_string(cell.slo_events), note});
  }
  table.Print();
}

bool AllConform(const std::vector<CellVerdict>& verdicts) {
  for (const CellVerdict& cell : verdicts) {
    if (!cell.conforms) return false;
  }
  return true;
}

}  // namespace topfull::scenario
