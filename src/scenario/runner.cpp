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
#include "obs/snapshot.hpp"
#include "obs/text_buffer.hpp"
#include "obs/tsdb_plane.hpp"
#include "sim/shard_plan.hpp"

namespace topfull::scenario {

std::unique_ptr<sim::Application> MakeApp(const ScenarioSpec& spec,
                                          std::string* error) {
  if (spec.app == "boutique") {
    apps::BoutiqueOptions options;
    options.seed = spec.seed;
    options.distinct_priorities = spec.distinct_priorities;
    options.probe_failures = spec.probe_failures;
    return apps::MakeOnlineBoutique(options);
  }
  if (spec.app == "trainticket") {
    apps::TrainTicketOptions options;
    options.seed = spec.seed;
    options.distinct_priorities = spec.distinct_priorities;
    options.probe_failures = spec.probe_failures;
    return apps::MakeTrainTicket(options);
  }
  if (spec.app == "alibaba") {
    apps::AlibabaDemoOptions options;
    options.seed = spec.seed;
    options.replicas = spec.replicas;
    return apps::MakeAlibabaDemo(options).app;
  }
  *error = "unknown app '" + spec.app + "'";
  return nullptr;
}

std::optional<ScenarioRun> MakeScenarioRun(const ScenarioSpec& spec,
                                           exp::Variant variant,
                                           std::string* error, int shards) {
  if (const std::string problem = CheckScenario(spec); !problem.empty()) {
    *error = problem;
    return std::nullopt;
  }
  // A probe app checks the app name, names the run, fixes the shard count
  // and expands the faults before anything runs, so a bad spec yields an
  // error, not a half run.
  const auto probe = MakeApp(spec, error);
  if (probe == nullptr) return std::nullopt;
  if (shards > 1) {
    const int planned = sim::BuildShardPlan(*probe, {shards}).num_shards;
    if (std::string problem = CheckScenario(spec, planned); !problem.empty()) {
      *error = std::move(problem);
      return std::nullopt;
    }
  }
  auto faults = ExpandFaults(spec, *probe, error);
  if (!faults.has_value()) return std::nullopt;

  ScenarioRun result;
  exp::RunSpec& run = result.spec;
  run.label = probe->name();
  run.shards = shards;
  run.duration_s = spec.duration_s;
  run.faults = std::move(*faults);
  run.fault_seed = spec.fault_seed;
  if (spec.hpa) run.hpa = autoscale::ClusterConfig{};
  // Every app starts with no hop timeout and no retries, so configuring
  // the spec's zeros changes nothing.
  run.make_app = [spec] {
    std::string unused;
    auto app = MakeApp(spec, &unused);
    app->ConfigureRpc(Seconds(spec.hop_timeout_s), spec.hop_retries,
                      Seconds(spec.hop_retry_backoff_s));
    return app;
  };
  // Open loop: the phases' rate split evenly over the APIs. Closed loop:
  // one pool per tenant, splitting the scheduled population by weight; a
  // scenario without tenants runs one anonymous pool over the full
  // schedule.
  run.traffic = [spec](workload::TrafficDriver& traffic, sim::Application& app) {
    if (spec.open_loop) {
      for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
        traffic.AddOpenLoop(a, spec.BuildUserSchedule(app.NumApis()));
      }
      return;
    }
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
      traffic.AddClosedLoop(std::move(config),
                            users.Scaled(tenant.weight / total_weight));
    }
  };
  run.variant = variant;
  if (exp::VariantNeedsPolicy(variant)) result.policy = exp::GetPretrainedPolicy();
  run.policy = result.policy.get();
  run.static_rate = spec.static_rate;
  return result;
}

CellVerdict RunScenarioCell(const ScenarioSpec& spec,
                            const std::string& controller,
                            const std::string& name) {
  CellVerdict verdict;
  verdict.scenario = spec.name;
  verdict.controller = controller;

  const auto variant = exp::VariantFromName(controller);
  if (!variant.has_value()) {
    verdict.error = "unknown controller '" + controller + "'";
    return verdict;
  }
  std::optional<ScenarioRun> scenario_run =
      MakeScenarioRun(spec, *variant, &verdict.error);
  if (!scenario_run.has_value()) return verdict;
  exp::RunSpec& run = scenario_run->spec;
  run.label = spec.name + "_" + controller;

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
    for (const workload::UserOutcomes& user : artifacts.tenant_outcomes.back()) {
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

namespace {

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

/// Renders the per-cell verdict table to stdout.
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

}  // namespace

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
    return RunScenarioCell(
        spec, controller,
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

bool AllConform(const std::vector<CellVerdict>& verdicts) {
  for (const CellVerdict& cell : verdicts) {
    if (!cell.conforms) return false;
  }
  return true;
}

int RunConformanceMatrix(std::vector<ScenarioSpec> specs,
                         const MatrixOptions& options, bool smoke,
                         const std::string& json_path) {
  if (smoke) {
    for (ScenarioSpec& spec : specs) spec = spec.TimeScaled(kSmokeTimeScale);
  }
  const std::vector<CellVerdict> verdicts = RunScenarioMatrix(specs, options);
  PrintMatrixReport(verdicts);
  if (!json_path.empty()) {
    if (!obs::WriteTextFile(json_path, MatrixReportJson(verdicts))) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  for (const CellVerdict& cell : verdicts) {
    if (!cell.error.empty()) return 2;
  }
  if (smoke) return 0;  // validity run; thresholds need full duration
  return AllConform(verdicts) ? 0 : 1;
}

}  // namespace topfull::scenario
