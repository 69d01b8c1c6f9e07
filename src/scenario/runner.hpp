// Scenario specs as runs (MakeScenarioRun, shared by `topfull run` and
// every matrix cell), and the scenario x controller conformance matrix.
//
// Runs every scenario under every requested controller, evaluates the
// scenario's invariants against the finished run, and folds in the
// expected-violation declarations: a cell *conforms* when each invariant's
// outcome matches the expectation (holds when it should hold, breaks when
// the scenario says this controller must break it). Cells execute on the
// shared worker pool, one Simulation per cell, results in matrix order —
// the JSON report is byte-identical for any TOPFULL_THREADS value and
// with tracing on or off.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "exp/run_executor.hpp"
#include "obs/fairness.hpp"
#include "scenario/invariant.hpp"
#include "scenario/scenario.hpp"

namespace topfull::scenario {

/// The one app factory: builds `spec.app` ("boutique", "trainticket" or
/// "alibaba") with the spec's seed and app options. Null with *error set
/// for an unknown app.
std::unique_ptr<sim::Application> MakeApp(const ScenarioSpec& spec,
                                          std::string* error);

/// A run built from a scenario, and the policy its `spec.policy` points to.
struct ScenarioRun {
  exp::RunSpec spec;
  std::shared_ptr<rl::GaussianPolicy> policy;
};

/// Translates `spec` under `variant` into a run on up to `shards` engine
/// shards: app factory with the RPC policy, traffic (one closed-loop pool
/// per tenant, or open-loop rps split evenly over the APIs), expanded
/// faults, HPA and the controller. The run is labelled with the app's name;
/// other execution and observation settings (telemetry, TSDB, live plane)
/// keep their RunSpec defaults for the caller to set. Nullopt with *error
/// when CheckScenario rejects the spec at the shard count the plan uses
/// (`shards` clamped to the app's clusters), the app is unknown or a fault
/// names an unknown service.
std::optional<ScenarioRun> MakeScenarioRun(const ScenarioSpec& spec,
                                           exp::Variant variant,
                                           std::string* error, int shards = 1);

/// One scenario x controller cell of the matrix.
struct CellVerdict {
  std::string scenario;
  std::string controller;

  std::vector<InvariantResult> invariants;
  /// Every invariant held.
  bool pass = false;
  /// Each invariant matched its expectation (two-sided).
  bool conforms = false;

  double goodput_rps = 0.0;  ///< whole-run average total goodput
  obs::FairnessStats fairness;
  obs::AmplificationStats amplification;
  std::size_t slo_events = 0;

  /// Non-empty when the cell could not run (bad app name, unknown fault
  /// service); a cell with an error never conforms.
  std::string error;
};

struct MatrixOptions {
  /// Controller names (exp::VariantFromName vocabulary), matrix order.
  std::vector<std::string> controllers = {"topfull", "dagor", "breakwater",
                                          "static"};
  /// Worker pool (nullptr = ThreadPool::Global()).
  ThreadPool* pool = nullptr;
};

/// Runs one cell on the calling thread. `name` names the cell's telemetry
/// files (default: scenario_controller).
CellVerdict RunScenarioCell(const ScenarioSpec& spec,
                            const std::string& controller,
                            const std::string& name = {});

/// Runs the full matrix (scenarios x options.controllers, scenario-major
/// order) on the worker pool.
std::vector<CellVerdict> RunScenarioMatrix(
    const std::vector<ScenarioSpec>& scenarios,
    const MatrixOptions& options = {});

/// Serialises verdicts as the "topfull.scenario_matrix.v1" JSON document.
std::string MatrixReportJson(const std::vector<CellVerdict>& verdicts);

/// True when every cell conforms (the CI gate).
bool AllConform(const std::vector<CellVerdict>& verdicts);

/// The smoke-mode shrink: ScenarioSpec::TimeScaled by this factor.
inline constexpr double kSmokeTimeScale = 0.25;

/// The one front end of the matrix, shared by `topfull scenario run` and
/// the suite's scenario_matrix entry: runs `specs`, prints the verdict
/// table to stdout and, when `json_path` is non-empty, writes the JSON
/// report there. `smoke` time-scales every scenario by kSmokeTimeScale for
/// a quick validity check; conformance is then reported but not enforced (the
/// thresholds are calibrated for full length). Returns the exit code: 2
/// when a cell could not run or the report could not be written, 1 when a
/// full-length cell does not conform, else 0.
int RunConformanceMatrix(std::vector<ScenarioSpec> specs,
                         const MatrixOptions& options, bool smoke,
                         const std::string& json_path);

}  // namespace topfull::scenario
