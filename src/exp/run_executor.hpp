// The one run driver, and the parallel sweep harness on top of it.
//
// Every paper figure is a matrix of independent simulation runs
// (variant x demand, variant x seed, vCPUs x with/without, ...). A RunSpec
// describes one cell — an app factory, the controller variant to attach,
// the traffic to drive, faults, observers and how long to run — and
// exp::Run executes it on one engine. The CLI, the scenario matrix and the
// sweep benches all go through Run, so the attach order lives in one place.
// RunExecutor runs a whole list of specs on the shared worker pool, one
// complete simulation per worker. Each run owns its app, RNG streams, and
// metrics, so runs never share mutable state (the pre-trained policy is
// shared read-only); results come back in spec order, making a parallel
// sweep's output bit-identical to the sequential one.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autoscale/cluster.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "fault/fault.hpp"
#include "sim/app.hpp"
#include "workload/generators.hpp"

namespace topfull::obs {
class LivePlane;
class TsdbPlane;
}  // namespace topfull::obs

namespace topfull::exp {

/// One independent simulation run.
struct RunSpec {
  std::string label;
  double duration_s = 0.0;

  /// Builds the application (topology, seeds, pod counts) on the worker:
  /// no mutable state shared across specs.
  std::function<std::unique_ptr<sim::Application>()> make_app;

  /// Installs the workload (closed-loop pools / open-loop generators).
  std::function<void(workload::TrafficDriver&, sim::Application&)> traffic;

  /// Standard controller attachment (ignored when `attach` is set).
  Variant variant = Variant::kNoControl;
  const rl::GaussianPolicy* policy = nullptr;  ///< shared read-only
  /// Config for the TopFull variants (ignored by the baselines).
  core::TopFullConfig topfull_config;
  /// Per-API entry rate for Variant::kStaticLimit (<= 0 = uncapped).
  double static_rate = 0.0;

  /// Custom controller attachment (e.g. a DAGOR with a swept config). The
  /// returned object is kept alive until the run completes.
  std::function<std::shared_ptr<void>(sim::Application&)> attach;

  /// Horizontal pod autoscaler (default HpaConfig) on a VM cluster of this
  /// shape, which the fault injector's VM outages hit; nullopt = none.
  std::optional<autoscale::ClusterConfig> hpa;

  /// Faults injected during the run (empty = none; zero perturbation). The
  /// injector draws only from its own stream seeded by `fault_seed`.
  fault::FaultSchedule faults;
  std::uint64_t fault_seed = fault::FaultInjector::kDefaultSeed;

  /// Span tracing and file exports.
  TelemetryOptions telemetry = TelemetryOptions::FromEnv();

  /// Live telemetry plane (non-owning; may be null). When set, the run is
  /// executed in sim-time chunks and a metrics snapshot is published to the
  /// plane between chunks — a pure observer, so the run stays bit-identical
  /// to one without it. The final snapshot is published with finished=true.
  obs::LivePlane* live = nullptr;

  /// Time-series plane (non-owning; may be null): a window feeder chained
  /// after the SLO monitor, rules evaluated at window closes; like `live`,
  /// a pure observer. When null, TOPFULL_TSDB creates a run-owned plane
  /// with the SLO burn rules, so benches gain the `.tsdb.json` and
  /// `.alerts.json` artifacts without code changes.
  obs::TsdbPlane* tsdb = nullptr;
};

/// The finished run: what a caller may read afterwards. The simulation
/// must not be advanced again.
struct RunResult {
  std::string label;
  std::unique_ptr<sim::Application> application;
  /// The standard controllers (empty when `attach` was used) and the
  /// traffic driver, whose closed-loop pools keep per-user outcomes.
  Controllers controllers;
  std::unique_ptr<workload::TrafficDriver> traffic;
  /// What the fault injector actually did, in injection order.
  std::vector<fault::FaultRecord> fault_log;
  /// SLO monitor events, in emission order.
  std::vector<obs::SloEvent> slo_events;
  /// Export accounting (nullopt when telemetry is off).
  std::optional<TelemetrySummary> telemetry;

  sim::Application& app() const { return *application; }
};

/// Runs `spec` to completion on the calling thread. `name` names the run's
/// telemetry files (default: the sanitized label).
RunResult Run(const RunSpec& spec, const std::string& name = {});

/// TOPFULL_TSDB env gate: set, non-empty and not "0".
bool TsdbFromEnv();

/// A time-series plane with the default multi-window SLO burn rules, plus
/// a goodput_floor_burn rule when `goodput_floor` is positive.
std::unique_ptr<obs::TsdbPlane> MakeSloTsdbPlane(double goodput_floor = 0.0);

class RunExecutor {
 public:
  /// `pool == nullptr` uses ThreadPool::Global().
  explicit RunExecutor(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Runs every spec to completion; results are in spec order. With
  /// telemetry on, every run exports under a deterministic
  /// "<index>_<label>" name, identically for any pool size.
  std::vector<RunResult> Execute(const std::vector<RunSpec>& specs) const;

 private:
  ThreadPool* pool_;
};

}  // namespace topfull::exp
