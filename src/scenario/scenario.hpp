// Declarative workload-pathology scenarios (the conformance suite).
//
// A ScenarioSpec names one end-to-end overload situation — which app to
// build, how the user population evolves (piecewise phases, or a diurnal
// curve), how clients and RPC hops retry, which tenants share the system —
// plus the machine-checkable invariants every controller is vetted
// against and the violations a given controller is *expected* to commit
// (a static limiter is supposed to stay trapped in the metastable
// scenario; if it escapes, the scenario no longer demonstrates the
// pathology and the suite flags it).
//
// Specs are built fluently in C++ (see library.hpp for the built-in
// families) or parsed from a text profile (profile.hpp). Everything in a
// spec is plain data: a spec can be serialised into the matrix report and
// two runs of the same spec are byte-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "workload/schedule.hpp"

namespace topfull::scenario {

/// One breakpoint of the load schedule: `users` (requests per second when
/// the spec is open-loop) from `at_s` onward, reached by a linear ramp of
/// `ramp_s` seconds (0 = step).
struct WorkloadPhase {
  double at_s = 0.0;
  double users = 0.0;
  double ramp_s = 0.0;
};

/// One tenant class sharing the system: a slice of the user population
/// with its own API mix and a stable DAGOR user-priority band. With no
/// tenants declared, a scenario runs one anonymous class over a uniform
/// mix and legacy per-request priorities.
struct TenantSpec {
  std::string name = "all";
  /// Share of the scheduled user population (normalised across tenants).
  double weight = 1.0;
  /// Stable per-user priority band [lo, hi]; -1 = per-request sampling.
  int priority_lo = -1;
  int priority_hi = -1;
  /// Per-API mix weights (empty = uniform over the app's APIs).
  std::vector<double> api_weights;
};

/// One fault directive (`crash:`, `degrade:`, `inflate:`, `blackhole:`,
/// `errors:`, `vmout:` or `chaos:`), kept as written. Every kind but chaos
/// is one fault event; chaos is a seeded draw over the app's services, so
/// it stays options until ExpandFaults sees the app.
struct FaultDirective {
  fault::FaultEvent event;
  std::optional<fault::ChaosOptions> chaos;
};

/// The machine-checkable invariant kinds (see invariant.hpp for the exact
/// semantics of each check).
enum class InvariantKind {
  kGoodputFloor,           ///< avg total goodput >= value over [from_s, end)
  kEscapesOverloadBy,      ///< overload gone within `value` s after `from_s`
  kMaxRetryAmplification,  ///< compound retry amplification <= value
  kFairnessIndexMin,       ///< min per-tenant Jain index >= value
  kNoOscillationAfter,     ///< no controller oscillation at/after from_s
  kNoAlertFiring,          ///< alert `param` never firing at/after from_s
};

/// Stable wire name ("goodput_floor", "escapes_overload_by", ...).
const char* InvariantKindName(InvariantKind kind);
std::optional<InvariantKind> InvariantKindFromName(const std::string& name);

struct Invariant {
  InvariantKind kind = InvariantKind::kGoodputFloor;
  /// Threshold: rps floor, escape budget in seconds, amplification cap, or
  /// minimum fairness index (unused for kNoOscillationAfter and
  /// kNoAlertFiring).
  double value = 0.0;
  /// Reference time: window start for kGoodputFloor, the end of the
  /// pathological phase for kEscapesOverloadBy, the quiet-after time for
  /// kNoOscillationAfter / kNoAlertFiring (unused for the other kinds).
  double from_s = 0.0;
  /// Kind-specific selector. kNoAlertFiring: the alert-rule name to watch
  /// (empty = any rule). Unused by the other kinds.
  std::string param;
};

/// Declares that `controller` (matrix name, e.g. "static") is expected to
/// violate `invariant` in this scenario. Expectations are two-sided: a
/// controller that dodges its expected violation un-demonstrates the
/// pathology and fails the cell just like an unexpected violation does.
struct Expectation {
  std::string controller;
  InvariantKind invariant = InvariantKind::kGoodputFloor;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  /// App factory key: "boutique", "trainticket" or "alibaba".
  std::string app = "boutique";
  std::uint64_t seed = 42;
  double duration_s = 120.0;
  /// Give the app's APIs distinct business priorities (DAGOR-style mixes).
  bool distinct_priorities = false;
  /// Liveness-probe pod failures (boutique and trainticket).
  bool probe_failures = false;
  /// Independent copies of the app (alibaba only).
  int replicas = 1;
  /// Horizontal pod autoscaler on a default VM cluster.
  bool hpa = false;

  // --- Client behaviour -----------------------------------------------------
  double think_s = 1.0;
  double client_timeout_s = 5.0;
  int client_retries = 0;
  double client_retry_backoff_s = 0.1;

  // --- Per-hop RPC policy ---------------------------------------------------
  double hop_timeout_s = 0.0;
  int hop_retries = 0;
  double hop_retry_backoff_s = 0.0;

  // --- Workload -------------------------------------------------------------
  std::vector<WorkloadPhase> phases;  ///< sorted by at_s
  /// Phases give requests per second, split evenly over the APIs, instead
  /// of closed-loop users.
  bool open_loop = false;
  /// Diurnal replay: when period > 0 the user schedule is a raised-cosine
  /// oscillation between low and high (phases are ignored).
  double diurnal_low = 0.0;
  double diurnal_high = 0.0;
  double diurnal_period_s = 0.0;
  std::vector<TenantSpec> tenants;

  /// Faults in directive order, expanded against the app by ExpandFaults.
  std::vector<FaultDirective> faults;
  /// Seed of the fault injector's own RNG stream.
  std::uint64_t fault_seed = fault::FaultInjector::kDefaultSeed;

  /// Per-API rate of the "static" matrix controller (<= 0 = uncapped).
  double static_rate = 0.0;

  std::vector<Invariant> invariants;
  std::vector<Expectation> expected_violations;

  // --- Fluent builder -------------------------------------------------------
  static ScenarioSpec Make(std::string name, std::string app = "boutique");
  ScenarioSpec& Describe(std::string text);
  ScenarioSpec& Seed(std::uint64_t seed);
  ScenarioSpec& Duration(double seconds);
  ScenarioSpec& Phase(double at_s, double users, double ramp_s = 0.0);
  ScenarioSpec& Diurnal(double low, double high, double period_s);
  ScenarioSpec& Tenant(TenantSpec tenant);
  ScenarioSpec& Client(double timeout_s, int retries, double backoff_s,
                       double think_s = 1.0);
  ScenarioSpec& Rpc(double timeout_s, int retries, double backoff_s);
  ScenarioSpec& Fault(FaultDirective fault);
  ScenarioSpec& StaticRate(double rate);
  ScenarioSpec& DistinctPriorities(bool on = true);
  ScenarioSpec& Require(InvariantKind kind, double value, double from_s = 0.0);
  ScenarioSpec& Require(InvariantKind kind, double value, double from_s,
                        std::string param);
  ScenarioSpec& ExpectViolation(std::string controller, InvariantKind kind);

  /// The load schedule implied by the phases / diurnal fields, every
  /// level divided by `divisor` (the API count splits an open-loop rate).
  workload::Schedule BuildUserSchedule(double divisor = 1.0) const;

  /// Whether `controller` is expected to violate `kind` here.
  bool ExpectsViolation(const std::string& controller, InvariantKind kind) const;

  /// Multiplies every time in the spec (duration, phase times and ramps,
  /// diurnal period, time-valued invariant fields, fault times and
  /// durations, the chaos window and duration bounds) by `factor` — the
  /// smoke-mode shrink. Thresholds that are not times are untouched.
  ScenarioSpec TimeScaled(double factor) const;
};

/// The validity check of a run description, shared by the profile parser
/// (after every directive, so a rejection names its line) and `topfull
/// run`: a positive duration, nondecreasing phases, no tenants on rps
/// phases, `replicas` only on alibaba, and no HPA across `shards` > 1 (each
/// shard would build its own VM cluster). `shards` is the count the shard
/// plan uses, after clamping to the app's clusters, not the count asked
/// for (MakeScenarioRun does the clamping). Single values are checked as
/// they are read, by the grammar's ParseNumber. Returns the reason, or ""
/// when the spec is valid.
std::string CheckScenario(const ScenarioSpec& spec, int shards = 1);

/// The spec's faults as a schedule for `app`: checks every service name
/// and draws each chaos directive against the app's services. Returns
/// nullopt and sets *error on an unknown service.
std::optional<fault::FaultSchedule> ExpandFaults(const ScenarioSpec& spec,
                                                 const sim::Application& app,
                                                 std::string* error);

}  // namespace topfull::scenario
