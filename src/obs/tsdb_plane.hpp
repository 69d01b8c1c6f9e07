// In-process TSDB feed + rule evaluation for a simulation run.
//
// A TsdbPlane owns one Tsdb and one RuleEngine and feeds the store from
// the sim::MetricsCollector window stream: Attach installs a
// WindowObserver on the application that, at every window close, appends
// the application's registry through a RegistryFeed (registry families
// only — none of the live-only profiler/scheduler gauges ever enter the
// store) at the window's sim-time stamp. The feeder chains to whatever
// observer was already installed (obs::SloMonitor) and calls it first, so
// the SLO event stream is untouched and alert transitions at the same
// timestamp sort after monitor events.
//
// Rule pacing follows the quiescent-point discipline:
//  * unsharded (evaluate_on_window = true, the default): rules are
//    evaluated inline at each window close, right after the append;
//  * sharded (evaluate_on_window = false): feeders only append; the
//    coordinating thread calls EvaluateRulesUpTo at chunk edges and
//    FinishRules at end of run. Because query evaluation is strictly
//    backward-looking (query.hpp), evaluating a boundary late produces the
//    identical result, so both pacings yield the same transitions.
//
// The plane is a pure observer: it never schedules events or touches RNG
// state, so a run with it attached is bit-identical to one without.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/http_server.hpp"
#include "obs/rules.hpp"
#include "obs/tsdb.hpp"
#include "sim/metrics.hpp"

namespace topfull::sim {
class Application;
}  // namespace topfull::sim

namespace topfull::obs {

struct TsdbPlaneOptions {
  TsdbOptions tsdb;
  /// Evaluate rules inline at every window close (unsharded runs). Sharded
  /// runs set false and pace evaluation with EvaluateRulesUpTo/FinishRules.
  bool evaluate_on_window = true;
};

class TsdbPlane {
 public:
  explicit TsdbPlane(TsdbPlaneOptions options = {});
  ~TsdbPlane();
  TsdbPlane(const TsdbPlane&) = delete;
  TsdbPlane& operator=(const TsdbPlane&) = delete;

  /// Installs the window feeder on `app`, chaining to any observer already
  /// installed there. Cells get a shard="k" label only when num_shards > 1
  /// (so unsharded series keys match the text exposition exactly).
  void Attach(sim::Application& app, int shard = 0, int num_shards = 1);

  Tsdb& tsdb() { return tsdb_; }
  const Tsdb& tsdb() const { return tsdb_; }
  RuleEngine& rules() { return rules_; }
  const RuleEngine& rules() const { return rules_; }
  const TsdbPlaneOptions& options() const { return options_; }

  /// Switches to externally paced rule evaluation (the sharded runner
  /// calls this before attaching feeders: worker threads must only
  /// append). Must be called before the run starts.
  void DisableInlineEvaluation() { options_.evaluate_on_window = false; }

  /// Evaluates every not-yet-evaluated step boundary strictly before
  /// `t_s`. Strictly: a window closing exactly at a chunk edge may not
  /// have run yet, so the edge itself is deferred to the next call.
  void EvaluateRulesUpTo(double t_s);

  /// End-of-run catch-up: evaluates boundaries up to and including `t_s`.
  void FinishRules(double t_s);

 private:
  struct Feeder;
  /// Rule pacing after a feeder appended the window closing at `t_end_s`.
  void OnFeederWindow(double t_end_s);
  void EvaluateBoundaries(double limit_s, bool inclusive);

  TsdbPlaneOptions options_;
  Tsdb tsdb_;
  RuleEngine rules_;
  std::mutex eval_mu_;
  std::uint64_t next_boundary_ = 1;  ///< next boundary is next_boundary_*step
  std::vector<std::unique_ptr<Feeder>> feeders_;
};

/// Writes TsdbJson(tsdb) to `path`. Returns false on I/O failure.
bool WriteTsdbJson(const Tsdb& tsdb, const std::string& path);

/// Writes rules.AlertsJson() to `path`. Returns false on I/O failure.
bool WriteAlertsJson(const RuleEngine& rules, const std::string& path);

/// Reloads a "topfull.tsdb.v1" document (the `<name>.tsdb.json` artifact)
/// into a fresh store. Samples are stored in `%.17g`, so the reload is
/// bit-exact and replayed /query responses match the live ones byte for
/// byte. Returns null with `error` filled on malformed input.
std::unique_ptr<Tsdb> TsdbFromJson(const std::string& text,
                                   std::string* error = nullptr);

/// Serves `/query?expr=...` over any store: `time=` (default: the store's
/// latest sample time) selects an instant query, `start=`/`end=`/`step=`
/// a range query. Body is QueryResultJson; parse/eval errors return 400,
/// missing/bad parameters 400 with the same JSON error envelope.
HttpResponse HandleQueryRequest(const HttpRequest& request, const Tsdb& tsdb);

}  // namespace topfull::obs
