// In-process TSDB feed + rule evaluation for a simulation run.
//
// A TsdbPlane owns one Tsdb and one RuleEngine and feeds the store from
// the sim::MetricsCollector window stream: Attach installs a
// WindowObserver on the application that, at every window close, appends
// the application's registry through a RegistryFeed (registry families
// only — none of the live-only profiler gauges ever enter the store) at
// the window's sim-time stamp, then evaluates the rules at every step
// boundary up to that stamp. The feeder chains to whatever observer was
// already installed (obs::SloMonitor) and calls it first, so the SLO event
// stream is untouched and alert transitions at the same timestamp sort
// after monitor events. FinishRules catches the boundaries after the last
// window at end of run.
//
// The plane is a pure observer: it never schedules events or touches RNG
// state, so a run with it attached is bit-identical to one without.
#pragma once

#include <memory>
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

class TsdbPlane {
 public:
  explicit TsdbPlane(TsdbOptions options = {});
  ~TsdbPlane();
  TsdbPlane(const TsdbPlane&) = delete;
  TsdbPlane& operator=(const TsdbPlane&) = delete;

  /// Installs the window feeder on `app`, chaining to any observer already
  /// installed there.
  void Attach(sim::Application& app);

  Tsdb& tsdb() { return tsdb_; }
  const Tsdb& tsdb() const { return tsdb_; }
  RuleEngine& rules() { return rules_; }
  const RuleEngine& rules() const { return rules_; }

  /// Evaluates every not-yet-evaluated step boundary up to and including
  /// `t_s`: the feeder calls it at every window close, the run driver once
  /// at end of run.
  void FinishRules(double t_s);

 private:
  struct Feeder;

  Tsdb tsdb_;
  RuleEngine rules_;
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
/// byte. Returns null with `error` filled on malformed input, including a
/// `step_s` that is not a finite positive number and a `retention` that is
/// not a whole number from 1 to kMaxTsdbRetention.
std::unique_ptr<Tsdb> TsdbFromJson(const std::string& text,
                                   std::string* error = nullptr);

/// Serves `/query?expr=...` over any store: `time=` (default: the store's
/// latest sample time) selects an instant query, `start=`/`end=`/`step=`
/// a range query. Body is QueryResultJson; parse/eval errors return 400,
/// missing/bad parameters 400 with the same JSON error envelope.
HttpResponse HandleQueryRequest(const HttpRequest& request, const Tsdb& tsdb);

}  // namespace topfull::obs
