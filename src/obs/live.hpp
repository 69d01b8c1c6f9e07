// Live telemetry plane: snapshot publisher + embedded observability server.
//
// LivePlane owns a SnapshotBoard and an HttpServer and turns the two into
// the run-facing API: the sim-owning thread calls MaybePublish() at
// quiescent points (between RunUntil chunks, never from inside an event),
// which captures an immutable MetricsSnapshot of the app's registry and
// swaps it onto the board; the server thread answers scrapes from board
// reads only. Publishing is strictly an observer: it never schedules
// events, never touches RNG state, and is rate-limited by wall clock, so a
// run with the server enabled is bit-identical to one without.
//
// Endpoints:
//   /metrics        Prometheus text exposition (same renderer as the
//                   offline .metrics.prom dump — byte-identical at end of
//                   run)
//   /healthz        liveness probe ("ok")
//   /runs           run-state JSON: label, sim time/progress, active SLO
//                   events, the engine's event counters
//   /snapshot.json  flattened registry dump (histograms as percentile
//                   summaries)
//   /query          PromQL-subset evaluation over the attached TSDB plane
//                   (404 when no plane is attached); instant via
//                   ?expr=&time=, range via ?expr=&start=&end=&step=
//   /alerts         alert rule states + transition log (404 without plane)
//   /               endpoint index
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/http_server.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace topfull::sim {
class Application;
}  // namespace topfull::sim

namespace topfull::obs {

class TsdbPlane;  // tsdb_plane.hpp

struct LiveOptions {
  /// TCP port for the observability server; 0 asks the kernel for an
  /// ephemeral port (tests), negative disables the server (bench runs that
  /// only measure the publisher).
  int port = 0;
  /// Minimum wall-clock interval between published snapshots; MaybePublish
  /// calls inside the interval are no-ops.
  double publish_interval_s = 0.010;
};

/// What a publish captures: one app and its observers. All pointers are
/// non-owning and may be null.
struct LiveSources {
  const sim::Application* app = nullptr;
  const RequestTracer* tracer = nullptr;
  const SloMonitor* monitor = nullptr;
  std::string label;
  double duration_s = 0.0;
};

/// Counts SLO start/onset events without a matching end/clear (exposed for
/// tests). `subjects` (optional) receives the still-open subjects as
/// "type:subject" strings, sorted.
std::uint64_t CountActiveSloEvents(const std::vector<SloEvent>& events,
                                   std::vector<std::string>* subjects = nullptr);

class LivePlane {
 public:
  explicit LivePlane(LiveOptions options = {});
  ~LivePlane();
  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  /// Starts the HTTP server (no-op when options.port < 0). Returns false
  /// with `error` filled on bind failure.
  bool StartServer(std::string* error = nullptr);
  void StopServer();
  bool serving() const { return server_ != nullptr && server_->running(); }
  /// Bound port (valid after StartServer succeeded).
  int port() const { return server_ != nullptr ? server_->port() : -1; }

  const SnapshotBoard& board() const { return board_; }

  /// Exposes a TSDB plane through /query and /alerts (not owned; must
  /// outlive the server). Must be set before StartServer.
  void SetTsdb(const TsdbPlane* tsdb) { tsdb_ = tsdb; }

  /// Captures + publishes if at least publish_interval_s of wall time has
  /// passed since the last publish (always publishes the first call).
  /// Must be called from the sim-owning thread at a quiescent point.
  /// Returns true when a snapshot was published.
  bool MaybePublish(const LiveSources& sources);

  /// Unconditional capture + publish (the end-of-run final snapshot, and
  /// benches that pace publishing by sim time).
  void Publish(const LiveSources& sources, bool finished = false);

  std::uint64_t publishes() const { return version_; }

 private:
  std::shared_ptr<const MetricsSnapshot> Capture(const LiveSources& sources,
                                                 bool finished);
  HttpResponse Route(const HttpRequest& request) const;

  LiveOptions options_;
  SnapshotBoard board_;
  const TsdbPlane* tsdb_ = nullptr;
  std::unique_ptr<HttpServer> server_;
  std::uint64_t version_ = 0;  // written by the publishing thread only
  std::chrono::steady_clock::time_point last_publish_{};
};

/// Pure routing over a board (shared by LivePlane and `topfull serve`,
/// which replays a finished run through the same endpoints). When `tsdb`
/// is non-null, /query evaluates against its store and /alerts serves the
/// rule engine's state; otherwise both answer 404.
HttpResponse RouteSnapshotRequest(const HttpRequest& request,
                                  const SnapshotBoard& board,
                                  const TsdbPlane* tsdb = nullptr);

}  // namespace topfull::obs
