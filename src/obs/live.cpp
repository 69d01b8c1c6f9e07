#include "obs/live.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/sim_time.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/tsdb_plane.hpp"
#include "sim/app.hpp"

namespace topfull::obs {

namespace {

/// Start/onset events pair with end/clear; oscillation is instantaneous.
/// Returns +1 / -1 / 0 and the subject's class prefix.
int SloEventDelta(SloEventType type, const char** prefix) {
  switch (type) {
    case SloEventType::kSloBurnStart: *prefix = "slo_burn"; return +1;
    case SloEventType::kSloBurnEnd: *prefix = "slo_burn"; return -1;
    case SloEventType::kOverloadOnset: *prefix = "overload"; return +1;
    case SloEventType::kOverloadClear: *prefix = "overload"; return -1;
    case SloEventType::kStarvationStart: *prefix = "starvation"; return +1;
    case SloEventType::kStarvationEnd: *prefix = "starvation"; return -1;
    case SloEventType::kOscillation: *prefix = "oscillation"; return 0;
  }
  *prefix = "unknown";
  return 0;
}

}  // namespace

std::uint64_t CountActiveSloEvents(const std::vector<SloEvent>& events,
                                   std::vector<std::string>* subjects) {
  std::map<std::string, int> open;  // "class:subject" -> net starts
  for (const SloEvent& e : events) {
    const char* prefix = nullptr;
    const int delta = SloEventDelta(e.type, &prefix);
    if (delta == 0) continue;
    int& n = open[std::string(prefix) + ":" + e.subject];
    n = std::max(0, n + delta);
  }
  std::uint64_t active = 0;
  for (const auto& [key, n] : open) {
    if (n <= 0) continue;
    active += static_cast<std::uint64_t>(n);
    if (subjects != nullptr) subjects->push_back(key);
  }
  return active;
}

LivePlane::LivePlane(LiveOptions options) : options_(options) {}

LivePlane::~LivePlane() { StopServer(); }

bool LivePlane::StartServer(std::string* error) {
  if (options_.port < 0) return true;  // publisher-only mode
  if (server_ != nullptr) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  server_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return Route(request); });
  if (!server_->Start(options_.port, error)) {
    server_.reset();
    return false;
  }
  return true;
}

void LivePlane::StopServer() {
  if (server_ != nullptr) server_->Stop();
}

bool LivePlane::MaybePublish(const LiveSources& sources) {
  const auto now = std::chrono::steady_clock::now();
  if (version_ > 0) {
    const double elapsed =
        std::chrono::duration<double>(now - last_publish_).count();
    if (elapsed < options_.publish_interval_s) return false;
  }
  last_publish_ = now;
  Publish(sources, /*finished=*/false);
  return true;
}

void LivePlane::Publish(const LiveSources& sources, bool finished) {
  board_.Publish(Capture(sources, finished));
}

std::shared_ptr<const MetricsSnapshot> LivePlane::Capture(
    const LiveSources& sources, bool finished) {
  SnapshotBuilder builder;
  RunState run;
  run.label = sources.label;
  run.duration_s = sources.duration_s;
  run.finished = finished;
  // The app's registry and the tracer counters, as the offline
  // .metrics.prom dump has them: the end-of-run snapshot renders the same
  // bytes.
  if (sources.app != nullptr) {
    builder.AddRegistry(sources.app->metrics_registry());
    const des::Simulation& sim = sources.app->sim();
    run.sim_time_s = ToSeconds(sim.Now());
    run.events_processed = sim.EventsProcessed();
    run.events_scheduled = sim.EventsScheduled();
    run.events_cancelled = sim.EventsCancelled();
    run.pending_events = sim.PendingEvents();
  }
  if (sources.tracer != nullptr) AppendTracerCounters(builder, *sources.tracer);
  if (sources.monitor != nullptr) {
    run.slo_events = sources.monitor->events().size();
    run.active_slo_events =
        CountActiveSloEvents(sources.monitor->events(), &run.active_slo_subjects);
  }

  // Profiler percentiles as live-only gauges (wall-clock, so they are
  // likewise excluded from the deterministic offline exports).
  Profiler& profiler = Profiler::Global();
  if (profiler.enabled()) {
    for (const auto& [phase, stats] : profiler.Snapshot()) {
      const Labels labels = {{"phase", phase}};
      builder.AddGauge("topfull_profile_count",
                       "Times the profiled phase ran.", labels,
                       static_cast<double>(stats.count));
      builder.AddGauge("topfull_profile_total_seconds",
                       "Cumulative wall time in the profiled phase.", labels,
                       stats.total_s);
      builder.AddGauge("topfull_profile_p50_ms",
                       "Median wall time per run of the profiled phase.",
                       labels, 1e3 * stats.p50_s);
      builder.AddGauge("topfull_profile_p99_ms",
                       "99th-percentile wall time per run of the profiled phase.",
                       labels, 1e3 * stats.p99_s);
      builder.AddGauge("topfull_profile_max_ms",
                       "Longest single run of the profiled phase.", labels,
                       1e3 * stats.max_s);
    }
  }

  ++version_;
  return builder.Finish(std::move(run), version_);
}

HttpResponse LivePlane::Route(const HttpRequest& request) const {
  return RouteSnapshotRequest(request, board_, tsdb_);
}

HttpResponse RouteSnapshotRequest(const HttpRequest& request,
                                  const SnapshotBoard& board,
                                  const TsdbPlane* tsdb) {
  const std::string path = request.target.substr(0, request.target.find('?'));
  HttpResponse response;
  if (path == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = PromTextFromSnapshot(*board.Read());
    return response;
  }
  if (path == "/runs") {
    response.content_type = "application/json";
    response.body = RunStateJson(*board.Read());
    return response;
  }
  if (path == "/snapshot.json") {
    response.content_type = "application/json";
    response.body = SnapshotJson(*board.Read());
    return response;
  }
  if (path == "/query" && tsdb != nullptr) {
    return HandleQueryRequest(request, tsdb->tsdb());
  }
  if (path == "/alerts" && tsdb != nullptr) {
    response.content_type = "application/json";
    response.body = tsdb->rules().AlertsJson();
    return response;
  }
  if (path == "/") {
    response.body =
        "topfull live observability\n"
        "  /metrics        Prometheus text exposition\n"
        "  /healthz        liveness probe\n"
        "  /runs           run-state JSON\n"
        "  /snapshot.json  flattened registry dump\n"
        "  /query          PromQL-subset query (?expr=...&time= or "
        "&start=&end=&step=)\n"
        "  /alerts         alert states + transitions\n";
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

}  // namespace topfull::obs
