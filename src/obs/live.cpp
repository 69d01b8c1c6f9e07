#include "obs/live.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/sim_time.hpp"
#include "des/sharded_simulation.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/tsdb_plane.hpp"
#include "sim/app.hpp"
#include "sim/sharded_app.hpp"

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
  const bool multi = sources.shards.size() > 1;

  RunState run;
  run.label = sources.label;
  run.duration_s = sources.duration_s;
  run.finished = finished;
  run.shards.reserve(sources.shards.size());

  for (std::size_t i = 0; i < sources.shards.size(); ++i) {
    const LiveSources::Shard& shard = sources.shards[i];
    Labels extra;
    // A single-shard capture adds no label, so the end-of-run snapshot is
    // byte-identical to the offline .metrics.prom dump.
    if (multi) extra.emplace_back("shard", std::to_string(i));
    if (shard.app != nullptr) {
      builder.AddRegistry(shard.app->metrics_registry(), extra);
    }
    if (shard.tracer != nullptr) {
      AppendTracerCounters(builder, *shard.tracer, extra);
    }

    ShardRunState state;
    if (shard.app != nullptr) {
      const des::Simulation& sim = shard.app->sim();
      state.events_processed = sim.EventsProcessed();
      state.events_scheduled = sim.EventsScheduled();
      state.events_cancelled = sim.EventsCancelled();
      state.pending_events = sim.PendingEvents();
      run.sim_time_s = std::max(run.sim_time_s, ToSeconds(sim.Now()));
    }
    run.shards.push_back(state);

    if (shard.monitor != nullptr) {
      run.slo_events += shard.monitor->events().size();
      run.active_slo_events += CountActiveSloEvents(
          shard.monitor->events(), &run.active_slo_subjects);
    }
  }
  std::sort(run.active_slo_subjects.begin(), run.active_slo_subjects.end());

  if (sources.sharded != nullptr && multi) {
    const des::ShardedSimulation& engine = sources.sharded->engine();
    run.rounds = engine.Rounds();
    run.sim_time_s = std::max(run.sim_time_s, ToSeconds(engine.Horizon()));
    const std::vector<des::ShardedSimulation::ShardStats>& stats =
        engine.Stats();
    for (std::size_t i = 0;
         i < std::min(stats.size(), run.shards.size()); ++i) {
      run.shards[i].busy_s = stats[i].busy_s;
      run.shards[i].blocked_s = stats[i].blocked_s;
    }
    // Wall-clock scheduler metrics: live-only, never in offline dumps.
    builder.AddRegistry(sources.sharded->scheduler_registry());
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
