#include "exp/run_executor.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "autoscale/hpa.hpp"
#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull::exp {

bool TsdbFromEnv() {
  const char* value = std::getenv("TOPFULL_TSDB");
  return value != nullptr && *value != '\0' && std::string(value) != "0";
}

std::unique_ptr<obs::TsdbPlane> MakeSloTsdbPlane(double goodput_floor) {
  auto plane = std::make_unique<obs::TsdbPlane>();
  for (obs::AlertRule& rule : obs::SloBurnRules()) {
    plane->rules().AddAlert(std::move(rule));
  }
  if (goodput_floor > 0) {
    plane->rules().AddAlert(obs::GoodputFloorRule(goodput_floor));
  }
  return plane;
}

RunResult Run(const RunSpec& spec, const std::string& name) {
  obs::ScopedTimer run_timer("exp/run");
  const std::string run_name =
      name.empty() ? SanitizeFileName(spec.label) : name;
  RunResult result;
  result.label = spec.label;
  {
    obs::ScopedTimer timer("exp/make_app");
    result.application = spec.make_app();
  }
  sim::Application& app = *result.application;

  std::unique_ptr<obs::TsdbPlane> owned_tsdb;
  obs::TsdbPlane* tsdb = spec.tsdb;
  if (tsdb == nullptr && TsdbFromEnv()) {
    owned_tsdb = MakeSloTsdbPlane();
    tsdb = owned_tsdb.get();
  }

  // The attach order: telemetry, TSDB feeder (it chains after the SLO
  // monitor), controllers, HPA, traffic, faults. Controllers and HPA start
  // their periodic events before the traffic does. What is attached here
  // but not kept in the result dies with the run.
  Telemetry telemetry(spec.telemetry);
  telemetry.Attach(app);
  if (tsdb != nullptr) {
    tsdb->Attach(app);
    telemetry.SetTsdb(tsdb);
  }

  std::shared_ptr<void> custom;
  if (spec.attach) {
    custom = spec.attach(app);
  } else {
    result.controllers.Attach(spec.variant, app, spec.policy,
                              spec.topfull_config, spec.static_rate);
  }
  if (result.controllers.topfull() != nullptr) {
    telemetry.Attach(*result.controllers.topfull());
  }

  std::unique_ptr<autoscale::Cluster> cluster;
  std::unique_ptr<autoscale::HorizontalPodAutoscaler> hpa;
  if (spec.hpa) {
    cluster = std::make_unique<autoscale::Cluster>(&app.sim(), *spec.hpa);
    hpa = std::make_unique<autoscale::HorizontalPodAutoscaler>(
        &app, cluster.get(), autoscale::HpaConfig{});
    hpa->Start();
  }

  result.traffic = std::make_unique<workload::TrafficDriver>(&app);
  if (spec.traffic) spec.traffic(*result.traffic, app);

  fault::FaultInjector injector(&app, spec.faults, spec.fault_seed);
  if (cluster != nullptr) injector.AttachCluster(cluster.get());
  if (!injector.schedule().empty()) injector.Arm();

  {
    obs::ScopedTimer timer("exp/simulate");
    if (spec.live == nullptr) {
      app.RunFor(Seconds(spec.duration_s));
    } else {
      obs::LiveSources sources;
      sources.app = &app;
      sources.tracer = telemetry.tracer();
      sources.monitor = telemetry.monitor();
      sources.label = spec.label;
      sources.duration_s = spec.duration_s;
      // Chunked execution is bit-identical to one long run: snapshots are
      // captured only at chunk edges, and no event depends on where the
      // chunk edges fall.
      const SimTime chunk = Millis(100);
      const SimTime end = app.sim().Now() + Seconds(spec.duration_s);
      // Publish a start-of-run snapshot so a scrape that races the first
      // chunk never sees an empty board.
      spec.live->MaybePublish(sources);
      while (app.sim().Now() < end) {
        app.RunUntil(std::min(app.sim().Now() + chunk, end));
        spec.live->MaybePublish(sources);
      }
      spec.live->Publish(sources, /*finished=*/true);
    }
  }
  // Catch the final boundary in case the last window closed short of it
  // (idempotent: already-evaluated boundaries are skipped).
  if (tsdb != nullptr) tsdb->FinishRules(ToSeconds(app.sim().Now()));

  result.fault_log = injector.Log();
  result.slo_events = telemetry.monitor()->events();

  if (spec.telemetry.enabled()) {
    obs::ScopedTimer timer("exp/export_telemetry");
    result.telemetry = telemetry.Export(
        app, run_name, result.controllers.topfull(),
        result.fault_log.empty() ? nullptr : &result.fault_log);
  }
  return result;
}

std::vector<RunResult> RunExecutor::Execute(const std::vector<RunSpec>& specs) const {
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Global();
  return pool.ParallelMap(specs.size(), [&specs](std::size_t i) {
    // Telemetry file names carry the spec index so sweeps with duplicate
    // labels never collide, and the naming is pool-size independent.
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "%03zu_", i);
    return Run(specs[i], prefix + SanitizeFileName(specs[i].label));
  });
}

}  // namespace topfull::exp
