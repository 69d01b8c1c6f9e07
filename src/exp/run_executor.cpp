#include "exp/run_executor.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "autoscale/hpa.hpp"
#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull::exp {

namespace {

/// What one shard attaches that dies with the run.
struct ShardRun {
  Telemetry telemetry;
  std::shared_ptr<void> custom;
  std::unique_ptr<autoscale::Cluster> cluster;
  std::unique_ptr<autoscale::HorizontalPodAutoscaler> hpa;
  std::unique_ptr<fault::FaultInjector> injector;
};

/// Appends `part` to `all` and stable-sorts the whole by `time`, so ties
/// keep shard order.
template <typename T, typename Time>
void MergeByTime(std::vector<T>* all, const std::vector<T>& part, Time time) {
  all->insert(all->end(), part.begin(), part.end());
  std::stable_sort(all->begin(), all->end(), [time](const T& a, const T& b) {
    return time(a) < time(b);
  });
}

/// Splits a fault schedule by target-service ownership: each event lands
/// only on the shard owning its service (cluster-wide and unknown-service
/// events land on shard 0). The union over shards is the whole schedule.
fault::FaultSchedule FaultsForShard(const fault::FaultSchedule& all,
                                    const sim::Application& app,
                                    const sim::ShardPlan& plan, int shard) {
  fault::FaultSchedule out;
  for (const fault::FaultEvent& event : all.events()) {
    int owner = 0;  // cluster-wide and unknown-service events: shard 0
    if (event.type != fault::FaultType::kVmOutage) {
      const sim::ServiceId s = app.FindService(event.service);
      if (s != sim::kNoService) owner = plan.OwnerOf(s);
    }
    if (owner == shard) out.Add(event);
  }
  return out;
}

}  // namespace

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
    sim::ShardedApp::Options options;
    options.shards = spec.shards;
    options.threaded = spec.threaded;
    result.sharded = std::make_unique<sim::ShardedApp>(spec.make_app, options);
  }
  sim::ShardedApp& sharded = *result.sharded;
  const int n = sharded.num_shards();

  // One store for all shards (cells labelled shard="k" when n > 1). Sharded
  // feeders only append from the worker threads; rules then evaluate on
  // this thread at chunk edges and at the end, which gives the same
  // transitions because query evaluation is strictly backward-looking.
  std::unique_ptr<obs::TsdbPlane> owned_tsdb;
  obs::TsdbPlane* tsdb = spec.tsdb;
  if (tsdb == nullptr && TsdbFromEnv()) {
    owned_tsdb = MakeSloTsdbPlane();
    tsdb = owned_tsdb.get();
  }
  if (tsdb != nullptr && n > 1) tsdb->DisableInlineEvaluation();

  // The attach order, per shard: telemetry, TSDB feeder (it chains after
  // the SLO monitor), controllers, HPA, traffic, faults. Controllers and
  // HPA start their periodic events before the traffic does.
  std::vector<ShardRun> shards(static_cast<std::size_t>(n));
  result.controllers.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sim::Application& app = sharded.app(i);
    ShardRun& shard = shards[static_cast<std::size_t>(i)];
    Controllers& controllers = result.controllers[static_cast<std::size_t>(i)];

    shard.telemetry = Telemetry(spec.telemetry);
    shard.telemetry.Attach(app);
    if (tsdb != nullptr) {
      tsdb->Attach(app, i, n);
      // A sharded run writes the run-level store once, after the shards.
      if (n == 1) shard.telemetry.SetTsdb(tsdb);
    }

    if (spec.attach) {
      shard.custom = spec.attach(app);
    } else {
      controllers.Attach(spec.variant, app, spec.policy, spec.topfull_config,
                         spec.static_rate);
    }
    if (controllers.topfull() != nullptr) {
      shard.telemetry.Attach(*controllers.topfull());
    }

    if (spec.hpa) {
      shard.cluster = std::make_unique<autoscale::Cluster>(&app.sim(), *spec.hpa);
      shard.hpa = std::make_unique<autoscale::HorizontalPodAutoscaler>(
          &app, shard.cluster.get(), autoscale::HpaConfig{});
      shard.hpa->Start();
    }

    result.traffic.push_back(std::make_unique<workload::TrafficDriver>(&app));
    if (n > 1) {
      result.traffic.back()->SetShardScope(
          workload::TrafficDriver::ShardScope{&sharded.plan().api_origin, i});
    }
    if (spec.traffic) spec.traffic(*result.traffic.back(), app);

    shard.injector = std::make_unique<fault::FaultInjector>(
        &app, FaultsForShard(spec.faults, app, sharded.plan(), i),
        spec.fault_seed);
    if (shard.cluster != nullptr) shard.injector->AttachCluster(shard.cluster.get());
    if (!shard.injector->schedule().empty()) shard.injector->Arm();
  }

  {
    obs::ScopedTimer timer("exp/simulate");
    if (spec.live == nullptr) {
      sharded.RunFor(Seconds(spec.duration_s));
    } else {
      obs::LiveSources sources;
      for (int i = 0; i < n; ++i) {
        const Telemetry& telemetry = shards[static_cast<std::size_t>(i)].telemetry;
        sources.shards.push_back(
            {&sharded.app(i), telemetry.tracer(), telemetry.monitor()});
      }
      sources.label = spec.label;
      sources.duration_s = spec.duration_s;
      sources.sharded = &sharded;
      // Chunked execution is bit-identical to one long run: snapshots are
      // captured only at chunk edges, where every shard is quiescent, and
      // no shard's events depend on where the chunk edges fall.
      const SimTime chunk = Millis(100);
      const SimTime end = sharded.Now() + Seconds(spec.duration_s);
      // Publish a start-of-run snapshot so a scrape that races the first
      // chunk never sees an empty board.
      spec.live->MaybePublish(sources);
      while (sharded.Now() < end) {
        sharded.RunUntil(std::min(sharded.Now() + chunk, end));
        if (tsdb != nullptr) tsdb->EvaluateRulesUpTo(ToSeconds(sharded.Now()));
        spec.live->MaybePublish(sources);
      }
      spec.live->Publish(sources, /*finished=*/true);
    }
  }
  // Catch the final boundary in case the last window closed short of it
  // (idempotent: already-evaluated boundaries are skipped).
  if (tsdb != nullptr) tsdb->FinishRules(ToSeconds(sharded.Now()));

  for (const ShardRun& shard : shards) {
    MergeByTime(&result.fault_log, shard.injector->Log(),
                [](const fault::FaultRecord& r) { return r.at; });
    MergeByTime(&result.slo_events, shard.telemetry.monitor()->events(),
                [](const obs::SloEvent& e) { return e.t_s; });
  }

  if (spec.telemetry.enabled()) {
    obs::ScopedTimer timer("exp/export_telemetry");
    for (int i = 0; i < n; ++i) {
      ShardRun& shard = shards[static_cast<std::size_t>(i)];
      const auto& log = shard.injector->Log();
      result.telemetry.push_back(shard.telemetry.Export(
          sharded.app(i),
          n > 1 ? run_name + ".shard" + std::to_string(i) : run_name,
          result.controllers[static_cast<std::size_t>(i)].topfull(),
          log.empty() ? nullptr : &log));
    }
    if (tsdb != nullptr && n > 1) {
      shards[0].telemetry.ExportTsdb(*tsdb, run_name, &result.telemetry[0]);
    }
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
