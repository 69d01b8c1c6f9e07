#include "exp/sharded_run.hpp"

#include <algorithm>
#include <string>

#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull::exp {

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

ShardedRunResult RunShardedSpec(const RunSpec& spec,
                                const ShardedRunOptions& options) {
  obs::ScopedTimer run_timer("exp/sharded_run");
  ShardedRunResult result;
  result.label = spec.label;

  sim::ShardedApp::Options app_options;
  app_options.shards = options.shards;
  app_options.net_latency = options.net_latency;
  app_options.threaded = options.threaded;
  result.app = std::make_unique<sim::ShardedApp>(spec.make_app, app_options);
  sim::ShardedApp& sharded = *result.app;
  const int n = sharded.num_shards();

  // Same attachment order as RunOne — telemetry, controllers, traffic,
  // faults — executed per shard. Everything lives until the run finishes.
  std::vector<Telemetry> telemetry;
  telemetry.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    telemetry.emplace_back(TelemetryOptions::FromEnv());
    telemetry.back().Attach(sharded.app(i));
  }

  // One shared store for all shards (cells labelled shard="k" when n > 1).
  // Feeders only append from the worker threads; rules evaluate on the
  // coordinating thread at chunk edges, where every shard has advanced
  // past the boundary — identical results to inline evaluation because
  // query evaluation is strictly backward-looking.
  if (spec.tsdb != nullptr) {
    spec.tsdb->DisableInlineEvaluation();
    for (int i = 0; i < n; ++i) {
      spec.tsdb->Attach(sharded.app(i), i, n);
    }
  }

  std::vector<Controllers> controllers(static_cast<std::size_t>(n));
  std::vector<std::shared_ptr<void>> custom;
  for (int i = 0; i < n; ++i) {
    if (spec.attach) {
      custom.push_back(spec.attach(sharded.app(i)));
    } else {
      controllers[static_cast<std::size_t>(i)].Attach(
          spec.variant, sharded.app(i), spec.policy, spec.topfull_config);
    }
    if (controllers[static_cast<std::size_t>(i)].topfull() != nullptr) {
      telemetry[static_cast<std::size_t>(i)].Attach(
          *controllers[static_cast<std::size_t>(i)].topfull());
    }
  }

  std::vector<std::unique_ptr<workload::TrafficDriver>> traffic;
  traffic.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    traffic.push_back(
        std::make_unique<workload::TrafficDriver>(&sharded.app(i)));
    if (n > 1) {
      traffic.back()->SetShardScope(
          workload::TrafficDriver::ShardScope{&sharded.plan().api_origin, i});
    }
    if (spec.traffic) spec.traffic(*traffic.back(), sharded.app(i));
  }

  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  injectors.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    injectors.push_back(std::make_unique<fault::FaultInjector>(
        &sharded.app(i),
        FaultsForShard(spec.faults, sharded.app(i), sharded.plan(), i),
        spec.fault_seed));
    if (!injectors.back()->schedule().empty()) injectors.back()->Arm();
  }

  {
    obs::ScopedTimer timer("exp/simulate");
    if (spec.live == nullptr) {
      sharded.RunFor(Seconds(spec.duration_s));
    } else {
      obs::LiveSources sources;
      for (int i = 0; i < n; ++i) {
        sources.shards.push_back({&sharded.app(i),
                                  telemetry[static_cast<std::size_t>(i)].tracer(),
                                  telemetry[static_cast<std::size_t>(i)].monitor()});
      }
      sources.label = spec.label;
      sources.duration_s = spec.duration_s;
      sources.sharded = &sharded;
      // Chunks are whole multiples of net_latency. For a split plan that is
      // the lookahead, so the window edges land exactly where the unchunked
      // run puts them — otherwise a truncated window could reorder
      // same-timestamp cross-shard delivery. An aligned plan's lookahead is
      // unbounded, so each chunk is one round; the chunk size must not come
      // from engine().lookahead(), or the whole run would be one chunk and
      // nothing would publish mid-run.
      const SimTime net_latency = std::max<SimTime>(options.net_latency, 1);
      const SimTime chunk =
          std::max<SimTime>(Millis(100) / net_latency, 1) * net_latency;
      const SimTime end = sharded.Now() + Seconds(spec.duration_s);
      // Publish a start-of-run snapshot so a scrape that races the first
      // window round never sees an empty board.
      spec.live->MaybePublish(sources);
      while (sharded.Now() < end) {
        sharded.RunUntil(std::min(sharded.Now() + chunk, end));
        if (spec.tsdb != nullptr) {
          spec.tsdb->EvaluateRulesUpTo(ToSeconds(sharded.Now()));
        }
        spec.live->MaybePublish(sources);
      }
      spec.live->Publish(sources, /*finished=*/true);
    }
  }
  if (spec.tsdb != nullptr) spec.tsdb->FinishRules(ToSeconds(sharded.Now()));

  // Deterministic merged fault log: shard-major concatenation, then a
  // stable sort by injection time (ties keep shard order).
  for (int i = 0; i < n; ++i) {
    const auto& log = injectors[static_cast<std::size_t>(i)]->Log();
    result.fault_log.insert(result.fault_log.end(), log.begin(), log.end());
  }
  std::stable_sort(
      result.fault_log.begin(), result.fault_log.end(),
      [](const fault::FaultRecord& a, const fault::FaultRecord& b) {
        return a.at < b.at;
      });

  if (!telemetry.empty() && telemetry[0].enabled()) {
    obs::ScopedTimer timer("exp/export_telemetry");
    for (int i = 0; i < n; ++i) {
      std::string name = SanitizeFileName(spec.label);
      if (n > 1) name += ".shard" + std::to_string(i);
      const auto& log = injectors[static_cast<std::size_t>(i)]->Log();
      telemetry[static_cast<std::size_t>(i)].Export(
          sharded.app(i), name, controllers[static_cast<std::size_t>(i)].topfull(),
          log.empty() ? nullptr : &log);
    }
    // The TSDB plane is run-level (one store, shard-labelled cells), so its
    // artifacts are written once under the run name rather than per shard.
    if (spec.tsdb != nullptr) {
      const std::string base = TelemetryOptions::FromEnv().dir + "/" +
                               SanitizeFileName(spec.label);
      obs::WriteTsdbJson(spec.tsdb->tsdb(), base + ".tsdb.json");
      obs::WriteAlertsJson(spec.tsdb->rules(), base + ".alerts.json");
    }
  }
  return result;
}

}  // namespace topfull::exp
