// ShardedApp: one logical application simulated across many engine shards.
//
// Each shard holds a full Application replica built by the same factory
// (identical topology, identical seeds, so ServiceIds, ApiIds and RNG fork
// points line up across replicas). The shard plan gives every shard whole
// clusters of services, never part of one, and clamps the shard count to
// the cluster count, so every hop of a request runs on the shard where the
// request entered. A des::ShardedSimulation then runs the per-shard
// engines side by side, one spawn-and-join round per RunUntil. Traffic
// enters each API on its origin shard. Observability stays shard-local
// during the run and is merged deterministically afterwards: API windows
// are taken from the API's origin shard, service windows from the
// service's owner — each row has exactly one authoritative shard, so the
// merge is a selection, not a sum.
//
// One shard (asked for, or a one-cluster app) constructs a single replica
// and runs it directly — the engine-identity digests pin that path to the
// unsharded engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "des/sharded_simulation.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/app.hpp"
#include "sim/metrics.hpp"
#include "sim/shard_plan.hpp"

namespace topfull::sim {

class ShardedApp {
 public:
  using AppFactory = std::function<std::unique_ptr<Application>()>;

  struct Options {
    /// Requested shard count; the plan clamps it to the cluster count.
    int shards = 1;
    /// Unread: no hop crosses shards. Kept only because the perfbench
    /// driver sets it.
    SimTime net_latency = Millis(1);
    /// Shard threads (default) vs every shard on the calling thread.
    /// Bit-identical either way.
    bool threaded = true;
  };

  /// `factory` must return a finalized Application and must be
  /// deterministic: every call builds a structurally identical app. It is
  /// called once per shard of the plan, not per requested shard.
  ShardedApp(const AppFactory& factory, Options options);

  int num_shards() const { return static_cast<int>(apps_.size()); }
  Application& app(int shard) { return *apps_[static_cast<std::size_t>(shard)]; }
  const Application& app(int shard) const {
    return *apps_[static_cast<std::size_t>(shard)];
  }
  const ShardPlan& plan() const { return plan_; }
  des::ShardedSimulation& engine() { return *engine_; }
  const des::ShardedSimulation& engine() const { return *engine_; }

  SimTime Now() const { return engine_->Horizon(); }
  void RunUntil(SimTime t) { engine_->RunUntil(t); }
  void RunFor(SimTime duration) { RunUntil(Now() + duration); }

  // --- Deterministic merged observability ----------------------------------

  /// Whole-run timeline with every window row taken from its authoritative
  /// shard (APIs from their origin, services from their owner).
  std::vector<Snapshot> MergedTimeline() const;
  std::vector<ApiTotals> MergedTotals() const;
  double MergedAvgTotalGoodput(double from_s = 0.0, double to_s = -1.0) const;

  /// Aggregates over shards.
  std::uint64_t HopTimeouts() const;
  std::uint64_t Retries() const;
  int Inflight() const;

  /// Scheduler instrumentation registry (shards > 1): per-shard
  /// `topfull_shard_*` gauges/histograms/counters fed by the engine's round
  /// observer — round wall time, barrier waits, busy time and events per
  /// round. Values derive from wall clocks, so this registry is published
  /// only through the live plane and never merged into the deterministic
  /// offline exports. Written on the RunUntil caller thread between
  /// rounds; read it only at quiescent points (the same contract as the
  /// per-shard app registries).
  const obs::MetricsRegistry& scheduler_registry() const {
    return sched_registry_;
  }

 private:
  /// Per-shard scheduler metric handles + previous cumulative engine
  /// counters (the observer records per-round deltas).
  struct ShardSched {
    obs::Histogram* barrier_wait_ms = nullptr;
    obs::Histogram* events_per_round = nullptr;
    obs::Gauge* busy_seconds = nullptr;
    obs::Gauge* blocked_seconds = nullptr;
    std::uint64_t prev_events = 0;
    double prev_blocked_s = 0.0;
  };

  void InstallSchedulerInstrumentation();
  void OnRound(const des::ShardedSimulation::RoundInfo& info);

  Options options_;
  std::vector<std::unique_ptr<Application>> apps_;
  ShardPlan plan_;
  std::unique_ptr<des::ShardedSimulation> engine_;

  obs::MetricsRegistry sched_registry_;
  obs::Histogram* round_wall_ms_ = nullptr;
  obs::Counter* rounds_total_ = nullptr;
  std::vector<ShardSched> sched_;
};

}  // namespace topfull::sim
