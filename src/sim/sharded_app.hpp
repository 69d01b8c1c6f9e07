// ShardedApp: one logical application simulated across many engine shards.
//
// Each shard holds a full Application replica built by the same factory
// (identical topology, identical seeds, so ServiceIds, ApiIds and RNG fork
// points line up across replicas), a shard plan assigns every service an
// owning shard, and a des::ShardedSimulation synchronizes the per-shard
// engines with conservative lookahead equal to the minimum latency of any
// message that can cross shards: the cross-shard network latency when the
// plan splits a cluster, unbounded when it is cluster-aligned (no hop ever
// leaves its shard, so each RunUntil is one synchronization round).
// Traffic enters each API on its origin shard; hops to services owned
// elsewhere travel as timestamped messages (see Application's shard
// binding). Observability stays shard-local during the run and is merged
// deterministically afterwards: API windows are taken from the API's
// origin shard, service windows from the service's owner — each row has
// exactly one authoritative shard, so the merge is a selection, not a sum.
//
// shards=1 constructs a single unbound replica and runs it directly — the
// engine-identity digests pin that path to the unsharded engine.
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
    int shards = 1;
    /// One-way cross-shard RPC latency; also the synchronization lookahead
    /// when the plan splits a cluster (an aligned plan's is unbounded).
    SimTime net_latency = Millis(1);
    /// Worker threads (default) vs the same window protocol run on the
    /// calling thread. Bit-identical either way.
    bool threaded = true;
  };

  /// `factory` must return a finalized Application and must be
  /// deterministic: every call builds a structurally identical app.
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
  std::uint64_t RemoteCalls() const;
  int Inflight() const;

  /// Scheduler instrumentation registry (shards > 1): per-shard
  /// `topfull_shard_*` gauges/histograms/counters fed by the engine's round
  /// observer — round wall time, barrier waits, mailbox depth high-water,
  /// events and cross-shard messages per round. Values derive from wall
  /// clocks, so this registry is published only through the live plane and
  /// never merged into the deterministic offline exports. Written on the
  /// RunUntil caller thread between rounds; read it only at quiescent
  /// points (the same contract as the per-shard app registries).
  const obs::MetricsRegistry& scheduler_registry() const {
    return sched_registry_;
  }

 private:
  /// Per-shard scheduler metric handles + previous cumulative engine
  /// counters (the observer records per-round deltas).
  struct ShardSched {
    obs::Histogram* barrier_wait_ms = nullptr;
    obs::Histogram* events_per_round = nullptr;
    obs::Histogram* messages_per_round = nullptr;
    obs::Gauge* mailbox_hwm = nullptr;
    obs::Gauge* busy_seconds = nullptr;
    obs::Gauge* blocked_seconds = nullptr;
    obs::Counter* messages_sent = nullptr;
    obs::Counter* messages_delivered = nullptr;
    std::uint64_t prev_events = 0;
    std::uint64_t prev_sent = 0;
    std::uint64_t prev_delivered = 0;
    double prev_blocked_s = 0.0;
  };

  void InstallSchedulerInstrumentation();
  void OnRound(const des::ShardedSimulation::RoundInfo& info);

  Options options_;
  std::vector<std::unique_ptr<Application>> apps_;
  std::vector<Application*> peers_;
  ShardPlan plan_;
  std::unique_ptr<des::ShardedSimulation> engine_;

  obs::MetricsRegistry sched_registry_;
  obs::Histogram* round_wall_ms_ = nullptr;
  obs::Histogram* round_drain_ms_ = nullptr;
  obs::Counter* rounds_total_ = nullptr;
  std::vector<ShardSched> sched_;
};

}  // namespace topfull::sim
