// ShardedApp: one logical application simulated across many engine shards.
//
// No product path uses it: every run of the CLI, the benches and the
// scenario matrix goes through exp::Run on one engine, and `--replicas K`
// puts K copies in that one engine. It is kept only for the perfbench
// `alibaba_sharded` workload and the `sharded_deep_tree_*` rows of
// tab_event_throughput, which drive it directly, and goes with them.
//
// Each shard holds a full Application replica built by the same factory
// (identical topology, identical seeds, so ServiceIds, ApiIds and RNG fork
// points line up across replicas). The shard plan gives every shard whole
// clusters of services, never part of one, and clamps the shard count to
// the cluster count, so every hop of a request runs on the shard where the
// request entered. A des::ShardedSimulation then runs the per-shard
// engines side by side, one spawn-and-join round per RunUntil. Traffic
// enters each API on its origin shard (workload::TrafficDriver::ShardScope).
// The merged timeline takes API windows from the API's origin shard and
// service windows from the service's owner — each row has exactly one
// authoritative shard, so the merge is a selection, not a sum.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "des/sharded_simulation.hpp"
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

  /// Whole-run timeline and totals with every row taken from its
  /// authoritative shard (APIs from their origin, services from their owner).
  std::vector<Snapshot> MergedTimeline() const;
  std::vector<ApiTotals> MergedTotals() const;

 private:
  std::vector<std::unique_ptr<Application>> apps_;
  ShardPlan plan_;
  std::unique_ptr<des::ShardedSimulation> engine_;
};

}  // namespace topfull::sim
