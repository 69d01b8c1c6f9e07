// Sharded-run orchestration: one RunSpec executed across N engine shards.
//
// RunShardedSpec mirrors RunExecutor::RunOne step for step — app factory,
// telemetry attach, controller attach, traffic, fault arming, run — but
// performs each step once per shard replica with shard-local scope:
// controllers attach to every replica (a controller whose APIs see no
// local traffic simply never acts), traffic is apportioned by API origin,
// and fault events are armed only on the shard owning their target
// service. With shards == 1 every step degenerates to exactly what RunOne
// does, which the engine-identity digests verify byte-for-byte.
//
// The run's RunUntil calls are its quiescent points. Without a live plane
// the whole run is one call, so a cluster-aligned plan (unbounded
// lookahead) is a single synchronization round. With a live plane the run
// advances in ~100 ms chunks and publishes and evaluates TSDB rules at each
// chunk edge; an aligned plan then takes one round per chunk, and shards
// may drift up to a chunk apart in between. Split plans keep net_latency
// windows either way.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/run_executor.hpp"
#include "sim/sharded_app.hpp"

namespace topfull::exp {

struct ShardedRunOptions {
  int shards = 1;
  /// One-way cross-shard RPC latency; the synchronization window only when
  /// the shard plan splits a cluster (aligned plans have none to wait on).
  SimTime net_latency = Millis(1);
  /// Worker threads vs same-protocol sequential execution (bit-identical;
  /// sequential is for determinism cross-checks and debugging).
  bool threaded = true;
};

struct ShardedRunResult {
  std::string label;
  std::unique_ptr<sim::ShardedApp> app;
  /// Per-shard injector logs merged deterministically (stable-sorted by
  /// injection time, shard order preserved within a timestamp).
  std::vector<fault::FaultRecord> fault_log;
};

/// Splits a fault schedule by target-service ownership: each event lands
/// only on the shard owning its service (cluster-wide and unknown-service
/// events land on shard 0). The union over shards is the whole schedule.
fault::FaultSchedule FaultsForShard(const fault::FaultSchedule& all,
                                    const sim::Application& app,
                                    const sim::ShardPlan& plan, int shard);

/// Runs `spec` across `options.shards` shards. Telemetry (TOPFULL_TRACE_DIR)
/// exports per shard under "<label>.shard<k>" names for N > 1.
ShardedRunResult RunShardedSpec(const RunSpec& spec,
                                const ShardedRunOptions& options);

}  // namespace topfull::exp
