// Static shard partitioning of a service topology.
//
// TopFull's clustering insight (§6.4) — APIs sharing microservices form
// near-independent clusters — is exactly the decomposition a conservative
// parallel DES wants: services inside one cluster interact every hop,
// clusters interact never (by construction). BuildShardPlan reproduces the
// union-find cluster decomposition over the finalized app topology (the
// same computation core::ClusterTracker performs online on overloaded
// APIs, here applied statically to the full graph) and packs whole
// clusters onto shards with deterministic LPT. When the topology is one
// big cluster (hand-built demo apps), the plan falls back to splitting at
// service granularity: correctness is unaffected — cross-shard hops just
// become messages — only the cross-shard edge count grows.
#pragma once

#include <vector>

#include "common/sim_time.hpp"
#include "sim/types.hpp"

namespace topfull::sim {

class Application;

struct ShardPlanOptions {
  int num_shards = 1;
  /// One-way network latency charged to every cross-shard hop; doubles as
  /// the synchronization lookahead of a split plan (it is the minimum — and
  /// only — cross-shard message latency). A cluster-aligned plan has no
  /// cross-shard hop, so its lookahead is unbounded.
  SimTime net_latency = Millis(1);
};

struct ShardPlan {
  int num_shards = 1;
  SimTime net_latency = Millis(1);
  /// ServiceId -> owning shard.
  std::vector<int> service_owner;
  /// ApiId -> shard where the API's requests enter (owner of path 0's
  /// root). Traffic generators and API metrics live there.
  std::vector<int> api_origin;
  /// ServiceId -> cluster index (union-find component over shared-API
  /// membership), before packing.
  std::vector<int> service_cluster;
  int num_clusters = 0;
  /// True when every API's involved-service set landed on one shard, i.e.
  /// the plan induces zero cross-shard hops (pure cluster packing). The
  /// sharded engine then runs with unbounded lookahead and meets only at
  /// RunUntil boundaries.
  bool cluster_aligned = true;

  int OwnerOf(ServiceId s) const {
    return service_owner[static_cast<std::size_t>(s)];
  }
  int OriginOf(ApiId a) const {
    return api_origin[static_cast<std::size_t>(a)];
  }
};

/// Computes the shard plan for a finalized application. Deterministic:
/// depends only on the topology and `options`.
ShardPlan BuildShardPlan(const Application& app, const ShardPlanOptions& options);

}  // namespace topfull::sim
