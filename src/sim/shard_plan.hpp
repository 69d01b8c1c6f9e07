// Static shard partitioning of a service topology.
//
// TopFull's clustering insight (§6.4) — APIs sharing microservices form
// near-independent clusters — is exactly the decomposition a conservative
// parallel DES wants: services inside one cluster interact every hop,
// clusters interact never (by construction). BuildShardPlan reproduces the
// union-find cluster decomposition over the finalized app topology (the
// same computation core::ClusterTracker performs online on overloaded
// APIs, here applied statically to the full graph) and packs whole
// clusters onto shards with deterministic LPT. A cluster is never split:
// the plan clamps the shard count to the cluster count, so no hop ever
// leaves its shard (a one-cluster app, e.g. the Online Boutique, runs on
// one shard at any requested count).
#pragma once

#include <vector>

#include "sim/types.hpp"

namespace topfull::sim {

class Application;

struct ShardPlanOptions {
  /// Requested shard count; the plan uses at most one shard per cluster.
  int num_shards = 1;
};

struct ShardPlan {
  /// min(requested, clusters), at least 1. Every shard owns at least one
  /// whole cluster whenever the clusters have positive capacity.
  int num_shards = 1;
  /// ServiceId -> owning shard.
  std::vector<int> service_owner;
  /// ApiId -> shard where the API's requests enter (owner of path 0's
  /// root). Traffic generators and API metrics live there.
  std::vector<int> api_origin;
  /// ServiceId -> cluster index (union-find component over shared-API
  /// membership), before packing.
  std::vector<int> service_cluster;
  int num_clusters = 0;

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
