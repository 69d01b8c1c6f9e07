#include "sim/shard_plan.hpp"

#include <algorithm>
#include <cassert>

#include "common/partition.hpp"
#include "common/union_find.hpp"
#include "sim/app.hpp"

namespace topfull::sim {

namespace {

/// Expected event-rate proxy for one service: how many requests/second it
/// can absorb (pods * threads / mean service time). The true per-shard
/// event rate depends on offered load, but capacity tracks where load is
/// provisioned to go, and a static plan must not depend on the workload
/// (the same app + shard count must partition identically in every run).
double ServiceWeight(const Application& app, ServiceId s) {
  const auto& config = app.service(s).config();
  const double per_thread =
      config.mean_service_ms > 0 ? 1000.0 / config.mean_service_ms : 1.0;
  return static_cast<double>(config.initial_pods) *
         static_cast<double>(config.threads) * per_thread;
}

}  // namespace

ShardPlan BuildShardPlan(const Application& app,
                         const ShardPlanOptions& options) {
  const int num_services = app.NumServices();
  const int num_apis = app.NumApis();
  ShardPlan plan;
  plan.service_owner.assign(static_cast<std::size_t>(num_services), 0);
  plan.api_origin.assign(static_cast<std::size_t>(num_apis), 0);

  // Cluster decomposition: services co-appearing in any API's call graph
  // are merged (the same shared-microservice relation the paper clusters
  // overloaded APIs by; here over the static topology).
  UnionFind uf(num_services);
  for (ApiId a = 0; a < num_apis; ++a) {
    const auto& involved = app.api(a).involved_services();
    ServiceId first = kNoService;
    for (const ServiceId s : involved) {
      if (first == kNoService) {
        first = s;
      } else {
        uf.Union(first, s);
      }
    }
  }
  plan.service_cluster.assign(static_cast<std::size_t>(num_services), 0);
  std::vector<int> root_to_cluster(static_cast<std::size_t>(num_services), -1);
  int num_clusters = 0;
  for (ServiceId s = 0; s < num_services; ++s) {
    const int root = uf.Find(s);
    if (root_to_cluster[static_cast<std::size_t>(root)] < 0) {
      root_to_cluster[static_cast<std::size_t>(root)] = num_clusters++;
    }
    plan.service_cluster[static_cast<std::size_t>(s)] =
        root_to_cluster[static_cast<std::size_t>(root)];
  }
  plan.num_clusters = num_clusters;
  // Whole clusters only: a shard beyond the cluster count would hold nothing.
  plan.num_shards = std::max(1, std::min(options.num_shards, num_clusters));

  if (plan.num_shards > 1) {
    std::vector<double> cluster_weight(static_cast<std::size_t>(num_clusters),
                                       0.0);
    for (ServiceId s = 0; s < num_services; ++s) {
      cluster_weight[static_cast<std::size_t>(
          plan.service_cluster[static_cast<std::size_t>(s)])] +=
          ServiceWeight(app, s);
    }
    const std::vector<int> cluster_shard =
        PackBinsLpt(cluster_weight, plan.num_shards);
    for (ServiceId s = 0; s < num_services; ++s) {
      plan.service_owner[static_cast<std::size_t>(s)] =
          cluster_shard[static_cast<std::size_t>(
              plan.service_cluster[static_cast<std::size_t>(s)])];
    }
  }

  // An API's services all share one cluster, hence one shard: its origin.
  for (ApiId a = 0; a < num_apis; ++a) {
    const ApiSpec& spec = app.api(a);
    assert(!spec.paths().empty() && "BuildShardPlan needs a finalized app");
    const ServiceId root = spec.paths()[0].root.service;
    plan.api_origin[static_cast<std::size_t>(a)] = plan.OwnerOf(root);
  }
  return plan;
}

}  // namespace topfull::sim
