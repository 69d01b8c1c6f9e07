#include "sim/sharded_app.hpp"

#include <algorithm>
#include <cassert>

namespace topfull::sim {

ShardedApp::ShardedApp(const AppFactory& factory, Options options) {
  // The plan needs only the topology, so the first replica is enough to
  // size the rest: one replica per shard of the plan.
  apps_.push_back(factory());
  assert(apps_.back() != nullptr);
  ShardPlanOptions plan_options;
  plan_options.num_shards = options.shards;
  plan_ = BuildShardPlan(*apps_[0], plan_options);
  const int n = plan_.num_shards;
  apps_.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i < n; ++i) {
    apps_.push_back(factory());
    assert(apps_.back() != nullptr);
    assert(apps_.back()->NumApis() == apps_[0]->NumApis() &&
           apps_.back()->NumServices() == apps_[0]->NumServices() &&
           "app factory must be deterministic across replicas");
  }

  std::vector<des::Simulation*> sims;
  sims.reserve(apps_.size());
  for (auto& a : apps_) sims.push_back(&a->sim());
  des::ShardedSimulation::Options engine_options;
  engine_options.threaded = options.threaded;
  engine_ = std::make_unique<des::ShardedSimulation>(std::move(sims),
                                                     engine_options);
}

std::vector<Snapshot> ShardedApp::MergedTimeline() const {
  const auto& base = app(0).metrics().Timeline();
  std::size_t rows = base.size();
  for (int i = 1; i < num_shards(); ++i) {
    rows = std::min(rows, app(i).metrics().Timeline().size());
  }
  std::vector<Snapshot> merged;
  merged.reserve(rows);
  for (std::size_t row = 0; row < rows; ++row) {
    Snapshot snap;
    snap.t_end_s = base[row].t_end_s;
    snap.apis.reserve(base[row].apis.size());
    for (std::size_t a = 0; a < base[row].apis.size(); ++a) {
      const int origin = plan_.OriginOf(static_cast<ApiId>(a));
      snap.apis.push_back(app(origin).metrics().Timeline()[row].apis[a]);
    }
    snap.services.reserve(base[row].services.size());
    for (std::size_t s = 0; s < base[row].services.size(); ++s) {
      const int owner = plan_.OwnerOf(static_cast<ServiceId>(s));
      snap.services.push_back(app(owner).metrics().Timeline()[row].services[s]);
    }
    merged.push_back(std::move(snap));
  }
  return merged;
}

std::vector<ApiTotals> ShardedApp::MergedTotals() const {
  const int num_apis = app(0).NumApis();
  std::vector<ApiTotals> totals;
  totals.reserve(static_cast<std::size_t>(num_apis));
  for (ApiId a = 0; a < num_apis; ++a) {
    totals.push_back(
        app(plan_.OriginOf(a)).metrics().Totals()[static_cast<std::size_t>(a)]);
  }
  return totals;
}

}  // namespace topfull::sim
