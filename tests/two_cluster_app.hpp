// A minimal two-cluster application for sharded-run tests: two disjoint
// 2-service chains, one API each, so the shard plan can place one whole
// cluster on each of two shards.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "sim/app.hpp"
#include "workload/generators.hpp"

namespace topfull {

/// Two disjoint 2-service chains -> two clusters, two APIs.
inline std::unique_ptr<sim::Application> MakeTwoClusterApp() {
  auto app = std::make_unique<sim::Application>("two-cluster", 7);
  for (int i = 0; i < 4; ++i) {
    sim::ServiceConfig config;
    config.name = "svc-" + std::to_string(i);
    config.mean_service_ms = 5.0 + i;
    config.threads = 4;
    config.initial_pods = 2;
    app->AddService(config);
  }
  sim::ApiSpec left("left", 1);
  left.AddPath(sim::ExecutionPath{sim::Chain({0, 1}), 1.0, {}});
  app->AddApi(std::move(left));
  sim::ApiSpec right("right", 1);
  right.AddPath(sim::ExecutionPath{sim::Chain({2, 3}), 1.0, {}});
  app->AddApi(std::move(right));
  app->Finalize();
  return app;
}

/// 8 s of closed-loop users plus open-loop traffic on both APIs.
inline exp::RunSpec TwoClusterSpec() {
  exp::RunSpec spec;
  spec.label = "two-cluster";
  spec.duration_s = 8.0;
  spec.make_app = MakeTwoClusterApp;
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app), workload::Schedule::Constant(400));
    traffic.AddOpenLoop(0, workload::Schedule::Constant(50));
    traffic.AddOpenLoop(1, workload::Schedule::Constant(50));
  };
  return spec;
}

}  // namespace topfull
