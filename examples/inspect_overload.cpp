// Observability walkthrough: run TopFull on Online Boutique under overload
// and dump what the controller sees — per-service utilisation, the clusters
// it formed, per-API rate limits, admitted rates and goodput.
//
// Useful both as an API example (metrics/cluster introspection) and for
// diagnosing a deployment's equilibrium.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"

using namespace topfull;

int main() {
  auto policy = exp::GetPretrainedPolicy();
  exp::RunSpec spec;
  spec.label = "inspect-overload";
  spec.duration_s = 120;
  spec.variant = exp::Variant::kTopFull;
  spec.policy = policy.get();
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 17;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    workload::ClosedLoopConfig users = exp::UniformUsers(app);
    users.mix.weights = {1.0, 1.2, 0.9, 0.9, 1.0};
    traffic.AddClosedLoop(users, workload::Schedule::Constant(4200));
  };
  exp::RunResult result = exp::Run(spec);
  const sim::Application& app = result.app();
  const core::TopFullController& controller = *result.controllers.topfull();

  const auto& snap = app.metrics().Latest();

  Table services("services (last 1 s window)");
  services.SetHeader({"service", "util", "avg qdelay (ms)", "pods", "capacity rps"});
  for (int s = 0; s < app.NumServices(); ++s) {
    services.AddRow({app.service(s).name(), Fmt(snap.services[s].cpu_utilization, 2),
                     Fmt(1000 * snap.services[s].avg_queue_delay_s, 1),
                     std::to_string(snap.services[s].running_pods),
                     Fmt(app.service(s).CapacityRps(), 0)});
  }
  services.Print();

  Table apis("\nAPIs (last 1 s window, avg goodput over 60-120 s)");
  apis.SetHeader({"API", "rate limit", "offered", "admitted", "goodput",
                  "p95 latency (ms)"});
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    const auto limit = controller.RateLimit(a);
    apis.AddRow({app.api(a).name(),
                 limit.has_value() ? Fmt(*limit, 0) : "uncapped",
                 std::to_string(snap.apis[a].offered),
                 std::to_string(snap.apis[a].admitted),
                 Fmt(app.metrics().AvgGoodput(a, 60, 120), 0),
                 Fmt(snap.apis[a].latency_p95_ms, 0)});
  }
  apis.Print();

  std::printf("\nclusters in the last tick:\n");
  for (const auto& cluster : controller.LastClusters()) {
    std::printf("  target=%s  overloaded={", app.service(cluster.target).name().c_str());
    for (const auto s : cluster.overloaded) std::printf(" %s", app.service(s).name().c_str());
    std::printf(" }  candidates={");
    for (const auto a : cluster.candidates) std::printf(" %s", app.api(a).name().c_str());
    std::printf(" }\n");
  }
  return 0;
}
