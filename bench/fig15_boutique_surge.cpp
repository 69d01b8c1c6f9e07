// Figure 15: Online Boutique under a traffic surge with the autoscaler.
//
// Paper: without overload control the Recommendation pods fail their
// liveness probes under the initial surge and crash-loop — the autoscaler
// keeps feeding pods into the fire until enough arrive at once — so TopFull
// +autoscaler serves 3.91x the standalone autoscaler during the surge.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr double kSurgeS = 40.0;
constexpr double kEndS = 300.0;
constexpr int kBaseUsers = 600;
constexpr int kSurgeUsers = 4200;

exp::RunSpec Spec(exp::Variant variant, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 67;
    options.probe_failures = true;  // the Fig. 15 failure mode
    return apps::MakeOnlineBoutique(options);
  };
  autoscale::ClusterConfig cluster;
  cluster.initial_vms = 1;
  cluster.max_vms = 3;
  cluster.vm_startup = Seconds(60);
  spec.hpa = cluster;
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(kBaseUsers)
                              .Then(Seconds(kSurgeS), kSurgeUsers));
  };
  return spec;
}

}  // namespace

int topfull::bench::Fig15BoutiqueSurge(const BenchArgs&) {
  PrintBanner("Figure 15",
              "Online Boutique + HPA with liveness-probe pod failures, surge "
              "at t=40 s: per-API goodput and total timeline.");
  auto policy = exp::GetPretrainedPolicy();

  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(
      {Spec(exp::Variant::kNoControl, nullptr),
       Spec(exp::Variant::kTopFullBw, nullptr),
       Spec(exp::Variant::kTopFull, policy.get())});
  const sim::Application& solo = results[0].app();
  const sim::Application& bw = results[1].app();
  const sim::Application& topfull = results[2].app();

  Table per_api("(a) avg goodput per API during surge (rps)");
  per_api.SetHeader({"variant", "API1", "API2", "API3", "API4", "API5", "total",
                     "rec pod kills"});
  auto add = [&](const char* name, const sim::Application& app) {
    std::vector<double> row = exp::PerApiGoodputRow(app, kSurgeS, kEndS);
    row.push_back(app.service(app.FindService("recommendation")).ProbeKills());
    per_api.AddRow(name, row, 0);
  };
  add("autoscaler", solo);
  add("TopFull(BW)+AS", bw);
  add("TopFull+AS", topfull);
  per_api.Print();

  Table timeline("\n(b) total goodput timeline (rps, 10 s bins)");
  timeline.SetHeader({"t(s)", "autoscaler", "TopFull(BW)+AS", "TopFull+AS"});
  for (double t = 0.0; t + 10.0 <= kEndS; t += 10.0) {
    timeline.AddRow(Fmt(t + 10.0, 0),
                    {exp::TotalGoodput(solo, t, t + 10),
                     exp::TotalGoodput(bw, t, t + 10),
                     exp::TotalGoodput(topfull, t, t + 10)},
                    0);
  }
  timeline.Print();

  const double g_solo = exp::TotalGoodput(solo, kSurgeS, kEndS);
  const double g_bw = exp::TotalGoodput(bw, kSurgeS, kEndS);
  const double g_tf = exp::TotalGoodput(topfull, kSurgeS, kEndS);
  std::printf("\nTopFull vs autoscaler:  %.2fx (paper: 3.91x)\n", g_tf / g_solo);
  std::printf("TopFull vs TopFull(BW): %.2fx (paper: 1.19x)\n", g_tf / g_bw);
  return 0;
}
