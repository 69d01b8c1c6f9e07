// Figure 14: Train Ticket under a traffic surge with the Kubernetes
// autoscaler — autoscaler alone vs TopFull(BW)+autoscaler vs
// TopFull+autoscaler.
//
// Paper: TopFull serves 1.38x the autoscaler's average goodput during the
// surge with the same vCPUs, and 1.75x TopFull(BW) (the AIMD entry
// controller reacts to new resources far slower than the RL policy).
#include <cstdio>

#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "exp/csv.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr double kSurgeS = 40.0;
constexpr double kEndS = 300.0;
constexpr int kBaseUsers = 700;
constexpr int kSurgeUsers = 4200;

exp::RunSpec Spec(exp::Variant variant, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [] {
    apps::TrainTicketOptions options;
    options.seed = 61;
    options.probe_failures = true;  // pods crash-loop under sustained queueing
    return apps::MakeTrainTicket(options);
  };
  autoscale::ClusterConfig cluster;
  cluster.initial_vms = 3;
  cluster.vcpus_per_vm = 36.0;  // surge demand exceeds the pool: the
                                // autoscaler cannot fully absorb it
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

int topfull::bench::Fig14TrainTicketSurge(const BenchArgs&) {
  PrintBanner("Figure 14",
              "Train Ticket + HPA, surge " + std::to_string(kBaseUsers) + " -> " +
                  std::to_string(kSurgeUsers) +
                  " users at t=40 s: per-API goodput and total timeline.");
  auto policy = exp::GetPretrainedPolicy();

  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(
      {Spec(exp::Variant::kNoControl, nullptr),
       Spec(exp::Variant::kTopFullBw, nullptr),
       Spec(exp::Variant::kTopFull, policy.get())});
  const sim::Application& solo = results[0].app();
  const sim::Application& bw = results[1].app();
  const sim::Application& topfull = results[2].app();

  Table per_api("(a) avg goodput per API during surge (rps)");
  per_api.SetHeader({"variant", "API1", "API2", "API3", "API4", "API5", "API6",
                     "total"});
  auto add = [&](const char* name, const sim::Application& app) {
    per_api.AddRow(name, exp::PerApiGoodputRow(app, kSurgeS, kEndS), 0);
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

  exp::MaybeExportTimeline(solo, "fig14_autoscaler");
  exp::MaybeExportTimeline(bw, "fig14_topfull_bw");
  exp::MaybeExportTimeline(topfull, "fig14_topfull");

  const double g_solo = exp::TotalGoodput(solo, kSurgeS, kEndS);
  const double g_bw = exp::TotalGoodput(bw, kSurgeS, kEndS);
  const double g_tf = exp::TotalGoodput(topfull, kSurgeS, kEndS);
  std::printf("\nTopFull vs autoscaler:  %.2fx (paper: 1.38x)\n", g_tf / g_solo);
  std::printf("TopFull vs TopFull(BW): %.2fx (paper: 1.75x)\n", g_tf / g_bw);
  return 0;
}
