// Figure 10: component-wise performance breakdown on all three benchmark
// applications.
//
// Compared: no control, TopFull with MIMD instead of RL, TopFull without
// clustering (sequential control), DAGOR, and full TopFull. Paper: MIMD
// costs 11-34 % goodput and removing clustering costs 2.6-22.5 % depending
// on how many independent clusters the application forms.
//
// The 3 apps x 5 variants (15 independent runs) execute concurrently on the
// shared worker pool.
#include <cstdio>
#include <functional>
#include <iterator>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

// The surge arrives at t=20 s; measuring from the onset includes the
// convergence transient, which is where parallel per-cluster control
// (vs the sequential ablation) earns its keep.
constexpr double kSurgeS = 20.0;
constexpr double kEndS = 110.0;

// The factory takes `dagor` = true when building the app for the DAGOR
// variant, which carries distinct per-API business priorities by design.
using Factory = std::function<std::unique_ptr<sim::Application>(bool dagor)>;

exp::RunSpec Spec(const char* name, const Factory& factory, int users,
                  exp::Variant variant, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = std::string(name) + "/" + exp::VariantName(variant);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [factory, variant] {
    return factory(variant == exp::Variant::kDagor);
  };
  spec.traffic = [users](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(users / 6)
                              .Then(Seconds(kSurgeS), users));
  };
  return spec;
}

}  // namespace

int topfull::bench::Fig10ComponentBreakdown(const BenchArgs&) {
  PrintBanner("Figure 10",
              "Component breakdown: avg total goodput (rps) under overload, "
              "and loss vs. full TopFull.");
  auto policy = exp::GetPretrainedPolicy();

  struct Benchmark {
    const char* name;
    Factory factory;
    int users;
  };
  const Benchmark benchmarks[] = {
      {"Online Boutique",
       [](bool dagor) {
         apps::BoutiqueOptions options;
         options.seed = 41;
         options.distinct_priorities = dagor;
         return apps::MakeOnlineBoutique(options);
       },
       2600},
      {"Train Ticket",
       [](bool dagor) {
         apps::TrainTicketOptions options;
         options.seed = 43;
         options.distinct_priorities = dagor;
         return apps::MakeTrainTicket(options);
       },
       3000},
      {"Trace Demo",
       [](bool) {
         apps::AlibabaDemoOptions options;
         options.seed = 2021;
         return apps::MakeAlibabaDemo(options).app;
       },
       6000},
  };

  const std::pair<exp::Variant, bool> variants[] = {
      {exp::Variant::kNoControl, false},   {exp::Variant::kDagor, false},
      {exp::Variant::kTopFullMimd, false}, {exp::Variant::kTopFullNoCluster, true},
      {exp::Variant::kTopFull, true},
  };

  std::vector<exp::RunSpec> specs;
  for (const auto& benchmark : benchmarks) {
    for (const auto& [variant, needs_policy] : variants) {
      specs.push_back(Spec(benchmark.name, benchmark.factory, benchmark.users,
                           variant, needs_policy ? policy.get() : nullptr));
    }
  }
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);

  const std::size_t per_benchmark = std::size(variants);
  for (std::size_t b = 0; b < std::size(benchmarks); ++b) {
    Table table(std::string(benchmarks[b].name) + " (avg total goodput, rps)");
    table.SetHeader({"variant", "goodput", "vs TopFull"});
    double topfull_goodput = 0.0;
    std::vector<std::pair<std::string, double>> rows;
    for (std::size_t v = 0; v < per_benchmark; ++v) {
      const exp::Variant variant = variants[v].first;
      const double g = exp::TotalGoodput(
          results[b * per_benchmark + v].app(), kSurgeS, kEndS);
      rows.emplace_back(exp::VariantName(variant), g);
      if (variant == exp::Variant::kTopFull) topfull_goodput = g;
    }
    for (const auto& [name, g] : rows) {
      table.AddRow({name, Fmt(g, 0),
                    Fmt(100.0 * (g - topfull_goodput) / topfull_goodput, 1) + "%"});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("Paper deltas: MIMD -34.4%% (OB), -18.4%% (TT), -11.1%% (demo); "
              "w/o cluster -2.6%% (OB), -22.5%% (TT), -18.7%% (demo).\n");
  return 0;
}
