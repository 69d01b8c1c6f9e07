// Ablation bench: the TopFull controller's design knobs, beyond the paper's
// Fig. 10 component breakdown. All runs use the Online Boutique overload of
// Fig. 8 (4200 closed-loop users) with the trained RL policy and vary one
// dimension at a time:
//
//   (a) overload detection — utilisation threshold sweep, and disabling the
//       queue-delay detector;
//   (b) controller latency feature — p50 vs p95 vs p99;
//   (c) control period — 0.5 s / 1 s (paper) / 2 s / 4 s;
//   (d) target-selection order — fewest-APIs-first (paper §4.1) vs
//       most-APIs-first vs arbitrary.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"

using namespace topfull;

namespace {

constexpr int kUsers = 4200;
constexpr double kSurgeS = 15.0;
constexpr double kEndS = 120.0;

double Run(const rl::GaussianPolicy* policy, core::TopFullConfig config) {
  apps::BoutiqueOptions options;
  options.seed = 77;
  auto app = apps::MakeOnlineBoutique(options);
  core::TopFullController controller(
      app.get(), std::make_unique<core::RlRateController>(policy), config);
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  traffic.AddClosedLoop(exp::UniformUsers(*app),
                        workload::Schedule::Constant(kUsers / 6)
                            .Then(Seconds(kSurgeS), kUsers));
  app->RunFor(Seconds(kEndS));
  return exp::TotalGoodput(*app, kSurgeS, kEndS);
}

}  // namespace

int main() {
  PrintBanner("Controller-design ablations",
              "Online Boutique surge: avg total goodput (rps) while varying "
              "one controller knob at a time (all else = defaults).");
  auto policy = exp::GetPretrainedPolicy();

  {
    Table table("(a) overload detection");
    table.SetHeader({"detector", "goodput"});
    for (const double threshold : {0.85, 0.90, 0.95, 0.99}) {
      core::TopFullConfig config;
      config.overload.util_threshold = threshold;
      table.AddRow({"util > " + Fmt(threshold, 2), Fmt(Run(policy.get(), config), 0)});
    }
    core::TopFullConfig no_qd;
    no_qd.overload.use_queue_delay = false;
    table.AddRow({"util only (no queue-delay detector)",
                  Fmt(Run(policy.get(), no_qd), 0)});
    table.Print();
    std::printf("\n");
  }
  {
    Table table("(b) latency feature percentile");
    table.SetHeader({"feature", "goodput"});
    const std::pair<core::LatencyFeature, const char*> features[] = {
        {core::LatencyFeature::kP50, "p50"},
        {core::LatencyFeature::kP95, "p95"},
        {core::LatencyFeature::kP99, "p99"},
    };
    for (const auto& [feature, name] : features) {
      core::TopFullConfig config;
      config.latency_feature = feature;
      table.AddRow({name, Fmt(Run(policy.get(), config), 0)});
    }
    table.Print();
    std::printf("\n");
  }
  {
    Table table("(c) control period");
    table.SetHeader({"period", "goodput"});
    for (const double period_s : {0.5, 1.0, 2.0, 4.0}) {
      core::TopFullConfig config;
      config.period = Seconds(period_s);
      table.AddRow({Fmt(period_s, 1) + " s", Fmt(Run(policy.get(), config), 0)});
    }
    table.Print();
    std::printf("\n");
  }
  {
    Table table("(d) target-selection order (paper: fewest APIs first)");
    table.SetHeader({"order", "goodput"});
    const std::pair<core::TargetOrder, const char*> orders[] = {
        {core::TargetOrder::kFewestApisFirst, "fewest APIs first"},
        {core::TargetOrder::kMostApisFirst, "most APIs first"},
        {core::TargetOrder::kServiceIdOrder, "arbitrary (service id)"},
    };
    for (const auto& [order, name] : orders) {
      core::TopFullConfig config;
      config.target_order = order;
      table.AddRow({name, Fmt(Run(policy.get(), config), 0)});
    }
    table.Print();
  }
  return 0;
}
