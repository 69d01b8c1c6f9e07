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
//
// All 15 runs execute concurrently on the shared worker pool.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr int kUsers = 4200;
constexpr double kSurgeS = 15.0;
constexpr double kEndS = 120.0;

/// One knob setting: the table it belongs to, its row name and the config.
struct Cell {
  int table;
  std::string name;
  core::TopFullConfig config;
};

exp::RunSpec Spec(const Cell& cell, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = cell.name;
  spec.duration_s = kEndS;
  spec.variant = exp::Variant::kTopFull;
  spec.policy = policy;
  spec.topfull_config = cell.config;
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 77;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(kUsers / 6)
                              .Then(Seconds(kSurgeS), kUsers));
  };
  return spec;
}

}  // namespace

int topfull::bench::AblControllerDesign(const BenchArgs&) {
  PrintBanner("Controller-design ablations",
              "Online Boutique surge: avg total goodput (rps) while varying "
              "one controller knob at a time (all else = defaults).");
  auto policy = exp::GetPretrainedPolicy();

  std::vector<Cell> cells;
  for (const double threshold : {0.85, 0.90, 0.95, 0.99}) {
    core::TopFullConfig config;
    config.overload.util_threshold = threshold;
    cells.push_back({0, "util > " + Fmt(threshold, 2), config});
  }
  core::TopFullConfig no_qd;
  no_qd.overload.use_queue_delay = false;
  cells.push_back({0, "util only (no queue-delay detector)", no_qd});
  const std::pair<core::LatencyFeature, const char*> features[] = {
      {core::LatencyFeature::kP50, "p50"},
      {core::LatencyFeature::kP95, "p95"},
      {core::LatencyFeature::kP99, "p99"},
  };
  for (const auto& [feature, name] : features) {
    core::TopFullConfig config;
    config.latency_feature = feature;
    cells.push_back({1, name, config});
  }
  for (const double period_s : {0.5, 1.0, 2.0, 4.0}) {
    core::TopFullConfig config;
    config.period = Seconds(period_s);
    cells.push_back({2, Fmt(period_s, 1) + " s", config});
  }
  const std::pair<core::TargetOrder, const char*> orders[] = {
      {core::TargetOrder::kFewestApisFirst, "fewest APIs first"},
      {core::TargetOrder::kMostApisFirst, "most APIs first"},
      {core::TargetOrder::kServiceIdOrder, "arbitrary (service id)"},
  };
  for (const auto& [order, name] : orders) {
    core::TopFullConfig config;
    config.target_order = order;
    cells.push_back({3, name, config});
  }

  std::vector<exp::RunSpec> specs;
  for (const Cell& cell : cells) specs.push_back(Spec(cell, policy.get()));
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);

  const char* titles[] = {"(a) overload detection", "(b) latency feature percentile",
                          "(c) control period",
                          "(d) target-selection order (paper: fewest APIs first)"};
  const char* knobs[] = {"detector", "feature", "period", "order"};
  for (int t = 0; t < 4; ++t) {
    Table table(titles[t]);
    table.SetHeader({knobs[t], "goodput"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].table != t) continue;
      table.AddRow({cells[i].name,
                    Fmt(exp::TotalGoodput(results[i].app(), kSurgeS, kEndS), 0)});
    }
    table.Print();
    if (t < 3) std::printf("\n");
  }
  return 0;
}
