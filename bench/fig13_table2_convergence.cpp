// Figure 13 + Table 2: adaptation speed after an overload hits — DAGOR with
// different step parameters vs TopFull's RL rate controller.
//
// Paper setup: overload from the single Post Checkout API (Locust users),
// isolating the rate controller. Results: TopFull converges in 5 s; DAGOR
// takes 27 s with its default 0.05 decrease step, 19 s with 0.1, and never
// stabilises with 0.5 (oscillation). Convergence here = first time a run
// reaches 90 % of the best variant's steady goodput and holds it for 5
// consecutive seconds.
//
// The four runs execute concurrently on the shared worker pool; the DAGOR
// alpha sweep uses RunSpec::attach for its custom controller config.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "apps/online_boutique.hpp"
#include "baselines/dagor.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr double kSurgeS = 10.0;
constexpr double kEndS = 120.0;
constexpr int kSurgeUsers = 1400;

std::unique_ptr<sim::Application> MakeApp() {
  apps::BoutiqueOptions options;
  options.seed = 59;
  return apps::MakeOnlineBoutique(options);
}

void Drive(workload::TrafficDriver& traffic, sim::Application&) {
  // Single-API overload: Post Checkout users jump from light load to ~3.5x
  // the Checkout microservice's capacity at t=10 s.
  workload::ClosedLoopConfig users;
  users.mix.weights = {1.0, 0.0, 0.0, 0.0, 0.0};  // postcheckout only
  traffic.AddClosedLoop(users,
                        workload::Schedule::Constant(50).Then(Seconds(kSurgeS),
                                                              kSurgeUsers));
}

double SteadyGoodput(const sim::Application& app) {
  return app.metrics().AvgGoodput(apps::kPostCheckout, kEndS - 40.0, kEndS);
}

/// Seconds from the surge until goodput first reaches `bar` and stays there
/// for 5 consecutive seconds; inf when that never happens (oscillation).
double ConvergenceSeconds(const sim::Application& app, double bar) {
  const auto& timeline = app.metrics().Timeline();
  int run = 0;
  for (const auto& snap : timeline) {
    if (snap.t_end_s <= kSurgeS) continue;
    if (static_cast<double>(snap.apis[apps::kPostCheckout].good) >= bar) {
      if (++run >= 5) return snap.t_end_s - static_cast<double>(run - 1) - kSurgeS;
    } else {
      run = 0;
    }
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

int topfull::bench::Fig13Table2Convergence(const BenchArgs&) {
  PrintBanner("Figure 13 / Table 2",
              "Single Post Checkout overload: convergence speed of DAGOR "
              "(alpha = 0.05 / 0.1 / 0.5) vs TopFull (RL).");
  auto policy = exp::GetPretrainedPolicy();

  std::vector<exp::RunSpec> specs;
  // DAGOR with swept decrease step.
  for (const double alpha : {0.05, 0.1, 0.5}) {
    exp::RunSpec spec;
    spec.label = "DAGOR (" + Fmt(alpha, 2) + ")";
    spec.duration_s = kEndS;
    spec.make_app = MakeApp;
    spec.traffic = Drive;
    spec.attach = [alpha](sim::Application& app) -> std::shared_ptr<void> {
      baselines::DagorConfig config;
      config.alpha = alpha;
      auto dagor = std::make_shared<baselines::DagorAdmission>(&app, config);
      dagor->Install();
      return dagor;
    };
    specs.push_back(std::move(spec));
  }
  // TopFull RL.
  {
    exp::RunSpec spec;
    spec.label = "TopFull (RL)";
    spec.duration_s = kEndS;
    spec.make_app = MakeApp;
    spec.traffic = Drive;
    spec.variant = exp::Variant::kTopFull;
    spec.policy = policy.get();
    specs.push_back(std::move(spec));
  }
  const std::vector<exp::RunResult> runs = exp::RunExecutor().Execute(specs);

  double best_steady = 0.0;
  for (const auto& run : runs) best_steady = std::max(best_steady, SteadyGoodput(run.app()));
  const double bar = 0.9 * best_steady;

  Table table("convergence to 90% of the best steady goodput (" +
              Fmt(best_steady, 0) + " rps) after overload");
  table.SetHeader({"rate controller", "steady goodput (rps)", "convergence (s)"});
  for (const auto& run : runs) {
    const double conv = ConvergenceSeconds(run.app(), bar);
    table.AddRow({run.label, Fmt(SteadyGoodput(run.app()), 0),
                  std::isinf(conv) ? "never (oscillates)" : Fmt(conv, 0)});
  }
  table.Print();
  std::printf("\nPaper: DAGOR(0.05) 27 s, DAGOR(0.1) 19 s, DAGOR(0.5) never, "
              "TopFull 5 s.\n");
  return 0;
}
