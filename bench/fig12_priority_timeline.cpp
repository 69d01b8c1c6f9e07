// Figure 12: load-control timeline of API 1 (Post Checkout) and API 2
// (Get Product) under business priorities, DAGOR vs TopFull.
//
// Paper narrative: DAGOR sheds all lower-priority traffic at the overloaded
// Product microservice; TopFull rate-limits API 1 while resolving Checkout
// and *re-raises* API 2 to fill the capacity Product regains — even though
// API 1 nominally outranks API 2, API 1 is not increased while it still
// touches another overloaded microservice.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/csv.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr double kEndS = 120.0;

exp::RunSpec Spec(exp::Variant variant, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 53;
    options.distinct_priorities = true;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application&) {
    // Surge concentrated on the two APIs of Fig. 3 at t=10 s.
    traffic.AddOpenLoop(apps::kPostCheckout,
                        workload::Schedule::Constant(100).Then(Seconds(10), 800));
    traffic.AddOpenLoop(apps::kGetProduct,
                        workload::Schedule::Constant(100).Then(Seconds(10), 1600));
  };
  return spec;
}

}  // namespace

int topfull::bench::Fig12PriorityTimeline(const BenchArgs&) {
  PrintBanner("Figure 12",
              "Per-second goodput timeline of API1 (postcheckout) and API2 "
              "(getproduct), DAGOR vs TopFull.");
  auto policy = exp::GetPretrainedPolicy();
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(
      {Spec(exp::Variant::kDagor, nullptr),
       Spec(exp::Variant::kTopFull, policy.get())});
  const sim::Application& dagor_app = results[0].app();
  const sim::Application& topfull_app = results[1].app();

  Table table("goodput (rps, 5 s bins)");
  table.SetHeader({"t(s)", "DAGOR API1", "DAGOR API2", "TopFull API1",
                   "TopFull API2"});
  for (double t = 0.0; t + 5.0 <= kEndS; t += 5.0) {
    table.AddRow(Fmt(t + 5.0, 0),
                 {dagor_app.metrics().AvgGoodput(apps::kPostCheckout, t, t + 5),
                  dagor_app.metrics().AvgGoodput(apps::kGetProduct, t, t + 5),
                  topfull_app.metrics().AvgGoodput(apps::kPostCheckout, t, t + 5),
                  topfull_app.metrics().AvgGoodput(apps::kGetProduct, t, t + 5)},
                 0);
  }
  table.Print();

  exp::MaybeExportTimeline(dagor_app, "fig12_dagor");
  exp::MaybeExportTimeline(topfull_app, "fig12_topfull");

  const double dagor_api2 =
      dagor_app.metrics().AvgGoodput(apps::kGetProduct, 30.0, kEndS);
  const double topfull_api2 =
      topfull_app.metrics().AvgGoodput(apps::kGetProduct, 30.0, kEndS);
  std::printf("\nSteady-state API2: TopFull %.0f rps vs DAGOR %.0f rps (%.2fx)\n",
              topfull_api2, dagor_api2, topfull_api2 / std::max(1.0, dagor_api2));
  return 0;
}
