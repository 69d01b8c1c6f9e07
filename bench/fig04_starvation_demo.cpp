// Figure 4 (§2 motivation): concurrent per-microservice load control causes
// starvation.
//
// Paper setup: Online Boutique; the load of Get Product and Post Checkout is
// increased so that Recommendation and Checkout overload (Fig. 3). DAGOR's
// per-microservice control lets admitted Get Product requests die at
// Recommendation after consuming ProductCatalog capacity; TopFull's
// API-wise entry control serves ~1.9x more Get Product at the same Post
// Checkout goodput.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"

using namespace topfull;

namespace {

constexpr double kSurgeStartS = 20.0;
constexpr double kEndS = 140.0;

exp::RunSpec Spec(exp::Variant variant, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 31;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    // Background load on every API; the surge hits getproduct + postcheckout.
    for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
      traffic.AddOpenLoop(a, workload::Schedule::Constant(120));
    }
    traffic.AddOpenLoop(apps::kGetProduct,
                        workload::Schedule::Constant(0).Then(Seconds(kSurgeStartS), 1400));
    traffic.AddOpenLoop(apps::kPostCheckout,
                        workload::Schedule::Constant(0).Then(Seconds(kSurgeStartS), 700));
  };
  return spec;
}

}  // namespace

int main() {
  PrintBanner("Figure 4 (+ Fig. 3 scenario)",
              "Online Boutique: Get Product + Post Checkout surge. DAGOR "
              "starves Get Product; TopFull avoids the waste.");
  auto policy = exp::GetPretrainedPolicy();

  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(
      {Spec(exp::Variant::kDagor, nullptr),
       Spec(exp::Variant::kTopFull, policy.get())});
  const sim::Application& dagor_app = results[0].app();
  const sim::Application& topfull_app = results[1].app();

  Table timeline("goodput timeline (rps, 10 s bins after surge)");
  timeline.SetHeader({"t(s)", "DAGOR getproduct", "DAGOR postcheckout",
                      "TopFull getproduct", "TopFull postcheckout"});
  for (double t = kSurgeStartS; t + 10.0 <= kEndS; t += 10.0) {
    timeline.AddRow(
        Fmt(t + 10.0, 0),
        {dagor_app.metrics().AvgGoodput(apps::kGetProduct, t, t + 10),
         dagor_app.metrics().AvgGoodput(apps::kPostCheckout, t, t + 10),
         topfull_app.metrics().AvgGoodput(apps::kGetProduct, t, t + 10),
         topfull_app.metrics().AvgGoodput(apps::kPostCheckout, t, t + 10)},
        0);
  }
  timeline.Print();

  const double from = kSurgeStartS + 20.0;
  const double dagor_gp =
      dagor_app.metrics().AvgGoodput(apps::kGetProduct, from, kEndS);
  const double topfull_gp =
      topfull_app.metrics().AvgGoodput(apps::kGetProduct, from, kEndS);
  const double dagor_pc =
      dagor_app.metrics().AvgGoodput(apps::kPostCheckout, from, kEndS);
  const double topfull_pc =
      topfull_app.metrics().AvgGoodput(apps::kPostCheckout, from, kEndS);
  std::printf("\nGet Product:   TopFull %.0f rps vs DAGOR %.0f rps -> %.2fx "
              "(paper: ~1.9x)\n",
              topfull_gp, dagor_gp, topfull_gp / dagor_gp);
  std::printf("Post Checkout: TopFull %.0f rps vs DAGOR %.0f rps -> %.2fx "
              "(paper: ~1x, same amount)\n",
              topfull_pc, dagor_pc, topfull_pc / dagor_pc);
  return 0;
}
