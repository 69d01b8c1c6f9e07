// Figure 11: per-API goodput with business priorities, DAGOR vs TopFull.
//
// APIs 1..4 get descending business priority. Paper: DAGOR starves the
// lower-priority APIs (API 4 worst — TopFull serves 22.45x more of it);
// TopFull still guarantees the high-priority APIs (1.58x on API 1) while
// recovering the starved ones; 2.60x average goodput overall.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"

using namespace topfull;

namespace {

constexpr int kUsers = 3000;
constexpr double kWarmupS = 30.0;
constexpr double kEndS = 150.0;

exp::RunSpec Spec(exp::Variant variant, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 47;
    options.distinct_priorities = true;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(kUsers));
  };
  return spec;
}

}  // namespace

int main() {
  PrintBanner("Figure 11",
              "Online Boutique with business priorities API1 > API2 > API3 > "
              "API4: per-API avg goodput (rps).");
  auto policy = exp::GetPretrainedPolicy();
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(
      {Spec(exp::Variant::kDagor, nullptr),
       Spec(exp::Variant::kTopFull, policy.get())});

  Table table("avg goodput (rps)");
  table.SetHeader({"variant", "API1", "API2", "API3", "API4", "avg(1-4)"});
  auto row = [&](const char* name, const sim::Application& app) {
    std::vector<double> values;
    double sum = 0.0;
    for (sim::ApiId a = 0; a < 4; ++a) {
      const double g = app.metrics().AvgGoodput(a, kWarmupS, kEndS);
      values.push_back(g);
      sum += g;
    }
    values.push_back(sum / 4.0);
    table.AddRow(name, values, 0);
    return values;
  };
  const auto dagor_row = row("DAGOR", results[0].app());
  const auto topfull_row = row("TopFull", results[1].app());
  table.Print();

  std::printf("\nTopFull/DAGOR per API:  ");
  const double paper[] = {1.58, 7.55, 0.0, 22.45};
  for (int a = 0; a < 4; ++a) {
    std::printf("API%d %.2fx%s  ", a + 1, topfull_row[a] / std::max(1.0, dagor_row[a]),
                paper[a] > 0 ? ("(paper " + Fmt(paper[a], 2) + "x)").c_str() : "");
  }
  std::printf("\nAverage: %.2fx (paper: 2.60x)\n",
              topfull_row[4] / std::max(1.0, dagor_row[4]));
  return 0;
}
