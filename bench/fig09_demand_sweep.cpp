// Figure 9: total goodput vs. user demand on Online Boutique.
//
// Paper result: TopFull and DAGOR stay flat once demand exceeds capacity
// (consistent admission standards), while Breakwater degrades further as
// demand grows (uncorrelated random shedding across tiers compounds).
//
// The variant x demand matrix runs on the shared worker pool (RunExecutor);
// set TOPFULL_THREADS to control the fan-out.
#include <cstdio>
#include <vector>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"

using namespace topfull;

namespace {

constexpr double kWarmupS = 20.0;
constexpr double kEndS = 90.0;

exp::RunSpec MakePoint(exp::Variant variant, const rl::GaussianPolicy* policy,
                       int users) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant) + "@" + std::to_string(users);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [variant] {
    apps::BoutiqueOptions options;
    options.seed = 23;
    // DAGOR carries its per-API business priorities by design (§5).
    options.distinct_priorities = variant == exp::Variant::kDagor;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [users](workload::TrafficDriver& traffic, sim::Application& app) {
    // Same browse/checkout-heavy journey as Fig. 8.
    workload::ClosedLoopConfig config = exp::UniformUsers(app);
    config.mix.weights = {1.5, 1.7, 0.6, 0.6, 0.6};
    traffic.AddClosedLoop(config, workload::Schedule::Constant(users));
  };
  return spec;
}

}  // namespace

int main() {
  PrintBanner("Figure 9",
              "Online Boutique: total goodput (rps) vs. user demand for "
              "Breakwater / DAGOR / TopFull.");
  auto policy = exp::GetPretrainedPolicy();
  const std::vector<int> demands = {1200, 1800, 2600, 3400, 4200, 5000};
  const std::vector<std::pair<exp::Variant, const rl::GaussianPolicy*>> variants = {
      {exp::Variant::kBreakwater, nullptr},
      {exp::Variant::kDagor, nullptr},
      {exp::Variant::kTopFull, policy.get()}};

  std::vector<exp::RunSpec> specs;
  for (const auto& [variant, policy_ptr] : variants) {
    for (const int users : demands) specs.push_back(MakePoint(variant, policy_ptr, users));
  }
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);

  Table table("total goodput (rps) by closed-loop user count");
  std::vector<std::string> header = {"variant"};
  for (const int d : demands) header.push_back(std::to_string(d));
  table.SetHeader(header);

  std::size_t next = 0;
  for (const auto& vp : variants) {
    std::vector<double> row;
    row.reserve(demands.size());
    for (std::size_t d = 0; d < demands.size(); ++d, ++next) {
      row.push_back(exp::TotalGoodput(results[next].app(), kWarmupS, kEndS));
    }
    table.AddRow(exp::VariantName(vp.first), row, 0);
  }
  table.Print();
  std::printf(
      "\nExpected shape: TopFull/DAGOR roughly flat beyond saturation;\n"
      "Breakwater decays as demand rises (multi-tier random drops).\n");
  return 0;
}
