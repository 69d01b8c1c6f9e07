// Figure 8: per-API and total goodput under overload on Online Boutique.
//
// Paper setup: 2600 Locust users (1 rps each) overload the application; all
// APIs share one business priority. Compared: no control, Breakwater,
// DAGOR, TopFull. Paper result: TopFull 1.82x DAGOR and 2.26x Breakwater on
// total average goodput.
//
// All variant x seed runs execute concurrently on the shared worker pool.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"

using namespace topfull;

namespace {

constexpr int kUsers = 4200;
constexpr double kWarmupS = 30.0;
constexpr double kEndS = 150.0;
constexpr std::uint64_t kSeeds[] = {17, 18, 19};

/// One run of `variant` with `seed`.
exp::RunSpec MakeRun(exp::Variant variant, const rl::GaussianPolicy* policy,
                     std::uint64_t seed) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant) + "/seed" + std::to_string(seed);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  spec.make_app = [variant, seed] {
    apps::BoutiqueOptions options;
    options.seed = seed;
    // The paper's DAGOR implementation always assigns a pre-determined
    // business priority per API type (§5); Breakwater has no priorities and
    // TopFull maximises total goodput, so those run with equal priorities.
    options.distinct_priorities = variant == exp::Variant::kDagor;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    workload::ClosedLoopConfig users = exp::UniformUsers(app);
    users.mix.weights = {1.0, 1.2, 0.9, 0.9, 1.0};
    traffic.AddClosedLoop(users, workload::Schedule::Constant(kUsers));
  };
  return spec;
}

/// Reduces one variant's three seed runs into a table row; returns the mean
/// total goodput.
double ReduceVariant(exp::Variant variant,
                     const std::vector<exp::RunResult>& results, std::size_t first,
                     Table& table) {
  std::vector<std::vector<double>> runs;
  for (std::size_t s = 0; s < std::size(kSeeds); ++s) {
    runs.push_back(exp::PerApiGoodputRow(results[first + s].app(), kWarmupS, kEndS));
  }
  std::vector<std::string> row{exp::VariantName(variant)};
  StreamingStats total;
  for (std::size_t col = 0; col < runs[0].size(); ++col) {
    StreamingStats stats;
    for (const auto& run : runs) stats.Add(run[col]);
    if (col + 1 == runs[0].size()) {
      total = stats;
      row.push_back(Fmt(stats.mean(), 0) + " +/- " + Fmt(stats.stddev(), 0));
    } else {
      row.push_back(Fmt(stats.mean(), 0));
    }
  }
  table.AddRow(std::move(row));
  return total.mean();
}

}  // namespace

int main() {
  PrintBanner("Figure 8",
              "Online Boutique, 2600 closed-loop users: average goodput per "
              "API and total (rps) under overload.");
  auto policy = exp::GetPretrainedPolicy();

  // WISP is discussed in the paper's related work (§7) but not measured;
  // included here as an extra baseline.
  const std::vector<std::pair<exp::Variant, const rl::GaussianPolicy*>> variants = {
      {exp::Variant::kNoControl, nullptr}, {exp::Variant::kBreakwater, nullptr},
      {exp::Variant::kDagor, nullptr},     {exp::Variant::kWisp, nullptr},
      {exp::Variant::kTopFull, policy.get()}};
  std::vector<exp::RunSpec> specs;
  for (const auto& vp : variants) {
    for (const std::uint64_t seed : kSeeds) specs.push_back(MakeRun(vp.first, vp.second, seed));
  }
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);

  Table table("avg goodput (rps) over steady overload; mean of 3 seeds");
  table.SetHeader({"variant", "API1 postcheckout", "API2 getproduct",
                   "API3 getcart", "API4 postcart", "API5 emptycart", "total"});
  std::vector<double> totals;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    totals.push_back(
        ReduceVariant(variants[v].first, results, v * std::size(kSeeds), table));
  }
  table.Print();

  const double none = totals[0], breakwater = totals[1], dagor = totals[2],
               wisp = totals[3], topfull = totals[4];
  std::printf("\nTopFull vs DAGOR:      %.2fx   (paper: 1.82x)\n", topfull / dagor);
  std::printf("TopFull vs Breakwater: %.2fx   (paper: 2.26x)\n", topfull / breakwater);
  std::printf("TopFull vs WISP:       %.2fx   (not in paper)\n", topfull / wisp);
  std::printf("TopFull vs no control: %.2fx\n", topfull / none);
  return 0;
}
