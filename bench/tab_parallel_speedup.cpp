// Parallel-executor speedup: wall-clock scaling of (a) a fig09-style
// demand-sweep and (b) PPO rollout collection, vs. worker-pool size.
//
// Both workloads are embarrassingly parallel whole simulations, so on a
// machine with >= 4 cores the 4-thread column should show >= 3x over the
// sequential baseline. The outputs of every configuration are asserted
// bit-identical to the sequential run first — speedup never trades away
// the determinism contract.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "rl/graph_sim_env.hpp"
#include "rl/ppo.hpp"

using namespace topfull;

namespace {

constexpr double kSweepEndS = 30.0;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fig09-style variant x demand matrix on non-RL variants (hermetic: no
/// pre-trained policy needed).
std::vector<exp::RunSpec> SweepSpecs() {
  std::vector<exp::RunSpec> specs;
  for (const exp::Variant variant :
       {exp::Variant::kNoControl, exp::Variant::kBreakwater, exp::Variant::kDagor}) {
    for (const int users : {1200, 2600, 4200}) {
      exp::RunSpec spec;
      spec.label = exp::VariantName(variant) + "@" + std::to_string(users);
      spec.duration_s = kSweepEndS;
      spec.variant = variant;
      spec.make_app = [variant] {
        apps::BoutiqueOptions options;
        options.seed = 23;
        options.distinct_priorities = variant == exp::Variant::kDagor;
        return apps::MakeOnlineBoutique(options);
      };
      spec.traffic = [users](workload::TrafficDriver& traffic, sim::Application& app) {
        traffic.AddClosedLoop(exp::UniformUsers(app),
                              workload::Schedule::Constant(users));
      };
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::vector<double> SweepGoodputs(const std::vector<exp::RunResult>& results) {
  std::vector<double> goodputs;
  goodputs.reserve(results.size());
  for (const auto& r : results) {
    goodputs.push_back(exp::TotalGoodput(r.app(), 10.0, kSweepEndS));
  }
  return goodputs;
}

double TimeSweep(ThreadPool& pool, const std::vector<exp::RunSpec>& specs,
                 std::vector<double>* goodputs) {
  const double start = NowSeconds();
  const std::vector<exp::RunResult> results = exp::RunExecutor(&pool).Execute(specs);
  const double elapsed = NowSeconds() - start;
  *goodputs = SweepGoodputs(results);
  return elapsed;
}

/// Rollout collection over env clones; the PPO update itself is sequential
/// by design, so this times the part the pool accelerates.
double TimeRollouts(ThreadPool& pool, double* reward) {
  rl::PpoConfig config;
  config.episodes_per_iter = 64;
  Rng rng(7);
  rl::GaussianPolicy policy(rl::PolicyConfig{}, rng);
  rl::PpoTrainer trainer(&policy, config, /*seed=*/7);
  trainer.set_pool(&pool);
  auto make_env = []() -> std::unique_ptr<rl::Env> {
    return std::make_unique<rl::GraphSimEnv>(rl::GraphSimConfig{}, /*base_seed=*/11);
  };
  const double start = NowSeconds();
  double sum = 0.0;
  constexpr int kCollections = 20;
  for (int i = 0; i < kCollections; ++i) sum += trainer.CollectRolloutOnly(make_env);
  const double elapsed = NowSeconds() - start;
  *reward = sum / kCollections;
  return elapsed;
}

}  // namespace

int main() {
  PrintBanner("Parallel-executor speedup",
              "Wall-clock speedup of the demand sweep and of PPO rollout "
              "collection vs. worker-pool size.");
  const int hw = ThreadPool::EnvThreads();
  std::printf("hardware threads (TOPFULL_THREADS/hardware_concurrency): %d\n\n", hw);

  std::vector<int> sizes = {1, 2, 4};
  if (hw > 4) sizes.push_back(hw);

  const std::vector<exp::RunSpec> specs = SweepSpecs();
  std::vector<double> reference_goodputs;
  std::vector<double> sweep_seconds;
  double reference_reward = 0.0;
  std::vector<double> rollout_seconds;

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ThreadPool pool(sizes[i]);
    std::vector<double> goodputs;
    sweep_seconds.push_back(TimeSweep(pool, specs, &goodputs));
    double reward = 0.0;
    rollout_seconds.push_back(TimeRollouts(pool, &reward));
    if (i == 0) {
      reference_goodputs = goodputs;
      reference_reward = reward;
    } else if (goodputs != reference_goodputs || reward != reference_reward) {
      // Determinism contract: any pool size must reproduce the sequential
      // outputs bit-for-bit.
      std::fprintf(stderr, "DETERMINISM VIOLATION at %d threads\n", sizes[i]);
      return 1;
    }
  }

  Table table("wall-clock seconds (speedup vs 1 thread)");
  table.SetHeader({"threads", "demand sweep (9 runs)", "PPO rollouts (20x64 eps)"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    table.AddRow({std::to_string(sizes[i]),
                  Fmt(sweep_seconds[i], 2) + " s (" +
                      Fmt(sweep_seconds[0] / sweep_seconds[i], 2) + "x)",
                  Fmt(rollout_seconds[i], 2) + " s (" +
                      Fmt(rollout_seconds[0] / rollout_seconds[i], 2) + "x)"});
  }
  table.Print();
  std::printf(
      "\nAll configurations produced bit-identical sweep tables and rollout\n"
      "rewards. Expect >= 3x at 4 threads on a 4+-core machine; on fewer\n"
      "cores the speedup is bounded by the hardware.\n");
  return 0;
}
