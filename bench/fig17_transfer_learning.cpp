// Figure 17 (+ §6.4 "Performance gain of transfer learning"): average
// goodput of different RL models on the Train Ticket surge scenario.
//
// Models: the pre-trained base (graph simulator only), Transfer-TT (base
// fine-tuned on Train Ticket), Transfer-OB (base fine-tuned on Online
// Boutique), plus the autoscaler-free no-control floor for reference.
// Paper: the transfer-learned model serves 8-9 % more than the base; the
// base alone already beats the standalone autoscaler (939 vs 829 rps).
//
// Fine-tuned models are cached under models/; the first run performs the
// specialisation (TOPFULL_FINETUNE_EPISODES overrides the episode count).
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/microservice_env.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr double kSurgeS = 40.0;
constexpr double kEndS = 240.0;

std::shared_ptr<rl::GaussianPolicy> FineTune(
    const std::string& cache_name,
    std::function<std::unique_ptr<sim::Application>(std::uint64_t)> factory,
    std::vector<std::pair<double, double>> rate_ranges,
    const rl::GaussianPolicy& base) {
  if (auto cached = exp::LoadCachedPolicy(cache_name)) return cached;
  const int episodes = exp::FinetuneEpisodes();
  std::fprintf(stderr, "[fig17] fine-tuning %s for %d episodes...\n",
               cache_name.c_str(), episodes);
  Rng rng(99);
  auto policy = std::make_shared<rl::GaussianPolicy>(rl::PolicyConfig{}, rng);
  std::vector<double> params;
  base.CopyParamsTo(params);
  policy->SetParams(params);  // start from the pre-trained base (Sim2real)

  exp::MicroserviceEnvConfig env_config;
  env_config.factory = std::move(factory);
  env_config.api_rate_ranges = std::move(rate_ranges);
  exp::MicroserviceEnv env(std::move(env_config));

  rl::PpoConfig ppo;
  ppo.episodes_per_iter = 4;  // app episodes are costly; smaller batches
  ppo.lr = 1e-5;              // conservative: specialisation, not retraining
  ppo.sgd_iters = 4;
  rl::PpoTrainer trainer(policy.get(), ppo, 0x71707170);
  // Checkpoint selection on a fixed validation scenario set keeps the
  // fine-tuned model from drifting below the base policy.
  auto validate = [&env](rl::GaussianPolicy& p) {
    return rl::EvaluatePolicy(p, env, /*episodes=*/12, /*seed0=*/777,
                              /*steps_per_episode=*/50);
  };
  trainer.Train(env, episodes, validate, /*checkpoint_every=*/20);
  exp::SaveCachedPolicy(*policy, cache_name);
  return policy;
}

/// The surge run; a null `policy` is the autoscaler alone.
exp::RunSpec SurgeSpec(const std::string& label, const rl::GaussianPolicy* policy) {
  // Same scenario as Fig. 14: capacity-capped cluster, pods that crash-loop
  // under sustained queueing.
  exp::RunSpec spec;
  spec.label = label;
  spec.duration_s = kEndS;
  spec.variant = policy != nullptr ? exp::Variant::kTopFull : exp::Variant::kNoControl;
  spec.policy = policy;
  spec.make_app = [] {
    apps::TrainTicketOptions options;
    options.seed = 79;
    options.probe_failures = true;
    return apps::MakeTrainTicket(options);
  };
  autoscale::ClusterConfig cluster;
  cluster.vcpus_per_vm = 36.0;
  cluster.initial_vms = 3;
  cluster.max_vms = 3;
  cluster.vm_startup = Seconds(60);
  spec.hpa = cluster;
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(700).Then(Seconds(kSurgeS), 4200));
  };
  return spec;
}

}  // namespace

int topfull::bench::Fig17TransferLearning(const BenchArgs&) {
  PrintBanner("Figure 17",
              "Train Ticket surge with HPA: avg total goodput of base vs "
              "transfer-learned RL models.");
  auto base = exp::GetPretrainedPolicy();

  auto transfer_tt = FineTune(
      "transfer_tt",
      [](std::uint64_t seed) {
        apps::TrainTicketOptions options;
        options.seed = seed;
        return apps::MakeTrainTicket(options);
      },
      {{60, 500}, {40, 350}, {80, 600}, {80, 600}, {60, 500}, {80, 600}}, *base);
  auto transfer_ob = FineTune(
      "transfer_ob",
      [](std::uint64_t seed) {
        apps::BoutiqueOptions options;
        options.seed = seed;
        return apps::MakeOnlineBoutique(options);
      },
      {{100, 700}, {150, 1200}, {100, 900}, {100, 900}, {100, 900}}, *base);

  Table table("avg total goodput during surge (rps)");
  table.SetHeader({"model", "goodput", "vs autoscaler"});
  struct Row {
    const char* name;
    const rl::GaussianPolicy* policy;
  };
  const Row rows[] = {Row{"autoscaler only", nullptr},
                      Row{"base (simulator only)", base.get()},
                      Row{"Transfer-OB", transfer_ob.get()},
                      Row{"Transfer-TT", transfer_tt.get()}};
  std::vector<exp::RunSpec> specs;
  for (const Row& row : rows) specs.push_back(SurgeSpec(row.name, row.policy));
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);
  const double solo = exp::TotalGoodput(results[0].app(), kSurgeS, kEndS);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double g = exp::TotalGoodput(results[i].app(), kSurgeS, kEndS);
    table.AddRow({rows[i].name, Fmt(g, 0), Fmt(g / solo, 2) + "x"});
  }
  table.Print();
  std::printf("\nPaper: base 1.13x autoscaler (939 vs 829 rps); Transfer-TT "
              "8-9%% above base; Transfer-OB between base and Transfer-TT.\n");
  return 0;
}
