#include "exp/model_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "rl/graph_sim_env.hpp"

namespace topfull::exp {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

}  // namespace

std::string ModelDir() {
  const std::string dir = std::string(TOPFULL_SOURCE_DIR) + "/models";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

int PretrainEpisodes() { return EnvInt("TOPFULL_PRETRAIN_EPISODES", 16000); }
int FinetuneEpisodes() { return EnvInt("TOPFULL_FINETUNE_EPISODES", 160); }

std::shared_ptr<rl::GaussianPolicy> TrainBasePolicy(int episodes, std::uint64_t seed,
                                                    rl::TrainResult* result_out) {
  Rng init_rng(seed);
  auto policy = std::make_shared<rl::GaussianPolicy>(rl::PolicyConfig{}, init_rng);
  // Env factories: rollout and validation episodes run concurrently on
  // per-worker env clones (identical batches at any TOPFULL_THREADS).
  auto make_env = [seed]() -> std::unique_ptr<rl::Env> {
    return std::make_unique<rl::GraphSimEnv>(rl::GraphSimConfig{}, /*base_seed=*/seed);
  };
  rl::PpoTrainer trainer(policy.get(), rl::PpoConfig{}, seed ^ 0xBEEF);
  // Fixed validation scenarios (paper: "validating the checkpointed RL
  // models on a fixed set of scenarios in the simulator").
  auto make_validation_env = [seed]() -> std::unique_ptr<rl::Env> {
    return std::make_unique<rl::GraphSimEnv>(rl::GraphSimConfig{},
                                             /*base_seed=*/seed ^ 0x5A5A5A5A);
  };
  auto validate = [&make_validation_env](rl::GaussianPolicy& p) {
    return rl::EvaluatePolicy(p, make_validation_env, /*episodes=*/16,
                              /*seed0=*/9000, /*steps_per_episode=*/50);
  };
  const rl::TrainResult result = trainer.Train(make_env, episodes, validate,
                                               /*checkpoint_every=*/400);
  if (result_out != nullptr) *result_out = result;
  return policy;
}

std::shared_ptr<rl::GaussianPolicy> LoadOrTrainPolicy(
    const std::string& path, const std::function<std::shared_ptr<rl::GaussianPolicy>()>& train) {
  // A path whose status cannot be read counts as present: only a file that
  // is certainly absent may be trained and written.
  std::error_code ec;
  if (std::filesystem::exists(path, ec) || ec) {
    Rng rng(1);
    auto policy = std::make_shared<rl::GaussianPolicy>(rl::PolicyConfig{}, rng);
    if (!policy->LoadFile(path)) {
      throw std::runtime_error("[model-cache] " + path +
                               " is not a readable policy checkpoint; fix or delete it "
                               "(nothing was trained or written)");
    }
    return policy;
  }
  auto policy = train();
  if (policy->SaveFile(path)) {
    std::fprintf(stderr, "[model-cache] saved %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[model-cache] could not write %s\n", path.c_str());
  }
  return policy;
}

std::shared_ptr<rl::GaussianPolicy> GetPretrainedPolicy() {
  return LoadOrTrainPolicy(ModelDir() + "/base_policy.txt", [] {
    const int episodes = PretrainEpisodes();
    std::fprintf(stderr,
                 "[model-cache] training base policy on the graph simulator "
                 "(%d episodes; set TOPFULL_PRETRAIN_EPISODES to change)...\n",
                 episodes);
    return TrainBasePolicy(episodes);
  });
}

}  // namespace topfull::exp
