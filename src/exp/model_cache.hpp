// Pre-trained / fine-tuned policy cache.
//
// The paper pre-trains the PPO policy on the graph simulator (48 000
// episodes) and fine-tunes per application (800 episodes). Bench binaries
// share trained policies through text checkpoints under <repo>/models/;
// the first bench that needs a model trains and caches it. Episode counts
// are reduced by default so the whole suite runs in minutes — override with
// the TOPFULL_PRETRAIN_EPISODES / TOPFULL_FINETUNE_EPISODES environment
// variables for paper-scale training.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "rl/policy.hpp"
#include "rl/ppo.hpp"

namespace topfull::exp {

/// Directory used for cached checkpoints (<repo>/models).
std::string ModelDir();

/// Default pre-training episode count (env-overridable).
int PretrainEpisodes();
/// Default fine-tuning episode count (env-overridable).
int FinetuneEpisodes();

/// The policy checkpoint at `path`, or, only when no file is there, the
/// one `train` makes, which is then saved to `path`. A file that is present
/// but does not load (rl::GaussianPolicy's checkpoint grammar) throws
/// std::runtime_error naming the path: nothing is trained and nothing is
/// written, so a loader fault cannot silently replace a committed model.
std::shared_ptr<rl::GaussianPolicy> LoadOrTrainPolicy(
    const std::string& path, const std::function<std::shared_ptr<rl::GaussianPolicy>()>& train);

/// Returns the shared pre-trained base policy: LoadOrTrainPolicy on
/// models/base_policy.txt, training on GraphSimEnv (with validation-based
/// checkpoint selection) when the file is missing.
std::shared_ptr<rl::GaussianPolicy> GetPretrainedPolicy();

/// Trains a fresh policy on GraphSimEnv for `episodes` episodes (no cache).
std::shared_ptr<rl::GaussianPolicy> TrainBasePolicy(int episodes,
                                                    std::uint64_t seed = 1234,
                                                    rl::TrainResult* result = nullptr);

}  // namespace topfull::exp
