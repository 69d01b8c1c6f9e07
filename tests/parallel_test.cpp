// The parallelism/determinism contract: thread-pool mechanics (ordering,
// exception propagation, reentrancy, env sizing) and the bit-identical
// guarantee — PPO rollout batches and RunExecutor sweep tables must not
// change with the worker-pool size.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/online_boutique.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "rl/graph_sim_env.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"

namespace topfull {
namespace {

// --- ThreadPool mechanics ---------------------------------------------------

TEST(ThreadPoolTest, ParallelMapPreservesSubmissionOrder) {
  ThreadPool pool(4);
  // Early tasks sleep longest, so completion order inverts submission
  // order; results must still come back in submission order.
  const std::vector<int> results = pool.ParallelMap(16, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds((16 - i) % 4));
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromParallelMap) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelMap(8, [&completed](std::size_t i) {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ++completed;
      return static_cast<int>(i);
    });
    FAIL() << "expected ParallelMap to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
  // Every other task still ran to completion before the rethrow (no
  // dangling work referencing the caller's stack).
  EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromSubmit) {
  ThreadPool pool(1);  // also covers the inline path
  auto future = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ReentrantParallelMapRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  // Outer tasks occupy every worker, then fan out again on the same pool;
  // the nested maps must run inline on the workers instead of queueing
  // (queueing would deadlock both workers against their own queue).
  const std::vector<int> totals = pool.ParallelMap(4, [&pool](std::size_t outer) {
    EXPECT_TRUE(pool.OnWorkerThread());
    const std::vector<int> inner =
        pool.ParallelMap(3, [](std::size_t i) { return static_cast<int>(i + 1); });
    int sum = 0;
    for (const int v : inner) sum += v;
    return sum + static_cast<int>(outer);
  });
  for (std::size_t outer = 0; outer < totals.size(); ++outer) {
    EXPECT_EQ(totals[outer], 6 + static_cast<int>(outer));
  }
}

TEST(ThreadPoolTest, SizeOneRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<std::thread::id> ids =
      pool.ParallelMap(3, [](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
  EXPECT_FALSE(pool.OnWorkerThread());
}

TEST(ThreadPoolTest, EnvVariableSizesDefaultPool) {
  ASSERT_EQ(setenv("TOPFULL_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::EnvThreads(), 3);
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 3);
  ASSERT_EQ(unsetenv("TOPFULL_THREADS"), 0);
  EXPECT_GE(ThreadPool::EnvThreads(), 1);
}

// Every binary that sizes its pool from TOPFULL_THREADS fails on junk like
// --threads does, rather than running on the default pool.
TEST(ThreadPoolDeathTest, EnvThreadsExitsOnJunk) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* junk : {"abc", "12abc", "2.5", "-1", " 3", "1e12"}) {
    EXPECT_EXIT(
        {
          setenv("TOPFULL_THREADS", junk, /*overwrite=*/1);
          ThreadPool::EnvThreads();
        },
        testing::ExitedWithCode(2), "bad TOPFULL_THREADS '.*': expected a whole number")
        << junk;
  }
  ASSERT_EQ(setenv("TOPFULL_THREADS", "0", /*overwrite=*/1), 0);
  EXPECT_GE(ThreadPool::EnvThreads(), 1);  // 0 is the default, as for --threads
  ASSERT_EQ(unsetenv("TOPFULL_THREADS"), 0);
}

// --- Determinism contract ---------------------------------------------------

std::vector<double> TrainedParams(ThreadPool* pool, bool use_factory) {
  Rng rng(33);
  rl::GaussianPolicy policy(rl::PolicyConfig{}, rng);
  rl::PpoConfig config;
  config.episodes_per_iter = 8;
  config.steps_per_episode = 20;
  rl::PpoTrainer trainer(&policy, config, /*seed=*/77);
  trainer.set_pool(pool);
  if (use_factory) {
    auto make_env = []() -> std::unique_ptr<rl::Env> {
      return std::make_unique<rl::GraphSimEnv>(rl::GraphSimConfig{}, /*base_seed=*/5);
    };
    for (int i = 0; i < 3; ++i) trainer.TrainIteration(make_env);
  } else {
    rl::GraphSimEnv env({}, /*base_seed=*/5);
    for (int i = 0; i < 3; ++i) trainer.TrainIteration(env);
  }
  std::vector<double> params;
  policy.CopyParamsTo(params);
  return params;
}

TEST(ParallelDeterminismTest, PpoTrainingIsPoolSizeInvariant) {
  ThreadPool sequential(1);
  ThreadPool parallel(4);
  const std::vector<double> p1 = TrainedParams(&sequential, /*use_factory=*/true);
  const std::vector<double> p4 = TrainedParams(&parallel, /*use_factory=*/true);
  // Bit-identical parameters after 3 iterations <=> bit-identical sample
  // batches (the update is a deterministic function of the batch).
  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p4[i]) << "param " << i;
}

TEST(ParallelDeterminismTest, FactoryPathMatchesSingleEnvPath) {
  ThreadPool parallel(4);
  const std::vector<double> factory = TrainedParams(&parallel, /*use_factory=*/true);
  const std::vector<double> single = TrainedParams(nullptr, /*use_factory=*/false);
  ASSERT_EQ(factory.size(), single.size());
  for (std::size_t i = 0; i < factory.size(); ++i) {
    EXPECT_EQ(factory[i], single[i]) << "param " << i;
  }
}

TEST(ParallelDeterminismTest, EvaluatePolicyIsPoolSizeInvariant) {
  Rng rng(44);
  rl::GaussianPolicy policy(rl::PolicyConfig{}, rng);
  rl::GraphSimEnv env({}, /*base_seed=*/9);
  auto make_env = []() -> std::unique_ptr<rl::Env> {
    return std::make_unique<rl::GraphSimEnv>(rl::GraphSimConfig{}, /*base_seed=*/9);
  };
  const double sequential = rl::EvaluatePolicy(policy, env, 6, 100, 25);
  ThreadPool pool(4);
  const double parallel = rl::EvaluatePolicy(policy, make_env, 6, 100, 25, &pool);
  EXPECT_EQ(sequential, parallel);
}

std::vector<exp::RunSpec> SmallSweep() {
  std::vector<exp::RunSpec> specs;
  for (const exp::Variant variant :
       {exp::Variant::kNoControl, exp::Variant::kBreakwater}) {
    for (const int users : {600, 1800}) {
      exp::RunSpec spec;
      spec.label = exp::VariantName(variant) + "@" + std::to_string(users);
      spec.duration_s = 8.0;
      spec.variant = variant;
      spec.make_app = [] {
        apps::BoutiqueOptions options;
        options.seed = 23;
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

std::vector<double> SweepTable(ThreadPool& pool) {
  const std::vector<exp::RunResult> results =
      exp::RunExecutor(&pool).Execute(SmallSweep());
  std::vector<double> goodputs;
  for (const auto& r : results) {
    goodputs.push_back(exp::TotalGoodput(r.app(), 2.0, 8.0));
  }
  return goodputs;
}

TEST(ParallelDeterminismTest, RunExecutorSweepIsPoolSizeInvariant) {
  ThreadPool sequential(1);
  ThreadPool parallel(4);
  const std::vector<double> t1 = SweepTable(sequential);
  const std::vector<double> t4 = SweepTable(parallel);
  ASSERT_EQ(t1.size(), 4u);
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t4[i]) << "run " << i;
  // Sanity: the sweep actually served traffic.
  for (const double g : t1) EXPECT_GT(g, 0.0);
}

}  // namespace
}  // namespace topfull
