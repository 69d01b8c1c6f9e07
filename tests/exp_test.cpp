// Tests for the experiment harness: variant attachment, helpers, and the
// application-backed RL environment.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "apps/online_boutique.hpp"
#include "autoscale/hpa.hpp"
#include "exp/harness.hpp"
#include "exp/csv.hpp"
#include "exp/microservice_env.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"

namespace topfull::exp {
namespace {

TEST(HarnessTest, VariantNames) {
  EXPECT_EQ(VariantName(Variant::kTopFull), "TopFull");
  EXPECT_EQ(VariantName(Variant::kDagor), "DAGOR");
  EXPECT_EQ(VariantName(Variant::kTopFullNoCluster), "TopFull(w/o cluster)");
}

TEST(HarnessTest, AttachNoControlInstallsNothing) {
  auto app = apps::MakeOnlineBoutique({});
  Controllers controllers;
  controllers.Attach(Variant::kNoControl, *app, nullptr);
  EXPECT_EQ(controllers.topfull(), nullptr);
  EXPECT_EQ(controllers.dagor(), nullptr);
  EXPECT_EQ(controllers.breakwater(), nullptr);
}

TEST(HarnessTest, AttachMimdCreatesEntryController) {
  auto app = apps::MakeOnlineBoutique({});
  Controllers controllers;
  controllers.Attach(Variant::kTopFullMimd, *app, nullptr);
  ASSERT_NE(controllers.topfull(), nullptr);
  EXPECT_TRUE(controllers.topfull()->config().enable_clustering);
}

TEST(HarnessTest, TopFullBwRunsWithoutAPolicy) {
  // TopFull(BW) runs the AIMD rate controller, so it must neither need nor
  // load the pre-trained PPO policy.
  EXPECT_FALSE(VariantNeedsPolicy(Variant::kTopFullBw));
  EXPECT_TRUE(VariantNeedsPolicy(Variant::kTopFull));
  EXPECT_TRUE(VariantNeedsPolicy(Variant::kTopFullNoCluster));
  auto app = apps::MakeOnlineBoutique({});
  Controllers controllers;
  controllers.Attach(Variant::kTopFullBw, *app, nullptr);
  ASSERT_NE(controllers.topfull(), nullptr);
  workload::TrafficDriver traffic(app.get());
  traffic.AddClosedLoop(UniformUsers(*app), workload::Schedule::Constant(3000));
  app->RunFor(Seconds(10));
  EXPECT_GT(app->metrics().AvgTotalGoodput(), 0.0);
}

TEST(HarnessTest, AttachDagorInstallsOnEveryService) {
  auto app = apps::MakeOnlineBoutique({});
  Controllers controllers;
  controllers.Attach(Variant::kDagor, *app, nullptr);
  ASSERT_NE(controllers.dagor(), nullptr);
}

TEST(HarnessTest, UniformUsersCoversAllApis) {
  auto app = apps::MakeOnlineBoutique({});
  const auto config = UniformUsers(*app);
  EXPECT_EQ(config.mix.weights.size(), static_cast<std::size_t>(app->NumApis()));
}

TEST(HarnessTest, PerApiGoodputRowHasTotal) {
  auto app = apps::MakeOnlineBoutique({});
  app->RunFor(Seconds(3));
  const auto row = PerApiGoodputRow(*app, 0.0);
  EXPECT_EQ(row.size(), static_cast<std::size_t>(app->NumApis()) + 1);
}

TEST(MicroserviceEnvTest, EpisodeLifecycle) {
  MicroserviceEnvConfig config;
  config.factory = [](std::uint64_t seed) {
    apps::BoutiqueOptions options;
    options.seed = seed;
    return apps::MakeOnlineBoutique(options);
  };
  config.api_rate_ranges = {{100, 500}};
  config.steps_per_episode = 5;
  config.warmup = Seconds(2);
  MicroserviceEnv env(std::move(config));

  const auto obs = env.Reset(1);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_GE(obs[0], 0.0);
  EXPECT_LE(obs[0], 2.0);
  for (int t = 0; t < 4; ++t) {
    const auto result = env.Step(0.0);
    EXPECT_FALSE(result.done);
    EXPECT_TRUE(std::isfinite(result.reward));
  }
  EXPECT_TRUE(env.Step(0.0).done);
}

TEST(MicroserviceEnvTest, ResetRebuildsApplication) {
  MicroserviceEnvConfig config;
  config.factory = [](std::uint64_t seed) {
    apps::BoutiqueOptions options;
    options.seed = seed;
    return apps::MakeOnlineBoutique(options);
  };
  config.api_rate_ranges = {{100, 300}};
  config.steps_per_episode = 3;
  config.warmup = Seconds(1);
  MicroserviceEnv env(std::move(config));
  env.Reset(1);
  sim::Application* first = env.app();
  env.Reset(2);
  EXPECT_NE(env.app(), first);
}

TEST(MicroserviceEnvTest, NegativeActionsThrottleAdmission) {
  MicroserviceEnvConfig config;
  config.factory = [](std::uint64_t seed) {
    apps::BoutiqueOptions options;
    options.seed = seed;
    return apps::MakeOnlineBoutique(options);
  };
  // Heavy overload so the controller caps every API quickly.
  config.api_rate_ranges = {{1500, 1600}};
  config.steps_per_episode = 30;
  config.warmup = Seconds(2);
  MicroserviceEnv env(std::move(config));
  env.Reset(3);
  for (int t = 0; t < 10; ++t) env.Step(-0.5);
  const auto& snap = env.app()->metrics().Latest();
  std::uint64_t admitted = 0, offered = 0;
  for (const auto& api : snap.apis) {
    admitted += api.admitted;
    offered += api.offered;
  }
  EXPECT_LT(static_cast<double>(admitted), 0.5 * static_cast<double>(offered));
}

TEST(CsvTest, TimelineExportHasHeaderAndRows) {
  auto app = apps::MakeOnlineBoutique({});
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(100));
  app->RunFor(Seconds(5));
  const std::string path = ::testing::TempDir() + "/timeline.csv";
  ASSERT_TRUE(WriteTimelineCsv(*app, path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("good_postcheckout"), std::string::npos);
  EXPECT_NE(line.find("util_recommendation"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 5);  // one per 1 s window
}

TEST(ExternalActionControllerTest, SharesSlotAcrossClones) {
  auto slot = std::make_shared<double>(0.25);
  ExternalActionController controller(slot);
  auto clone = controller.Clone();
  core::ControlState state;
  EXPECT_DOUBLE_EQ(clone->DecideStep(state), 0.25);
  *slot = -0.4;
  EXPECT_DOUBLE_EQ(controller.DecideStep(state), -0.4);
  EXPECT_DOUBLE_EQ(clone->DecideStep(state), -0.4);
}

/// Per-window counts, p95 latency, utilisation and pod counts at full
/// precision: equal digests mean the two runs evolved identically.
std::string TimelineDigest(const sim::Application& app) {
  std::string out;
  char buf[256];
  for (const sim::Snapshot& snap : app.metrics().Timeline()) {
    std::snprintf(buf, sizeof buf, "t=%.17g\n", snap.t_end_s);
    out += buf;
    for (const sim::ApiWindow& a : snap.apis) {
      std::snprintf(buf, sizeof buf, "o=%llu a=%llu g=%llu p95=%.17g\n",
                    static_cast<unsigned long long>(a.offered),
                    static_cast<unsigned long long>(a.admitted),
                    static_cast<unsigned long long>(a.good), a.latency_p95_ms);
      out += buf;
    }
    for (const sim::ServiceWindow& s : snap.services) {
      std::snprintf(buf, sizeof buf, "u=%.17g pods=%d\n", s.cpu_utilization,
                    s.running_pods);
      out += buf;
    }
  }
  return out;
}

// RunSpec::hpa carries the cluster shape; exp::Run must match a run that
// wires the autoscaler by hand in the order the figure benches used: cluster
// and HPA first, then the controller, then the traffic.
TEST(ExpTest, HpaClusterConfigMatchesHandWiredRun) {
  constexpr double kEndS = 60.0;
  // Small, fast-booting VMs: the surge exhausts the first one and the run
  // depends on every field of the shape (the default is 48 vCPUs, 40 s).
  autoscale::ClusterConfig cluster_config;
  cluster_config.vcpus_per_vm = 24.0;
  cluster_config.initial_vms = 1;
  cluster_config.max_vms = 3;
  cluster_config.vm_startup = Seconds(10);
  const auto make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 67;
    options.probe_failures = true;
    return apps::MakeOnlineBoutique(options);
  };
  const auto add_traffic = [](workload::TrafficDriver& traffic,
                              sim::Application& app) {
    traffic.AddClosedLoop(UniformUsers(app), workload::Schedule::Constant(600)
                                                 .Then(Seconds(10), 4200));
  };

  const auto probe_kills = [](const sim::Application& a) {
    return a.service(a.FindService("recommendation")).ProbeKills();
  };

  // Uncontrolled, recommendation crash-loops (the Fig. 15 failure mode);
  // with a controller, its ticks share timestamps with the HPA's.
  for (const Variant variant : {Variant::kNoControl, Variant::kTopFullBw}) {
    SCOPED_TRACE(VariantName(variant));
    RunSpec spec;
    spec.label = "hpa";
    spec.duration_s = kEndS;
    spec.variant = variant;
    spec.make_app = make_app;
    spec.traffic = add_traffic;
    spec.hpa = cluster_config;
    const RunResult result = exp::Run(spec);

    auto app = make_app();
    autoscale::Cluster cluster(&app->sim(), cluster_config);
    autoscale::HorizontalPodAutoscaler hpa(app.get(), &cluster, {});
    hpa.Start();
    Controllers controllers;
    controllers.Attach(variant, *app, nullptr);
    workload::TrafficDriver traffic(app.get());
    add_traffic(traffic, *app);
    app->RunFor(Seconds(kEndS));

    EXPECT_EQ(TimelineDigest(result.app()), TimelineDigest(*app));
    EXPECT_EQ(probe_kills(result.app()), probe_kills(*app));
    if (variant == Variant::kNoControl) {
      EXPECT_GT(probe_kills(*app), 0);
    }
    // The autoscaler acted: some service ends with more pods than it began.
    const auto& first = app->metrics().Timeline().front();
    const auto& last = app->metrics().Latest();
    int grown = 0;
    for (std::size_t s = 0; s < last.services.size(); ++s) {
      if (last.services[s].running_pods > first.services[s].running_pods) ++grown;
    }
    EXPECT_GT(grown, 0);
  }
}

// LoadOrTrainPolicy: only a missing checkpoint may be trained and written.
struct CountingTrainer {
  int calls = 0;
  std::shared_ptr<rl::GaussianPolicy> operator()() {
    ++calls;
    Rng rng(5);
    return std::make_shared<rl::GaussianPolicy>(rl::PolicyConfig{}, rng);
  }
};

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(ModelCacheTest, MissingCheckpointIsTrainedAndSaved) {
  const std::string path = ::testing::TempDir() + "model_cache_missing.txt";
  std::remove(path.c_str());
  CountingTrainer trainer;
  const auto policy = LoadOrTrainPolicy(path, std::ref(trainer));
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(trainer.calls, 1);
  std::ostringstream saved;
  policy->Save(saved);
  EXPECT_TRUE(FileBytes(path) == saved.str());
  // The second call finds the file and trains nothing.
  const auto again = LoadOrTrainPolicy(path, std::ref(trainer));
  EXPECT_EQ(trainer.calls, 1);
  std::vector<double> a, b;
  policy->CopyParamsTo(a);
  again->CopyParamsTo(b);
  EXPECT_EQ(a, b);
  std::remove(path.c_str());
}

TEST(ModelCacheTest, MalformedCheckpointIsAnErrorNotRetrained) {
  const std::string path = ::testing::TempDir() + "model_cache_malformed.txt";
  const char* const bodies[] = {"", "topfull-policy-v1\n2 2 64 64\n-0.5 0.5\n8835\n0.1\n",
                                "not a checkpoint"};
  for (const char* body : bodies) {
    SCOPED_TRACE(body);
    {
      std::ofstream out(path, std::ios::binary);
      out << body;
    }
    CountingTrainer trainer;
    try {
      LoadOrTrainPolicy(path, std::ref(trainer));
      ADD_FAILURE() << "a malformed checkpoint loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
    EXPECT_EQ(trainer.calls, 0);
    EXPECT_EQ(FileBytes(path), body);  // not overwritten
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace topfull::exp
