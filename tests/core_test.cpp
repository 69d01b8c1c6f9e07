// Unit tests for the TopFull core: registry, overload detection, clustering
// (Eq. 2), Algorithm 1 semantics, rate controllers, and the end-to-end
// controller behaviour on small deterministic topologies.
#include <gtest/gtest.h>

#include <limits>

#include "core/clustering.hpp"
#include "core/controller.hpp"
#include "core/overload.hpp"
#include "core/rate_controller.hpp"
#include "core/registry.hpp"
#include "workload/generators.hpp"

namespace topfull::core {
namespace {

sim::ServiceConfig Svc(const char* name, double mean_ms, int threads, int pods) {
  sim::ServiceConfig config;
  config.name = name;
  config.mean_service_ms = mean_ms;
  config.service_sigma = 0.0;
  config.threads = threads;
  config.initial_pods = pods;
  return config;
}

/// Fig. 1 topology: API0 -> {A, B}; API1 -> {A}. B is the small service.
std::unique_ptr<sim::Application> Fig1App(int priority0 = 1, int priority1 = 1) {
  auto app = std::make_unique<sim::Application>("fig1", 11);
  const sim::ServiceId a = app->AddService(Svc("A", 4.0, 8, 1));   // 2000 rps
  const sim::ServiceId b = app->AddService(Svc("B", 10.0, 4, 1));  // 400 rps
  sim::ApiSpec api0("api0", priority0);
  api0.AddPath(sim::ExecutionPath{sim::Chain({a, b}), 1.0, {}});
  app->AddApi(std::move(api0));
  sim::ApiSpec api1("api1", priority1);
  api1.AddPath(sim::ExecutionPath{sim::Chain({a}), 1.0, {}});
  app->AddApi(std::move(api1));
  app->Finalize();
  return app;
}

TEST(RegistryTest, MembershipFromPaths) {
  auto app = Fig1App();
  ApiRegistry registry(*app);
  EXPECT_EQ(registry.ServicesOf(0), (std::vector<sim::ServiceId>{0, 1}));
  EXPECT_EQ(registry.ServicesOf(1), (std::vector<sim::ServiceId>{0}));
  EXPECT_EQ(registry.ApisOf(0), (std::vector<sim::ApiId>{0, 1}));
  EXPECT_EQ(registry.ApisOf(1), (std::vector<sim::ApiId>{0}));
  EXPECT_EQ(registry.ApiCount(0), 2);
  EXPECT_EQ(registry.ApiCount(1), 1);
  EXPECT_TRUE(registry.Uses(0, 1));
  EXPECT_FALSE(registry.Uses(1, 1));
}

TEST(OverloadDetectTest, UtilAndQueueDelayThresholds) {
  sim::Snapshot snap;
  snap.services.resize(3);
  snap.services[0].cpu_utilization = 0.99;  // overloaded by util
  snap.services[1].cpu_utilization = 0.50;
  snap.services[1].avg_queue_delay_s = 0.5;  // overloaded by queueing delay
  snap.services[2].cpu_utilization = 0.94;   // just under the default 0.95
  OverloadConfig config;
  EXPECT_EQ(DetectOverloaded(snap, config), (std::vector<sim::ServiceId>{0, 1}));
  config.use_queue_delay = false;
  EXPECT_EQ(DetectOverloaded(snap, config), (std::vector<sim::ServiceId>{0}));
}

// --- Clustering (Eq. 2) ------------------------------------------------------

/// Builds a registry for a synthetic membership map (api -> services).
std::unique_ptr<sim::Application> MembershipApp(
    int num_services, const std::vector<std::vector<sim::ServiceId>>& paths) {
  auto app = std::make_unique<sim::Application>("member", 13);
  for (int s = 0; s < num_services; ++s) {
    app->AddService(Svc(("s" + std::to_string(s)).c_str(), 5.0, 4, 1));
  }
  for (std::size_t a = 0; a < paths.size(); ++a) {
    sim::ApiSpec api("api" + std::to_string(a), 1);
    api.AddPath(sim::ExecutionPath{sim::Chain(paths[a]), 1.0, {}});
    app->AddApi(std::move(api));
  }
  app->Finalize();
  return app;
}

TEST(ClusteringTest, DisjointOverloadsFormSeparateClusters) {
  auto app = MembershipApp(4, {{0, 1}, {2, 3}});
  ApiRegistry registry(*app);
  const auto clusters = BuildClusters(registry, {0, 2});
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].apis, (std::vector<sim::ApiId>{0}));
  EXPECT_EQ(clusters[1].apis, (std::vector<sim::ApiId>{1}));
}

TEST(ClusteringTest, SharedOverloadMergesApis) {
  auto app = MembershipApp(3, {{0, 1}, {1, 2}});
  ApiRegistry registry(*app);
  const auto clusters = BuildClusters(registry, {1});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].apis, (std::vector<sim::ApiId>{0, 1}));
  EXPECT_EQ(clusters[0].overloaded, (std::vector<sim::ServiceId>{1}));
}

TEST(ClusteringTest, TransitiveMergeThroughBridgingApi) {
  // API0 uses {0}, API1 uses {0, 2}, API2 uses {2}: overloads at 0 and 2
  // merge all three APIs even though API0 and API2 share nothing directly
  // (the paper's API1/API2/API3 example in §4.2).
  auto app = MembershipApp(3, {{0}, {0, 2}, {2}});
  ApiRegistry registry(*app);
  const auto clusters = BuildClusters(registry, {0, 2});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].apis, (std::vector<sim::ApiId>{0, 1, 2}));
  EXPECT_EQ(clusters[0].overloaded, (std::vector<sim::ServiceId>{0, 2}));
}

TEST(ClusteringTest, TargetIsOverloadedServiceWithFewestApis) {
  // Service 0 used by 3 APIs, service 1 by 1 API; both overloaded.
  auto app = MembershipApp(2, {{0}, {0}, {0, 1}});
  ApiRegistry registry(*app);
  const auto clusters = BuildClusters(registry, {0, 1});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].target, 1);
  EXPECT_EQ(clusters[0].candidates, (std::vector<sim::ApiId>{2}));
}

TEST(ClusteringTest, OverloadedServiceWithNoApisIsIgnored) {
  auto app = MembershipApp(3, {{0}});
  ApiRegistry registry(*app);
  const auto clusters = BuildClusters(registry, {2});
  EXPECT_TRUE(clusters.empty());
}

TEST(ClusteringTest, NoOverloadsNoClusters) {
  auto app = MembershipApp(2, {{0}, {1}});
  ApiRegistry registry(*app);
  EXPECT_TRUE(BuildClusters(ApiRegistry(*app), {}).empty());
}

// --- Rate controllers --------------------------------------------------------

TEST(MimdControllerTest, ThresholdSwitch) {
  MimdRateController mimd(0.05, 0.01);
  ControlState good{100, 100, 0.5, 1.0};
  ControlState bad{100, 100, 1.5, 1.0};
  EXPECT_DOUBLE_EQ(mimd.DecideStep(good), 0.01);
  EXPECT_DOUBLE_EQ(mimd.DecideStep(bad), -0.05);
}

TEST(AimdControllerTest, AdditiveUpMultiplicativeDown) {
  AimdConfig config;
  config.additive_rps = 50;
  config.beta = 0.4;
  config.target_fraction = 0.8;
  AimdRateController aimd(config);
  // Below target: +50 rps expressed multiplicatively.
  ControlState calm{400, 500, 0.1, 1.0};
  EXPECT_NEAR(aimd.DecideStep(calm), 0.1, 1e-9);
  // Above target: proportional decrease.
  ControlState hot{100, 500, 1.6, 1.0};  // overload = (1.6-0.8)/0.8 = 1.0
  EXPECT_NEAR(aimd.DecideStep(hot), -0.4, 1e-9);
  // Decrease saturates.
  ControlState inferno{0, 500, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(aimd.DecideStep(inferno), -0.5);
}

TEST(RateControllerTest, CloneProducesIndependentInstances) {
  MimdRateController proto(0.1, 0.02);
  auto clone = proto.Clone();
  ControlState bad{0, 100, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(clone->DecideStep(bad), -0.1);
}

// --- TopFullController --------------------------------------------------------

TEST(ControllerTest, UncappedApisAdmitEverything) {
  auto app = Fig1App();
  TopFullController controller(app.get(), std::make_unique<MimdRateController>());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(controller.Admit(0, Seconds(i)));
  EXPECT_FALSE(controller.RateLimit(0).has_value());
}

TEST(ControllerTest, ForcedRateLimitEnforced) {
  auto app = Fig1App();
  TopFullController controller(app.get(), std::make_unique<MimdRateController>());
  controller.ForceRateLimit(0, 100.0);
  ASSERT_TRUE(controller.RateLimit(0).has_value());
  EXPECT_DOUBLE_EQ(*controller.RateLimit(0), 100.0);
  int admitted = 0;
  for (SimTime t = 0; t < Seconds(10); t += Millis(1)) {
    admitted += controller.Admit(0, t) ? 1 : 0;
  }
  // ~100 rps for 10 s (plus the initial burst allowance).
  EXPECT_NEAR(admitted, 1000, 60);
}

TEST(ControllerTest, NonFiniteRateKeepsTheCurrentLimit) {
  auto app = Fig1App();
  TopFullController controller(app.get(), std::make_unique<MimdRateController>());
  const obs::Gauge* gauge = app->metrics_registry().GetGauge(
      "topfull_api_rate_limit_rps", "", {{"api", "api0"}});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // An uncapped API stays uncapped.
  controller.ForceRateLimit(0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(controller.RateLimit(0).has_value());
  EXPECT_EQ(gauge->value(), kInf);
  EXPECT_TRUE(controller.Admit(0, 0));
  // A capped API keeps its limit, its gauge and its admits.
  controller.ForceRateLimit(0, 100.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    controller.ForceRateLimit(0, bad);
    ASSERT_TRUE(controller.RateLimit(0).has_value());
    EXPECT_EQ(*controller.RateLimit(0), 100.0);
    EXPECT_EQ(gauge->value(), 100.0);
  }
  int admitted = 0;
  for (SimTime t = 0; t < Seconds(10); t += Millis(1)) {
    admitted += controller.Admit(0, t) ? 1 : 0;
  }
  EXPECT_NEAR(admitted, 1000, 60);
}

TEST(ControllerTest, SameRateRefillsTheEntryBucket) {
  auto app = Fig1App();
  TopFullConfig config;
  config.min_rate = 0.0;
  config.min_burst = 4.0;
  TopFullController controller(app.get(), std::make_unique<MimdRateController>(),
                               config);
  controller.ForceRateLimit(0, 0.0);  // zero rate: only the burst of 4 admits
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(controller.Admit(0, Seconds(1)));
  EXPECT_FALSE(controller.Admit(0, Seconds(1)));
  // Re-applying the same limit starts a fresh, full bucket.
  controller.ForceRateLimit(0, 0.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(controller.Admit(0, Seconds(1)));
  EXPECT_FALSE(controller.Admit(0, Seconds(1)));
}

TEST(ControllerTest, OverloadTriggersCapOnOffendingApi) {
  auto app = Fig1App();
  TopFullController controller(app.get(), std::make_unique<MimdRateController>());
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200));  // 3x B's capacity
  app->RunFor(Seconds(15));
  ASSERT_TRUE(controller.RateLimit(0).has_value());
  EXPECT_LT(*controller.RateLimit(0), 1200.0);
  // api1 was never implicated (A is not overloaded): stays uncapped.
  EXPECT_FALSE(controller.RateLimit(1).has_value());
}

TEST(ControllerTest, RlControllerConvergesTowardsBottleneckCapacity) {
  auto app = Fig1App();
  // A deterministic "policy" stand-in: MIMD with strong steps acts like the
  // trained policy's direction. This test checks the control loop, not RL.
  TopFullController controller(app.get(),
                               std::make_unique<MimdRateController>(0.2, 0.05));
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200));
  app->RunFor(Seconds(90));
  const double goodput = app->metrics().AvgGoodput(0, 60, 90);
  // B's capacity is 400 rps; the loop should hold most of it.
  EXPECT_GT(goodput, 250.0);
  EXPECT_LT(goodput, 450.0);
}

TEST(ControllerTest, RecoveryRestoresRateAfterOverloadEnds) {
  auto app = Fig1App();
  TopFullController controller(app.get(),
                               std::make_unique<MimdRateController>(0.2, 0.10));
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  // Overload B for 40 s, then drop to a sustainable rate.
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200).Then(Seconds(40), 200));
  app->RunFor(Seconds(40));
  ASSERT_TRUE(controller.RateLimit(0).has_value());
  app->RunFor(Seconds(120));
  // The recovery controller kept raising the limit well above the demand.
  EXPECT_GT(*controller.RateLimit(0), 220.0);
  EXPECT_NEAR(app->metrics().AvgGoodput(0, 130, 160), 200.0, 30.0);
}

TEST(ControllerTest, PriorityAwareAdjustHitsLowestPriorityFirst) {
  // Two APIs on one overloaded service with distinct priorities: a
  // negative Algorithm-1 action must move only the lower-priority API.
  auto app = std::make_unique<sim::Application>("prio", 19);
  const sim::ServiceId a = app->AddService(Svc("A", 10.0, 4, 1));  // 400 rps
  sim::ApiSpec hi("hi", 1);
  hi.AddPath(sim::ExecutionPath{sim::Chain({a}), 1.0, {}});
  app->AddApi(std::move(hi));
  sim::ApiSpec lo("lo", 2);
  lo.AddPath(sim::ExecutionPath{sim::Chain({a}), 1.0, {}});
  app->AddApi(std::move(lo));
  app->Finalize();

  TopFullController controller(app.get(),
                               std::make_unique<MimdRateController>(0.2, 0.02));
  controller.ForceRateLimit(0, 1000.0);
  controller.ForceRateLimit(1, 1000.0);
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(800));
  traffic.AddOpenLoop(1, workload::Schedule::Constant(800));  // A overloads
  // Run a few control ticks: decreases land on the low-priority API only.
  app->RunFor(Seconds(8));
  ASSERT_TRUE(controller.RateLimit(0).has_value());
  ASSERT_TRUE(controller.RateLimit(1).has_value());
  EXPECT_LT(*controller.RateLimit(1), 1000.0);
  EXPECT_GE(*controller.RateLimit(0), *controller.RateLimit(1));
}

TEST(ControllerTest, StateOfAggregatesCandidates) {
  auto app = Fig1App();
  TopFullController controller(app.get(), std::make_unique<MimdRateController>());
  controller.ForceRateLimit(0, 100.0);
  controller.ForceRateLimit(1, 300.0);
  const ControlState state = controller.StateOf({0, 1});
  EXPECT_DOUBLE_EQ(state.rate_limit, 400.0);
  EXPECT_DOUBLE_EQ(state.slo_s, 1.0);
}

TEST(ControllerTest, LatencyFeatureReadsMatchingWindowPercentile) {
  const auto check = [](LatencyFeature feature) {
    auto app = Fig1App();
    workload::TrafficDriver traffic(app.get());
    // Poisson arrivals near B's 400 rps capacity queue up unevenly, so the
    // window's p50 < p95 < p99 and each feature selects a distinct value.
    traffic.AddOpenLoop(0, workload::Schedule::Constant(380));
    app->RunFor(Seconds(5));
    TopFullConfig config;
    config.latency_feature = feature;
    TopFullController controller(app.get(), std::make_unique<MimdRateController>(),
                                 config);
    const sim::ApiWindow& w = app->metrics().Latest().apis[0];
    EXPECT_LT(w.latency_p50_ms, w.latency_p95_ms);
    EXPECT_LT(w.latency_p95_ms, w.latency_p99_ms);
    const double expected_ms = feature == LatencyFeature::kP50   ? w.latency_p50_ms
                               : feature == LatencyFeature::kP95 ? w.latency_p95_ms
                                                                 : w.latency_p99_ms;
    EXPECT_DOUBLE_EQ(controller.StateOf({0}).latency_s, expected_ms / 1000.0);
  };
  check(LatencyFeature::kP50);
  check(LatencyFeature::kP95);
  check(LatencyFeature::kP99);
  EXPECT_EQ(TopFullConfig{}.latency_feature, LatencyFeature::kP95);
}

TEST(ControllerTest, SequentialAblationControlsOneClusterPerTick) {
  // Two independent bottlenecks: with clustering disabled only one cluster
  // is acted on per tick, so after exactly one tick under double overload
  // only one API got capped.
  auto app = std::make_unique<sim::Application>("two-bottlenecks", 21);
  const sim::ServiceId s0 = app->AddService(Svc("X", 10.0, 4, 1));  // 400 rps
  const sim::ServiceId s1 = app->AddService(Svc("Y", 10.0, 4, 1));  // 400 rps
  sim::ApiSpec api0("a0", 1);
  api0.AddPath(sim::ExecutionPath{sim::Chain({s0}), 1.0, {}});
  app->AddApi(std::move(api0));
  sim::ApiSpec api1("a1", 1);
  api1.AddPath(sim::ExecutionPath{sim::Chain({s1}), 1.0, {}});
  app->AddApi(std::move(api1));
  app->Finalize();

  TopFullConfig config;
  config.enable_clustering = false;
  TopFullController controller(app.get(),
                               std::make_unique<MimdRateController>(0.2, 0.02), config);
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200));
  traffic.AddOpenLoop(1, workload::Schedule::Constant(1200));
  // Exactly one controller tick fires (t=1 s, seeing the overloaded
  // [0, 1) window): only one of the two independent clusters is handled.
  app->RunFor(Millis(1500));
  const int capped = (controller.RateLimit(0) ? 1 : 0) + (controller.RateLimit(1) ? 1 : 0);
  EXPECT_EQ(capped, 1);
  app->RunFor(Seconds(2));
  EXPECT_TRUE(controller.RateLimit(0).has_value());
  EXPECT_TRUE(controller.RateLimit(1).has_value());
}

TEST(ControllerTest, DecisionsCounterAdvances) {
  auto app = Fig1App();
  TopFullController controller(app.get(), std::make_unique<MimdRateController>());
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200));
  app->RunFor(Seconds(10));
  EXPECT_GT(controller.Decisions(), 0u);
}

// --- ClusterTracker (§4.2 re-clustering dynamics) ----------------------------

TEST(ClusterTrackerTest, DetectsMergeAndSplit) {
  // Two independent clusters {api0, api2} (via service 0) and
  // {api1, api3} (via service 1); overloading service 2 — shared by api2
  // and api3 — bridges them (Eq. 2 transitivity), then it splits back.
  auto app = MembershipApp(3, {{0}, {1}, {0, 2}, {1, 2}});
  ApiRegistry registry(*app);
  ClusterTracker tracker(app->NumApis());
  tracker.Record(1.0, BuildClusters(registry, {0, 1}));  // two clusters
  EXPECT_EQ(tracker.History().back().clusters, 2);
  tracker.Record(2.0, BuildClusters(registry, {0, 1, 2}));  // api2 bridges
  EXPECT_EQ(tracker.History().back().clusters, 1);
  EXPECT_EQ(tracker.History().back().merges, 1);
  EXPECT_EQ(tracker.History().back().splits, 0);
  tracker.Record(3.0, BuildClusters(registry, {0, 1}));  // bridge resolved
  EXPECT_EQ(tracker.History().back().clusters, 2);
  EXPECT_EQ(tracker.History().back().splits, 1);
  EXPECT_EQ(tracker.TotalMerges(), 1);
  EXPECT_EQ(tracker.TotalSplits(), 1);
}

TEST(ClusterTrackerTest, NoEventsOnStableClustering) {
  auto app = MembershipApp(2, {{0}, {1}});
  ApiRegistry registry(*app);
  ClusterTracker tracker(app->NumApis());
  for (int t = 0; t < 5; ++t) tracker.Record(t, BuildClusters(registry, {0, 1}));
  EXPECT_EQ(tracker.TotalMerges(), 0);
  EXPECT_EQ(tracker.TotalSplits(), 0);
  EXPECT_EQ(tracker.History().size(), 5u);
}

TEST(ControllerTest, HysteresisKeepsManagedServiceFlagged) {
  // With the two-threshold detector, a service that crossed the entry
  // threshold stays in the overloaded set while its utilisation sits
  // between exit and entry — visible through the cluster tracker.
  auto app = Fig1App();
  TopFullConfig config;
  config.overload.util_exit_threshold = 0.2;  // very sticky
  TopFullController controller(app.get(),
                               std::make_unique<MimdRateController>(0.2, 0.02),
                               config);
  ClusterTracker tracker(app->NumApis());
  controller.SetClusterTracker(&tracker);
  controller.Start();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200));
  app->RunFor(Seconds(40));
  // Once flagged, service B (util ~0.9 under control, > exit 0.2) never
  // leaves the overloaded set: after the first flagged tick, every tick
  // reports at least one cluster.
  bool seen = false;
  int unflagged_after_seen = 0;
  for (const auto& snap : tracker.History()) {
    if (snap.clusters > 0) seen = true;
    else if (seen) ++unflagged_after_seen;
  }
  EXPECT_TRUE(seen);
  EXPECT_EQ(unflagged_after_seen, 0);
}

}  // namespace
}  // namespace topfull::core
