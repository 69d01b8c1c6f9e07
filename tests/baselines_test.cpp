// Unit tests for the DAGOR and Breakwater baseline implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/breakwater.hpp"
#include "common/rng.hpp"
#include "baselines/dagor.hpp"
#include "baselines/wisp.hpp"
#include "recording_sink.hpp"
#include "workload/generators.hpp"

namespace topfull::baselines {
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

std::unique_ptr<sim::Application> SmallApp(int priority0 = 1, int priority1 = 2) {
  auto app = std::make_unique<sim::Application>("bl", 31);
  const sim::ServiceId a = app->AddService(Svc("A", 5.0, 4, 1));  // 800 rps
  sim::ApiSpec api0("hi", priority0);
  api0.AddPath(sim::ExecutionPath{sim::Chain({a}), 1.0, {}});
  app->AddApi(std::move(api0));
  sim::ApiSpec api1("lo", priority1);
  api1.AddPath(sim::ExecutionPath{sim::Chain({a}), 1.0, {}});
  app->AddApi(std::move(api1));
  app->Finalize();
  return app;
}

// --- DAGOR -------------------------------------------------------------------

TEST(DagorTest, FreshPodsAdmitEverything) {
  auto app = SmallApp();
  DagorAdmission dagor(app.get());
  sim::RequestInfo info;
  info.business_priority = 7;
  info.user_priority = 127;
  EXPECT_TRUE(dagor.Admit(info, 0, 0, 0));
}

TEST(DagorTest, ThresholdOrdersByCompoundPriority) {
  auto app = SmallApp();
  DagorAdmission dagor(app.get());
  // Manually run enough traffic through one pod so Update() sets a
  // threshold, then verify ordering semantics around it.
  sim::RequestInfo info;
  for (int i = 0; i < 1000; ++i) {
    info.business_priority = i % 4;
    info.user_priority = i % 128;
    dagor.Admit(info, 0, 0, 0);
  }
  // Saturate the pod so it reports overload (head-of-line wait).
  sim::RecordingSink rec(&app->sim());
  sim::Pod& pod = app->service(0).pod(0);
  pod.SetDoneSink(rec.sink());
  for (std::uint32_t i = 0; i < 50; ++i) pod.Enqueue(Millis(100), i);
  app->sim().RunUntil(Millis(200));  // HoL wait grows past 20 ms
  dagor.Update();
  const int threshold = dagor.Threshold(0, 0);
  EXPECT_LT(threshold, 4 * 128 - 1);  // shed something
  sim::RequestInfo high;  // best possible priority
  high.business_priority = 0;
  high.user_priority = 0;
  EXPECT_TRUE(dagor.Admit(high, 0, 0, Millis(300)));
  sim::RequestInfo low;
  low.business_priority = 3;
  low.user_priority = 127;
  EXPECT_EQ(dagor.Admit(low, 0, 0, Millis(300)), 3 * 128 + 127 <= threshold);
}

TEST(DagorTest, IdlePodReopensFully) {
  auto app = SmallApp();
  DagorAdmission dagor(app.get());
  sim::RequestInfo info;
  dagor.Admit(info, 0, 0, 0);  // create state
  dagor.Update();              // pod idle: threshold -> max
  sim::RequestInfo low;
  low.business_priority = 7;
  low.user_priority = 127;
  EXPECT_TRUE(dagor.Admit(low, 0, 0, 0));
}

TEST(DagorTest, EndToEndShedsUnderOverloadAndRecovers) {
  auto app = SmallApp();
  DagorAdmission dagor(app.get());
  dagor.Install();
  workload::TrafficDriver traffic(app.get());
  // 3x capacity, then calm.
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200).Then(Seconds(40), 200));
  traffic.AddOpenLoop(1, workload::Schedule::Constant(1200).Then(Seconds(40), 200));
  app->RunFor(Seconds(40));
  const auto& totals = app->metrics().Totals();
  EXPECT_GT(totals[0].rejected_service + totals[1].rejected_service, 10000u);
  // Goodput stays near capacity under control.
  EXPECT_GT(app->metrics().AvgTotalGoodput(20, 40), 500.0);
  app->RunFor(Seconds(40));
  // After the overload ends, (almost) everything is admitted again.
  EXPECT_NEAR(app->metrics().AvgTotalGoodput(60, 80), 400.0, 40.0);
}

TEST(DagorTest, BusinessPriorityProtectsHighPriorityApi) {
  auto app = SmallApp(/*priority0=*/1, /*priority1=*/5);
  DagorAdmission dagor(app.get());
  dagor.Install();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(600));
  traffic.AddOpenLoop(1, workload::Schedule::Constant(600));
  app->RunFor(Seconds(60));
  const double hi = app->metrics().AvgGoodput(0, 30, 60);
  const double lo = app->metrics().AvgGoodput(1, 30, 60);
  EXPECT_GT(hi, 450.0);  // ~all of the high-priority API's demand
  EXPECT_LT(lo, hi / 2);  // the low-priority API is shed
}

// --- Breakwater ----------------------------------------------------------------

TEST(BreakwaterTest, CreditRateGrowsWhenIdle) {
  auto app = SmallApp();
  BreakwaterConfig config;
  config.initial_rate = 100;
  config.additive_rps = 50;
  BreakwaterAdmission bw(app.get(), config);
  bw.Admit(sim::RequestInfo{}, 0, 0, 0);  // create state
  const double before = bw.CreditRate(0, 0);
  bw.Update();
  bw.Update();
  EXPECT_DOUBLE_EQ(bw.CreditRate(0, 0), before + 100.0);
}

TEST(BreakwaterTest, CreditRateDropsUnderQueueing) {
  auto app = SmallApp();
  BreakwaterConfig config;
  config.initial_rate = 400;
  BreakwaterAdmission bw(app.get(), config);
  bw.Admit(sim::RequestInfo{}, 0, 0, 0);
  // Jam the pod: one long job in service, one queued forever.
  sim::RecordingSink rec(&app->sim());
  sim::Pod& pod = app->service(0).pod(0);
  pod.SetDoneSink(rec.sink());
  for (std::uint32_t i = 0; i < 10; ++i) pod.Enqueue(Seconds(2), i);
  app->sim().RunUntil(Millis(500));  // HoL wait 0.5 s >> 20 ms target
  bw.Update();
  EXPECT_LT(bw.CreditRate(0, 0), 400.0);
}

TEST(BreakwaterTest, AqmShedsOnInstantaneousDelay) {
  auto app = SmallApp();
  BreakwaterConfig config;
  config.target_delay_s = 0.02;
  config.aqm_factor = 2.0;
  BreakwaterAdmission bw(app.get(), config);
  sim::RecordingSink rec(&app->sim());
  sim::Pod& pod = app->service(0).pod(0);
  pod.SetDoneSink(rec.sink());
  for (std::uint32_t i = 0; i < 10; ++i) pod.Enqueue(Seconds(2), i);
  app->sim().RunUntil(Millis(200));  // HoL 0.2 s > 0.04 s AQM threshold
  EXPECT_FALSE(bw.Admit(sim::RequestInfo{}, 0, 0, app->sim().Now()));
}

TEST(BreakwaterTest, EndToEndControlsOverload) {
  auto app = SmallApp();
  BreakwaterAdmission bw(app.get());
  bw.Install();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(2400));
  app->RunFor(Seconds(60));
  // Without control this open-loop 3x overload keeps every completion past
  // the SLO; Breakwater holds some goodput.
  EXPECT_GT(app->metrics().AvgGoodput(0, 30, 60), 300.0);
  const auto& totals = app->metrics().Totals();
  EXPECT_GT(totals[0].rejected_service, 10000u);
}

TEST(BreakwaterTest, MultiTierDropsCompound) {
  // Two-tier chain, both tiers shedding randomly: end-to-end goodput falls
  // short of the single bottleneck's capacity (the (1-p)^2 effect §6.1).
  auto app = std::make_unique<sim::Application>("bw2", 37);
  const sim::ServiceId a = app->AddService(Svc("A", 5.0, 4, 1));  // 800 rps
  const sim::ServiceId b = app->AddService(Svc("B", 5.0, 4, 1));  // 800 rps
  sim::ApiSpec api("api", 1);
  api.AddPath(sim::ExecutionPath{sim::Chain({a, b}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  BreakwaterAdmission bw(app.get());
  bw.Install();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(2400));
  app->RunFor(Seconds(60));
  const double two_tier = app->metrics().AvgGoodput(0, 30, 60);

  // Reference: the same overload through a single tier.
  auto ref = std::make_unique<sim::Application>("bw1", 37);
  const sim::ServiceId ra = ref->AddService(Svc("A", 5.0, 4, 1));
  sim::ApiSpec ref_api("api", 1);
  ref_api.AddPath(sim::ExecutionPath{sim::Chain({ra}), 1.0, {}});
  ref->AddApi(std::move(ref_api));
  ref->Finalize();
  BreakwaterAdmission ref_bw(ref.get());
  ref_bw.Install();
  workload::TrafficDriver ref_traffic(ref.get());
  ref_traffic.AddOpenLoop(0, workload::Schedule::Constant(2400));
  ref->RunFor(Seconds(60));
  const double one_tier = ref->metrics().AvgGoodput(0, 30, 60);

  EXPECT_LT(two_tier, one_tier);  // uncorrelated drops compound
  EXPECT_GT(two_tier, 100.0);
}

// --- Conformance: DAGOR admission is monotone in compound priority -----------

TEST(DagorTest, AdmissionMonotoneInCompoundPriority) {
  auto app = SmallApp();
  const DagorConfig config;
  DagorAdmission dagor(app.get(), config);
  dagor.Install();
  // 3x overload drives the threshold into the interior of the compound range.
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(1200));
  traffic.AddOpenLoop(1, workload::Schedule::Constant(1200));
  app->RunFor(Seconds(20));
  const int max_compound = config.business_levels * config.user_levels - 1;
  const int threshold = dagor.Threshold(0, 0);
  ASSERT_GT(threshold, 0);
  ASSERT_LT(threshold, max_compound);

  // The admitted set must be exactly the downward-closed prefix of the
  // compound priority order: admit (b, u) <=> b * 128 + u <= threshold. In
  // particular no request may be rejected while a lower-priority (higher
  // compound) one is admitted.
  int last_admitted_compound = -1;
  int first_rejected_compound = max_compound + 1;
  for (int b = 0; b < config.business_levels; ++b) {
    for (int u = 0; u < config.user_levels; ++u) {
      sim::RequestInfo info;
      info.business_priority = b;
      info.user_priority = u;
      const int compound = b * config.user_levels + u;
      const bool admitted = dagor.Admit(info, 0, 0, app->sim().Now());
      EXPECT_EQ(admitted, compound <= threshold) << "compound " << compound;
      if (admitted) last_admitted_compound = std::max(last_admitted_compound, compound);
      if (!admitted) first_rejected_compound = std::min(first_rejected_compound, compound);
    }
  }
  EXPECT_LT(last_admitted_compound, first_rejected_compound);
}

// --- Conformance: Breakwater credit pool bounded below, converges ------------

TEST(BreakwaterTest, CreditRateNeverFallsBelowFloorUnderRandomChurn) {
  // Random jam / drain churn across several seeds: however hard the pod is
  // overloaded, the multiplicative decrease must never drive the credit
  // rate below min_rate (in particular never to zero or negative, which
  // would deadlock the edge forever).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto app = SmallApp();
    BreakwaterConfig config;
    config.initial_rate = 300.0;
    BreakwaterAdmission bw(app.get(), config);
    bw.Admit(sim::RequestInfo{}, 0, 0, 0);  // create pod state
    sim::RecordingSink rec(&app->sim());
    sim::Pod& pod = app->service(0).pod(0);
    pod.SetDoneSink(rec.sink());
    std::uint32_t token = 0;
    Rng rng(seed * 10007);
    for (int step = 0; step < 200; ++step) {
      if (rng.Bernoulli(0.5)) {
        const int jobs = static_cast<int>(rng.UniformInt(1, 8));
        for (int j = 0; j < jobs; ++j) {
          pod.Enqueue(static_cast<SimTime>(rng.UniformInt(Millis(1), Seconds(1))),
                      token++);
        }
      }
      app->sim().RunUntil(app->sim().Now() +
                          static_cast<SimTime>(rng.UniformInt(Millis(1), Millis(200))));
      bw.Update();
      const double rate = bw.CreditRate(0, 0);
      EXPECT_GE(rate, config.min_rate) << "seed " << seed << " step " << step;
      EXPECT_TRUE(std::isfinite(rate));
    }
  }
}

TEST(BreakwaterTest, ConvergesOnStaticWorkload) {
  // Static offered load below pod capacity: after warm-up the admitted
  // throughput must settle at the offered rate (no residual shedding, no
  // oscillation beyond arrival noise).
  auto app = SmallApp();
  BreakwaterAdmission bw(app.get());
  bw.Install();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(600));  // cap 800 rps
  app->RunFor(Seconds(30));
  std::uint64_t late_rejections = 0;
  for (const auto& snap : app->metrics().Timeline()) {
    if (snap.t_end_s <= 20.0) continue;
    const auto& w = snap.apis[0];
    EXPECT_NEAR(static_cast<double>(w.admitted), 600.0, 80.0)
        << "window " << snap.t_end_s;
    late_rejections += w.rejected_service;
  }
  EXPECT_EQ(late_rejections, 0u);
}

// --- WISP --------------------------------------------------------------------

TEST(WispTest, RateGrowsWhenHealthy) {
  auto app = SmallApp();
  WispConfig config;
  config.initial_rate = 100;
  config.additive_rps = 40;
  WispAdmission wisp(app.get(), config);
  wisp.Admit(sim::RequestInfo{}, 0, 0, 0);  // create state
  wisp.Update();
  wisp.Update();
  EXPECT_DOUBLE_EQ(wisp.RateLimit(0, 0), 180.0);
}

TEST(WispTest, LocalQueueingCutsRate) {
  auto app = SmallApp();
  WispConfig config;
  config.initial_rate = 400;
  WispAdmission wisp(app.get(), config);
  wisp.Admit(sim::RequestInfo{}, 0, 0, 0);
  sim::RecordingSink rec(&app->sim());
  sim::Pod& pod = app->service(0).pod(0);
  pod.SetDoneSink(rec.sink());
  for (std::uint32_t i = 0; i < 10; ++i) pod.Enqueue(Seconds(2), i);
  app->sim().RunUntil(Millis(500));
  wisp.Update();
  EXPECT_LT(wisp.RateLimit(0, 0), 400.0);
}

TEST(WispTest, DownstreamRejectionsPropagateUpstream) {
  // Two-tier chain; the downstream pod has no credit, so every sub-request
  // forwarded by the upstream is shed there. After an update, the upstream
  // limiter must have tightened even though it is locally idle.
  auto app = std::make_unique<sim::Application>("wisp2", 41);
  const sim::ServiceId a = app->AddService(Svc("A", 5.0, 4, 1));
  const sim::ServiceId b = app->AddService(Svc("B", 5.0, 4, 1));
  sim::ApiSpec api("api", 1);
  api.AddPath(sim::ExecutionPath{sim::Chain({a, b}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  WispConfig config;
  config.initial_rate = 1000;
  WispAdmission wisp(app.get(), config);
  wisp.Install();
  // Starve B's limiter so it rejects everything.
  for (int i = 0; i < 3000; ++i) {
    app->sim().ScheduleAt(Millis(i), [&app]() { app->Submit(0); });
  }
  app->RunFor(Seconds(1));
  wisp.Update();
  // B rejected a lot; A's rate must have been pulled down even though A's
  // own queue never built up.
  EXPECT_LT(wisp.RateLimit(a, 0), 1000.0);
}

TEST(WispTest, EndToEndControlsOverload) {
  auto app = SmallApp();
  WispAdmission wisp(app.get());
  wisp.Install();
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(2400));
  app->RunFor(Seconds(60));
  EXPECT_GT(app->metrics().AvgGoodput(0, 30, 60), 300.0);
}

}  // namespace
}  // namespace topfull::baselines
