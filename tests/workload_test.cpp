// Unit tests for schedules and traffic generators.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/app.hpp"
#include "workload/generators.hpp"
#include "workload/schedule.hpp"

namespace topfull::workload {
namespace {

TEST(ScheduleTest, ConstantValue) {
  const Schedule s = Schedule::Constant(42.0);
  EXPECT_DOUBLE_EQ(s.At(0), 42.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(1000)), 42.0);
}

TEST(ScheduleTest, StepBreakpoints) {
  Schedule s = Schedule::Constant(10.0);
  s.Then(Seconds(5), 100.0).Then(Seconds(10), 50.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(4)), 10.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(5)), 100.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(9)), 100.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(10)), 50.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(1000)), 50.0);
}

TEST(ScheduleTest, BreakpointsAddedOutOfOrder) {
  Schedule s = Schedule::Constant(1.0);
  s.Then(Seconds(10), 3.0);
  s.Then(Seconds(5), 2.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(7)), 2.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(12)), 3.0);
}

TEST(ScheduleTest, DuplicateBreakpointOverwrites) {
  Schedule s = Schedule::Constant(1.0);
  s.Then(Seconds(5), 2.0).Then(Seconds(5), 9.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(6)), 9.0);
}

TEST(ScheduleTest, SpikeShape) {
  const Schedule s = Schedule::Spike(100, Seconds(60), Seconds(120), 900);
  EXPECT_DOUBLE_EQ(s.At(Seconds(59)), 100.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(60)), 900.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(179)), 900.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(180)), 100.0);
}

TEST(ScheduleTest, RampIsMonotone) {
  const Schedule s = Schedule::Ramp(0, 100, Seconds(10), Seconds(10));
  EXPECT_DOUBLE_EQ(s.At(Seconds(9)), 0.0);
  double prev = -1.0;
  for (int t = 10; t <= 20; ++t) {
    const double v = s.At(Seconds(t));
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s.At(Seconds(20)), 100.0);
  EXPECT_DOUBLE_EQ(s.At(Seconds(100)), 100.0);
}

TEST(ApiMixTest, SampleRespectsWeights) {
  ApiMix mix;
  mix.weights = {1.0, 3.0};
  EXPECT_EQ(mix.Sample(0.1), 0);
  EXPECT_EQ(mix.Sample(0.24), 0);
  EXPECT_EQ(mix.Sample(0.26), 1);
  EXPECT_EQ(mix.Sample(0.99), 1);
}

TEST(ApiMixTest, ZeroWeightNeverSampled) {
  ApiMix mix;
  mix.weights = {0.0, 1.0, 0.0};
  for (double u = 0.0; u < 1.0; u += 0.05) EXPECT_EQ(mix.Sample(u), 1);
}

// The pre-computed prefix-sum sampler must pick exactly what the original
// per-call linear scan picked: same partial sums, same strict comparison.
sim::ApiId LinearScanSample(const std::vector<double>& weights, double u) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double acc = 0.0;
  const double target = u * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return static_cast<sim::ApiId>(i);
  }
  return static_cast<sim::ApiId>(weights.size() - 1);
}

TEST(ApiMixTest, PrefixSumSamplerMatchesLinearScan) {
  const std::vector<std::vector<double>> mixes = {
      {1.0, 1.0, 1.0, 1.0},
      {0.0, 1.0, 0.0, 2.0, 0.0, 0.5, 0.0},
      {0.0, 0.0, 3.0},
      {0.1, 0.2, 0.0, 0.3, 0.4},
      {2.5, 0.0, 0.0},
  };
  for (const auto& weights : mixes) {
    ApiMix mix;
    mix.weights = weights;
    const std::vector<double> cumulative = mix.Cumulative();
    ASSERT_EQ(cumulative.size(), weights.size());
    const double total = cumulative.back();
    std::vector<double> us = {0.0, std::nextafter(1.0, 0.0), 1.0 - 1e-12};
    for (const double c : cumulative) {
      // Exact cumulative boundaries and their floating-point neighbours.
      const double u = c / total;
      for (const double v : {u, std::nextafter(u, 0.0), std::nextafter(u, 1.0)}) {
        if (v < 1.0) us.push_back(v);
      }
    }
    for (int i = 0; i < 1000; ++i) us.push_back(i / 1000.0);
    for (const double u : us) {
      const sim::ApiId api = mix.Sample(u);
      EXPECT_EQ(api, LinearScanSample(weights, u)) << "u=" << u;
      EXPECT_EQ(ApiMix::SampleCumulative(cumulative, u), api);
      if (u * total < total) {
        EXPECT_GT(weights[static_cast<std::size_t>(api)], 0.0) << "u=" << u;
      }
    }
    // u * total landing on the total itself (rounding does this for u just
    // below 1 with total 2.5): both fall back to the last index, even if
    // its weight is zero.
    EXPECT_EQ(ApiMix::SampleCumulative(cumulative, 1.0),
              LinearScanSample(weights, 1.0));
    EXPECT_EQ(ApiMix::SampleCumulative(cumulative, 1.0),
              static_cast<sim::ApiId>(weights.size() - 1));
  }
}

sim::ServiceConfig FastService(const char* name, double capacity_rps) {
  sim::ServiceConfig config;
  config.name = name;
  config.threads = 8;
  config.mean_service_ms = 8000.0 / capacity_rps;
  config.service_sigma = 0.0;
  config.initial_pods = 1;
  return config;
}

std::unique_ptr<sim::Application> OneServiceApp(double capacity_rps = 10000.0) {
  auto app = std::make_unique<sim::Application>("wl-test", 3);
  const sim::ServiceId s = app->AddService(FastService("s", capacity_rps));
  sim::ApiSpec api("api", 1);
  api.AddPath(sim::ExecutionPath{sim::Chain({s}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  return app;
}

TEST(OpenLoopTest, RateMatchesSchedule) {
  auto app = OneServiceApp();
  TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, Schedule::Constant(500));
  app->RunFor(Seconds(20));
  const double offered = static_cast<double>(app->metrics().Totals()[0].offered) / 20.0;
  EXPECT_NEAR(offered, 500.0, 25.0);
}

TEST(OpenLoopTest, ZeroRateProducesNothingThenStarts) {
  auto app = OneServiceApp();
  TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, Schedule::Constant(0).Then(Seconds(5), 200));
  app->RunFor(Seconds(5));
  EXPECT_EQ(app->metrics().Totals()[0].offered, 0u);
  app->RunFor(Seconds(10));
  EXPECT_NEAR(static_cast<double>(app->metrics().Totals()[0].offered), 2000.0, 200.0);
}

TEST(ClosedLoopTest, UsersIssueAboutOneRequestPerSecond) {
  auto app = OneServiceApp();
  TrafficDriver traffic(app.get());
  ClosedLoopConfig config;
  config.mix.weights = {1.0};
  traffic.AddClosedLoop(config, Schedule::Constant(100));
  app->RunFor(Seconds(30));
  // Healthy service, ~1 ms responses: each user cycles roughly per think
  // time (1 s +/- jitter), so offered ~ users * duration.
  const double offered = static_cast<double>(app->metrics().Totals()[0].offered);
  EXPECT_NEAR(offered, 3000.0, 300.0);
}

TEST(ClosedLoopTest, UsersSelfThrottleUnderOverload) {
  // 1000 users against a 100 rps service: closed-loop demand collapses to
  // well under the open-loop 1000 rps because users wait on responses.
  auto app = OneServiceApp(/*capacity_rps=*/100.0);
  TrafficDriver traffic(app.get());
  ClosedLoopConfig config;
  config.mix.weights = {1.0};
  config.client_timeout = Seconds(2);
  traffic.AddClosedLoop(config, Schedule::Constant(1000));
  app->RunFor(Seconds(30));
  const double offered_rps =
      static_cast<double>(app->metrics().Totals()[0].offered) / 30.0;
  EXPECT_LT(offered_rps, 900.0);  // below the 1000 rps nominal demand
  EXPECT_GT(offered_rps, 100.0);
}

TEST(ClosedLoopTest, PoolGrowsWithSchedule) {
  auto app = OneServiceApp();
  TrafficDriver traffic(app.get());
  ClosedLoopConfig config;
  config.mix.weights = {1.0};
  auto& pool = traffic.AddClosedLoop(config, Schedule::Constant(10).Then(Seconds(10), 50));
  app->RunFor(Seconds(5));
  EXPECT_EQ(pool.LiveUsers(), 10);
  app->RunFor(Seconds(10));
  EXPECT_EQ(pool.LiveUsers(), 50);
}

// Users above a lowered target leave at their next loop boundary. When the
// target rises again before all of them have left, every user of the
// restored range must run exactly one loop: those that left start again,
// those still running carry on, and none gets a second loop.
TEST(ClosedLoopTest, TargetRisingBeforeExcessUsersLeftRunsEachUserOnce) {
  auto app = OneServiceApp();
  TrafficDriver traffic(app.get());
  ClosedLoopConfig config;
  config.mix.weights = {1.0};
  auto& pool = traffic.AddClosedLoop(
      config, Schedule::Constant(400).Then(Seconds(10), 200).Then(Seconds(11), 400));
  app->RunFor(Millis(10500));
  // Half-way through the 1 s think time, some excess users have left.
  EXPECT_GT(pool.LiveUsers(), 200);
  EXPECT_LT(pool.LiveUsers(), 400);
  app->RunFor(Millis(1000));
  const std::vector<UserOutcomes> before = pool.Outcomes();
  app->RunFor(Seconds(20));
  const std::vector<UserOutcomes>& after = pool.Outcomes();
  ASSERT_EQ(after.size(), 400u);
  // ~1 ms responses and a 0.9-1.1 s think time: about 20 intents per user.
  int idle = 0;
  int doubled = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const std::uint64_t issued = after[i].intents - before[i].intents;
    if (issued < 17) ++idle;
    if (issued > 23) ++doubled;
  }
  EXPECT_EQ(idle, 0);
  EXPECT_EQ(doubled, 0);
  EXPECT_EQ(pool.LiveUsers(), 400);
}

TEST(ClosedLoopTest, EntryRejectionDoesNotKillUsers) {
  class DenyAll : public sim::EntryAdmission {
   public:
    bool Admit(sim::ApiId, SimTime) override { return false; }
  };
  auto app = OneServiceApp();
  DenyAll deny;
  app->SetEntryAdmission(&deny);
  TrafficDriver traffic(app.get());
  ClosedLoopConfig config;
  config.mix.weights = {1.0};
  traffic.AddClosedLoop(config, Schedule::Constant(50));
  app->RunFor(Seconds(20));
  // Users keep retrying after each rejection (think-time pacing).
  EXPECT_GT(app->metrics().Totals()[0].rejected_entry, 700u);
}

}  // namespace
}  // namespace topfull::workload
