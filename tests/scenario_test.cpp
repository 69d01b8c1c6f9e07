// Scenario engine tests: spec builder and schedules, the invariant
// checker over synthetic SLO-event streams, fairness/amplification
// statistics, the text-profile parser (good path, inline malformed
// inputs, the on-disk corpus, and a seeded fuzz sweep over both the
// profile and the `--fault-profile` form), the validity check and fault
// expansion, the ScenarioSpec -> RunSpec translation against hand-built
// runs, the built-in library's internal consistency, and the conformance
// matrix itself — byte-identical JSON across pool sizes and tracing modes,
// the metastable trap/escape demonstration, and sharded self-consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/online_boutique.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "obs/fairness.hpp"
#include "obs/slo_monitor.hpp"
#include "scenario/invariant.hpp"
#include "scenario/library.hpp"
#include "scenario/profile.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "workload/generators.hpp"

namespace topfull::scenario {
namespace {

fault::FaultEvent CrashEvent(const std::string& service, double at_s, int pods) {
  fault::FaultEvent event;
  event.type = fault::FaultType::kPodCrash;
  event.service = service;
  event.at = Seconds(at_s);
  event.pods = pods;
  return event;
}

// --- Spec builder -------------------------------------------------------------

TEST(ScenarioSpecTest, BuilderPopulatesEveryField) {
  TenantSpec premium;
  premium.name = "premium";
  premium.weight = 0.25;
  premium.priority_lo = 0;
  premium.priority_hi = 7;
  const ScenarioSpec spec =
      ScenarioSpec::Make("storm", "trainticket")
          .Describe("demo")
          .Seed(99)
          .Duration(75.0)
          .Phase(0.0, 100.0)
          .Phase(10.0, 900.0, /*ramp_s=*/4.0)
          .Tenant(premium)
          .Client(/*timeout_s=*/2.5, /*retries=*/3, /*backoff_s=*/0.3,
                  /*think_s=*/0.5)
          .Rpc(/*timeout_s=*/0.7, /*retries=*/2, /*backoff_s=*/0.1)
          .Fault({CrashEvent("ts-station", 10.0, 3), std::nullopt})
          .StaticRate(450.0)
          .DistinctPriorities()
          .Require(InvariantKind::kGoodputFloor, 200.0, 10.0)
          .ExpectViolation("static", InvariantKind::kGoodputFloor);
  EXPECT_EQ(spec.name, "storm");
  EXPECT_EQ(spec.app, "trainticket");
  EXPECT_EQ(spec.description, "demo");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_DOUBLE_EQ(spec.duration_s, 75.0);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.phases[1].users, 900.0);
  EXPECT_DOUBLE_EQ(spec.phases[1].ramp_s, 4.0);
  ASSERT_EQ(spec.tenants.size(), 1u);
  EXPECT_EQ(spec.tenants[0].priority_hi, 7);
  EXPECT_DOUBLE_EQ(spec.client_timeout_s, 2.5);
  EXPECT_EQ(spec.client_retries, 3);
  EXPECT_DOUBLE_EQ(spec.client_retry_backoff_s, 0.3);
  EXPECT_DOUBLE_EQ(spec.think_s, 0.5);
  EXPECT_DOUBLE_EQ(spec.hop_timeout_s, 0.7);
  EXPECT_EQ(spec.hop_retries, 2);
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].event.service, "ts-station");
  EXPECT_EQ(spec.faults[0].event.pods, 3);
  EXPECT_DOUBLE_EQ(spec.static_rate, 450.0);
  EXPECT_TRUE(spec.distinct_priorities);
  ASSERT_EQ(spec.invariants.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.invariants[0].from_s, 10.0);
  EXPECT_TRUE(
      spec.ExpectsViolation("static", InvariantKind::kGoodputFloor));
  EXPECT_FALSE(
      spec.ExpectsViolation("topfull", InvariantKind::kGoodputFloor));
  EXPECT_FALSE(
      spec.ExpectsViolation("static", InvariantKind::kFairnessIndexMin));
}

TEST(ScenarioSpecTest, KindNamesRoundTrip) {
  for (const InvariantKind kind :
       {InvariantKind::kGoodputFloor, InvariantKind::kEscapesOverloadBy,
        InvariantKind::kMaxRetryAmplification,
        InvariantKind::kFairnessIndexMin,
        InvariantKind::kNoOscillationAfter}) {
    const auto parsed = InvariantKindFromName(InvariantKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(InvariantKindFromName("latency_ceiling").has_value());
}

TEST(ScenarioSpecTest, UserScheduleStepsBetweenPhases) {
  const ScenarioSpec spec = ScenarioSpec::Make("steps")
                                .Phase(0.0, 100.0)
                                .Phase(30.0, 500.0)
                                .Phase(60.0, 200.0);
  const workload::Schedule users = spec.BuildUserSchedule();
  EXPECT_DOUBLE_EQ(users.At(0), 100.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(29)), 100.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(30)), 500.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(59)), 500.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(90)), 200.0);
}

TEST(ScenarioSpecTest, UserScheduleRampClimbsAndLandsExactly) {
  const ScenarioSpec spec = ScenarioSpec::Make("ramp")
                                .Phase(0.0, 100.0)
                                .Phase(30.0, 400.0, /*ramp_s=*/10.0);
  const workload::Schedule users = spec.BuildUserSchedule();
  // 1 s steps from the previous level: still 100 at the phase start, then
  // +30 per second, landing exactly on 400 at 40 s.
  EXPECT_DOUBLE_EQ(users.At(Seconds(30)), 100.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(31)), 130.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(35)), 250.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(40)), 400.0);
  EXPECT_DOUBLE_EQ(users.At(Seconds(90)), 400.0);
  // Monotone along the whole climb.
  for (int s = 30; s < 40; ++s) {
    EXPECT_LE(users.At(Seconds(s)), users.At(Seconds(s + 1)));
  }
}

TEST(ScenarioSpecTest, UserScheduleDiurnalRidesTheCosine) {
  const ScenarioSpec spec =
      ScenarioSpec::Make("diurnal").Duration(240.0).Diurnal(400.0, 2800.0,
                                                            120.0);
  const workload::Schedule users = spec.BuildUserSchedule();
  // Raised cosine from the trough: low at t=0 and t=period, high at mid.
  EXPECT_NEAR(users.At(0), 400.0, 1e-9);
  EXPECT_NEAR(users.At(Seconds(60)), 2800.0, 1e-9);
  EXPECT_NEAR(users.At(Seconds(120)), 400.0, 1e-9);
  EXPECT_GT(users.At(Seconds(30)), 400.0);
  EXPECT_LT(users.At(Seconds(30)), 2800.0);
}

TEST(ScenarioSpecTest, TimeScaledShrinksTimesButNotThresholds) {
  ScenarioSpec spec =
      ScenarioSpec::Make("scale")
          .Duration(100.0)
          .Phase(0.0, 100.0)
          .Phase(40.0, 800.0, /*ramp_s=*/8.0)
          .Diurnal(100.0, 900.0, 60.0)
          .Require(InvariantKind::kGoodputFloor, 300.0, 40.0)
          .Require(InvariantKind::kEscapesOverloadBy, 20.0, 50.0);
  fault::FaultEvent crash;
  crash.service = "cart";
  crash.at = Seconds(30);
  crash.pods = 3;
  crash.restart_delay = Seconds(10);
  crash.restart_stagger = Seconds(2);
  spec.Fault({crash, std::nullopt});
  fault::FaultEvent inflate;
  inflate.type = fault::FaultType::kServiceTimeInflate;
  inflate.service = "checkout";
  inflate.at = Seconds(50);
  inflate.duration = Seconds(20);
  inflate.severity = 3.0;
  spec.Fault({inflate, std::nullopt});
  fault::ChaosOptions chaos;
  chaos.events = 6;
  chaos.start_s = 10.0;
  chaos.horizon_s = 80.0;
  chaos.min_duration_s = 4.0;
  chaos.max_duration_s = 12.0;
  spec.Fault({{}, chaos});
  const ScenarioSpec half = spec.TimeScaled(0.5);
  EXPECT_DOUBLE_EQ(half.duration_s, 50.0);
  EXPECT_DOUBLE_EQ(half.phases[1].at_s, 20.0);
  EXPECT_DOUBLE_EQ(half.phases[1].ramp_s, 4.0);
  EXPECT_DOUBLE_EQ(half.phases[1].users, 800.0);  // population untouched
  EXPECT_DOUBLE_EQ(half.diurnal_period_s, 30.0);
  EXPECT_DOUBLE_EQ(half.diurnal_high, 900.0);
  // goodput floor: threshold is a rate, only from_s scales.
  EXPECT_DOUBLE_EQ(half.invariants[0].value, 300.0);
  EXPECT_DOUBLE_EQ(half.invariants[0].from_s, 20.0);
  // escape budget: the value itself is a time, both scale.
  EXPECT_DOUBLE_EQ(half.invariants[1].value, 10.0);
  EXPECT_DOUBLE_EQ(half.invariants[1].from_s, 25.0);
  // Fault times and durations scale; pod counts and severities do not.
  ASSERT_EQ(half.faults.size(), 3u);
  EXPECT_EQ(half.faults[0].event.at, Seconds(15));
  EXPECT_EQ(half.faults[0].event.restart_delay, Seconds(5));
  EXPECT_EQ(half.faults[0].event.restart_stagger, Seconds(1));
  EXPECT_EQ(half.faults[0].event.pods, 3);
  EXPECT_EQ(half.faults[1].event.at, Seconds(25));
  EXPECT_EQ(half.faults[1].event.duration, Seconds(10));
  EXPECT_DOUBLE_EQ(half.faults[1].event.severity, 3.0);
  // The chaos window and duration bounds are times; the event count is not.
  ASSERT_TRUE(half.faults[2].chaos.has_value());
  EXPECT_DOUBLE_EQ(half.faults[2].chaos->start_s, 5.0);
  EXPECT_DOUBLE_EQ(half.faults[2].chaos->horizon_s, 40.0);
  EXPECT_DOUBLE_EQ(half.faults[2].chaos->min_duration_s, 2.0);
  EXPECT_DOUBLE_EQ(half.faults[2].chaos->max_duration_s, 6.0);
  EXPECT_EQ(half.faults[2].chaos->events, 6);
}

// The smoke matrix shrinks a scenario's faults with its duration: in
// good_two_scenarios.profile's daynight (120 s, crash at 30 s with a 10 s
// restart, inflate over [50, 70) s) every fault still lands inside the
// 30 s smoke run, instead of after its end.
TEST(ScenarioSpecTest, SmokeRunAppliesEveryFaultOfTheProfile) {
  std::string error;
  const auto specs = LoadScenarioProfile(
      std::string(TOPFULL_SCENARIO_DATA_DIR) + "/good_two_scenarios.profile", &error);
  ASSERT_TRUE(specs.has_value()) << error;
  ASSERT_EQ(specs->size(), 2u);
  const ScenarioSpec smoke = (*specs)[1].TimeScaled(kSmokeTimeScale);
  ASSERT_EQ(smoke.name, "daynight");
  const auto run = MakeScenarioRun(smoke, exp::Variant::kNoControl, &error);
  ASSERT_TRUE(run.has_value()) << error;
  const exp::RunResult result = exp::Run(run->spec);
  std::vector<std::string> log;
  for (const fault::FaultRecord& r : result.fault_log) {
    log.push_back(std::to_string(r.at) + " " + fault::FaultTypeName(r.type) + " " +
                  fault::FaultActionName(r.action) + " " + r.service);
  }
  EXPECT_EQ(log, (std::vector<std::string>{
                     "7500000 pod_crash apply productcatalog",
                     "10000000 pod_crash restart productcatalog",
                     "12500000 service_time_inflate apply checkout",
                     "17500000 service_time_inflate revert checkout",
                 }));
}

// --- Invariant checker over synthetic event streams ---------------------------

obs::SloEvent Event(double t_s, obs::SloEventType type,
                    const std::string& subject) {
  obs::SloEvent ev;
  ev.t_s = t_s;
  ev.type = type;
  ev.subject = subject;
  return ev;
}

ScenarioSpec EscapeSpec(double budget, double from) {
  return ScenarioSpec::Make("x").Require(InvariantKind::kEscapesOverloadBy,
                                         budget, from);
}

TEST(InvariantCheckerTest, EscapeHoldsWhenOverloadClearsInTime) {
  const std::vector<obs::SloEvent> events = {
      Event(50.0, obs::SloEventType::kOverloadOnset, "s1"),
      Event(80.0, obs::SloEventType::kOverloadClear, "s1"),
  };
  RunArtifacts art;
  art.slo_events = &events;
  const auto results = CheckInvariants(EscapeSpec(40.0, 70.0), art);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_DOUBLE_EQ(results[0].measured, 80.0);
  EXPECT_FALSE(results[0].witness.has_value());
  EXPECT_FALSE(results[0].expected_violation);  // checker never sets this
}

TEST(InvariantCheckerTest, EscapeFailsOnLateClearWithOnsetWitness) {
  const std::vector<obs::SloEvent> events = {
      Event(50.0, obs::SloEventType::kOverloadOnset, "s1"),
      Event(120.0, obs::SloEventType::kOverloadClear, "s1"),
  };
  RunArtifacts art;
  art.slo_events = &events;
  const auto results = CheckInvariants(EscapeSpec(40.0, 70.0), art);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_DOUBLE_EQ(results[0].measured, 120.0);
  ASSERT_TRUE(results[0].witness.has_value());
  EXPECT_EQ(results[0].witness->type, obs::SloEventType::kOverloadOnset);
  EXPECT_DOUBLE_EQ(results[0].witness->t_s, 50.0);
}

TEST(InvariantCheckerTest, EscapeFailsWhenOverloadNeverClears) {
  const std::vector<obs::SloEvent> events = {
      Event(55.0, obs::SloEventType::kOverloadOnset, "s1"),
  };
  RunArtifacts art;
  art.slo_events = &events;
  const auto results = CheckInvariants(EscapeSpec(40.0, 70.0), art);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  ASSERT_TRUE(results[0].witness.has_value());
  EXPECT_EQ(results[0].witness->subject, "s1");
  EXPECT_NE(results[0].detail.find("never cleared"), std::string::npos);
}

TEST(InvariantCheckerTest, EscapeFailsOnOnsetPastDeadline) {
  const std::vector<obs::SloEvent> events = {
      Event(115.0, obs::SloEventType::kOverloadOnset, "s2"),
      Event(116.0, obs::SloEventType::kOverloadClear, "s2"),
  };
  RunArtifacts art;
  art.slo_events = &events;
  const auto results = CheckInvariants(EscapeSpec(40.0, 70.0), art);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_DOUBLE_EQ(results[0].measured, 115.0);
}

TEST(InvariantCheckerTest, EscapeTracksEpisodesPerSubject) {
  // s1's episode clears in time; s2's does not — s2 must be the witness.
  const std::vector<obs::SloEvent> events = {
      Event(10.0, obs::SloEventType::kOverloadOnset, "s1"),
      Event(12.0, obs::SloEventType::kOverloadOnset, "s2"),
      Event(20.0, obs::SloEventType::kOverloadClear, "s1"),
      Event(200.0, obs::SloEventType::kOverloadClear, "s2"),
  };
  RunArtifacts art;
  art.slo_events = &events;
  const auto results = CheckInvariants(EscapeSpec(40.0, 70.0), art);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  ASSERT_TRUE(results[0].witness.has_value());
  EXPECT_EQ(results[0].witness->subject, "s2");
}

TEST(InvariantCheckerTest, NoOscillationHonoursTheQuietTime) {
  const std::vector<obs::SloEvent> events = {
      Event(90.0, obs::SloEventType::kOscillation, "api0"),
  };
  RunArtifacts art;
  art.slo_events = &events;
  const ScenarioSpec ok_spec = ScenarioSpec::Make("x").Require(
      InvariantKind::kNoOscillationAfter, 0.0, 100.0);
  EXPECT_TRUE(CheckInvariants(ok_spec, art)[0].ok);

  const ScenarioSpec bad_spec = ScenarioSpec::Make("x").Require(
      InvariantKind::kNoOscillationAfter, 0.0, 80.0);
  const auto results = CheckInvariants(bad_spec, art);
  EXPECT_FALSE(results[0].ok);
  ASSERT_TRUE(results[0].witness.has_value());
  EXPECT_EQ(results[0].witness->type, obs::SloEventType::kOscillation);
}

TEST(InvariantCheckerTest, AmplificationComparedAgainstCap) {
  RunArtifacts art;
  // 200 hop dispatches of which 50 retries -> hop factor 4/3; 300 client
  // attempts over 100 intents -> client factor 3; total 4.
  art.amplification = obs::ComputeAmplification(200, 50, 300, 100);
  const ScenarioSpec tight = ScenarioSpec::Make("x").Require(
      InvariantKind::kMaxRetryAmplification, 3.5);
  const auto bad = CheckInvariants(tight, art);
  EXPECT_FALSE(bad[0].ok);
  EXPECT_DOUBLE_EQ(bad[0].measured, 4.0);
  const ScenarioSpec loose = ScenarioSpec::Make("x").Require(
      InvariantKind::kMaxRetryAmplification, 4.0);
  EXPECT_TRUE(CheckInvariants(loose, art)[0].ok);
}

TEST(InvariantCheckerTest, GoodputFloorWithoutMetricsMeasuresZero) {
  RunArtifacts art;  // metrics == nullptr
  const ScenarioSpec spec =
      ScenarioSpec::Make("x").Require(InvariantKind::kGoodputFloor, 100.0);
  const auto results = CheckInvariants(spec, art);
  EXPECT_FALSE(results[0].ok);
  EXPECT_DOUBLE_EQ(results[0].measured, 0.0);
}

// --- Fairness / amplification statistics --------------------------------------

TEST(FairnessStatsTest, JainIndexDegenerateCasesAreFair) {
  EXPECT_DOUBLE_EQ(obs::JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(obs::JainIndex({0.7}), 1.0);
  EXPECT_DOUBLE_EQ(obs::JainIndex({0.0, 0.0, 0.0}), 1.0);
}

TEST(FairnessStatsTest, JainIndexRanksSkewBelowEquality) {
  EXPECT_DOUBLE_EQ(obs::JainIndex({0.5, 0.5, 0.5, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(obs::JainIndex({1.0, 0.0}), 0.5);  // one user starved
  // n users, one gets everything -> 1/n.
  EXPECT_NEAR(obs::JainIndex({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  // Scale invariance.
  EXPECT_NEAR(obs::JainIndex({0.2, 0.6, 0.9}),
              obs::JainIndex({2.0, 6.0, 9.0}), 1e-12);
}

TEST(FairnessStatsTest, SuccessRateFairnessSummaryIsExact) {
  const obs::FairnessStats stats = obs::SuccessRateFairness({1.0, 0.5});
  EXPECT_EQ(stats.users, 2);
  EXPECT_DOUBLE_EQ(stats.mean, 0.75);
  EXPECT_DOUBLE_EQ(stats.variance, 0.0625);
  EXPECT_DOUBLE_EQ(stats.min, 0.5);
  EXPECT_DOUBLE_EQ(stats.max, 1.0);
  EXPECT_NEAR(stats.jain, 0.9, 1e-12);

  const obs::FairnessStats empty = obs::SuccessRateFairness({});
  EXPECT_EQ(empty.users, 0);
  EXPECT_DOUBLE_EQ(empty.jain, 1.0);
  EXPECT_DOUBLE_EQ(empty.variance, 0.0);
}

TEST(FairnessStatsTest, ComputeAmplificationHandlesZeroDenominators) {
  const obs::AmplificationStats none = obs::ComputeAmplification(0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(none.hop_amplification, 1.0);
  EXPECT_DOUBLE_EQ(none.client_amplification, 1.0);
  EXPECT_DOUBLE_EQ(none.total, 1.0);

  const obs::AmplificationStats stats =
      obs::ComputeAmplification(150, 50, 200, 100);
  EXPECT_DOUBLE_EQ(stats.hop_amplification, 1.5);
  EXPECT_DOUBLE_EQ(stats.client_amplification, 2.0);
  EXPECT_DOUBLE_EQ(stats.total, 3.0);
}

TEST(FairnessStatsTest, MinTenantFairnessSkipsUnsettledTenants) {
  EXPECT_DOUBLE_EQ(MinTenantFairness({}), 1.0);

  workload::UserOutcomes lucky;
  lucky.intents = lucky.attempts = lucky.ok = 10;
  workload::UserOutcomes starved;
  starved.intents = starved.attempts = starved.failed = 10;
  workload::UserOutcomes idle;  // never settled: carries no signal

  // Tenant 0 is perfectly fair, tenant 1 starves one of two users.
  const std::vector<std::vector<workload::UserOutcomes>> outcomes = {
      {lucky, lucky, idle},
      {lucky, starved},
  };
  EXPECT_DOUBLE_EQ(MinTenantFairness(outcomes), 0.5);

  // A tenant with only idle users contributes nothing (not a zero).
  const std::vector<std::vector<workload::UserOutcomes>> idle_only = {
      {idle, idle},
  };
  EXPECT_DOUBLE_EQ(MinTenantFairness(idle_only), 1.0);
}

// --- Profile parser -----------------------------------------------------------

TEST(ScenarioProfileTest, ParsesEveryDirective) {
  const std::string text = R"(# demo profile
scenario: name=storm, app=trainticket, duration=90, seed=7, static=800, distinct_prio=1
phase: at=0, users=300
phase: at=20, users=2000, ramp=5
tenant: name=premium, weight=0.4, prio=0-15
tenant: name=free, weight=0.6, prio=50
client: timeout=2, retries=2, backoff=0.2, think=0.5
rpc: timeout=0.5, retries=1, backoff=0.05
crash: svc=ts-station, at=30, pods=5, restart=10, stagger=1
degrade: svc=ts-order, at=40, for=20, factor=0.5
inflate: svc=ts-route, at=40, for=20, factor=2.5
blackhole: svc=ts-food, at=50, for=5
errors: svc=ts-order, at=60, for=15, p=0.3
vmout: at=70, for=10, vms=2
chaos: seed=7, events=3, horizon=80, start=5, blackhole=1
invariant: kind=max_retry_amplification, value=4
invariant: kind=goodput_floor, value=200, from=20
expect_violation: controller=static, invariant=goodput_floor

scenario: name=daynight
diurnal: low=200, high=1500, period=60
invariant: kind=goodput_floor, value=100

scenario: name=open, app=alibaba, replicas=2, hpa=1, probe_failures=1, fault_seed=9
phase: at=0, rps=3000
phase: at=20, rps=6000
)";
  std::string error;
  const auto specs = ParseScenarioProfile(text, &error);
  ASSERT_TRUE(specs.has_value()) << error;
  ASSERT_EQ(specs->size(), 3u);

  const ScenarioSpec& storm = (*specs)[0];
  EXPECT_EQ(storm.name, "storm");
  EXPECT_EQ(storm.app, "trainticket");
  EXPECT_DOUBLE_EQ(storm.duration_s, 90.0);
  EXPECT_EQ(storm.seed, 7u);
  EXPECT_DOUBLE_EQ(storm.static_rate, 800.0);
  EXPECT_TRUE(storm.distinct_priorities);
  ASSERT_EQ(storm.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(storm.phases[1].ramp_s, 5.0);
  ASSERT_EQ(storm.tenants.size(), 2u);
  EXPECT_EQ(storm.tenants[0].priority_lo, 0);
  EXPECT_EQ(storm.tenants[0].priority_hi, 15);
  EXPECT_EQ(storm.tenants[1].priority_lo, 50);  // single-value band
  EXPECT_EQ(storm.tenants[1].priority_hi, 50);
  EXPECT_EQ(storm.client_retries, 2);
  EXPECT_DOUBLE_EQ(storm.think_s, 0.5);
  EXPECT_DOUBLE_EQ(storm.hop_timeout_s, 0.5);
  // Fault directives stay in order, as data.
  ASSERT_EQ(storm.faults.size(), 7u);
  const fault::FaultEvent& crash = storm.faults[0].event;
  EXPECT_EQ(crash.type, fault::FaultType::kPodCrash);
  EXPECT_EQ(crash.service, "ts-station");
  EXPECT_EQ(crash.at, Seconds(30));
  EXPECT_EQ(crash.pods, 5);
  EXPECT_EQ(crash.restart_delay, Seconds(10));
  EXPECT_EQ(crash.restart_stagger, Seconds(1));
  EXPECT_EQ(storm.faults[1].event.type, fault::FaultType::kCapacityDegrade);
  EXPECT_EQ(storm.faults[1].event.duration, Seconds(20));
  EXPECT_DOUBLE_EQ(storm.faults[1].event.severity, 0.5);
  EXPECT_EQ(storm.faults[2].event.type, fault::FaultType::kServiceTimeInflate);
  EXPECT_DOUBLE_EQ(storm.faults[2].event.severity, 2.5);
  EXPECT_EQ(storm.faults[3].event.type, fault::FaultType::kBlackhole);
  EXPECT_EQ(storm.faults[4].event.type, fault::FaultType::kErrorBurst);
  EXPECT_DOUBLE_EQ(storm.faults[4].event.severity, 0.3);
  EXPECT_EQ(storm.faults[5].event.type, fault::FaultType::kVmOutage);
  EXPECT_EQ(storm.faults[5].event.pods, 2);
  ASSERT_TRUE(storm.faults[6].chaos.has_value());
  EXPECT_EQ(storm.faults[6].chaos->seed, 7u);
  EXPECT_EQ(storm.faults[6].chaos->events, 3);
  EXPECT_DOUBLE_EQ(storm.faults[6].chaos->horizon_s, 80.0);
  EXPECT_DOUBLE_EQ(storm.faults[6].chaos->start_s, 5.0);
  EXPECT_TRUE(storm.faults[6].chaos->allow_blackhole);
  ASSERT_EQ(storm.invariants.size(), 2u);
  EXPECT_EQ(storm.invariants[0].kind, InvariantKind::kMaxRetryAmplification);
  EXPECT_TRUE(storm.ExpectsViolation("static", InvariantKind::kGoodputFloor));

  const ScenarioSpec& daynight = (*specs)[1];
  EXPECT_EQ(daynight.app, "boutique");  // default
  EXPECT_DOUBLE_EQ(daynight.diurnal_period_s, 60.0);
  EXPECT_FALSE(daynight.open_loop);
  EXPECT_EQ(daynight.replicas, 1);
  EXPECT_EQ(daynight.fault_seed, fault::FaultInjector::kDefaultSeed);

  const ScenarioSpec& open = (*specs)[2];
  EXPECT_TRUE(open.open_loop);
  ASSERT_EQ(open.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(open.phases[1].users, 6000.0);
  EXPECT_EQ(open.replicas, 2);
  EXPECT_TRUE(open.hpa);
  EXPECT_TRUE(open.probe_failures);
  EXPECT_EQ(open.fault_seed, 9u);
}

struct MalformedCase {
  const char* text;
  const char* expect;  // substring of the error message
};

TEST(ScenarioProfileTest, RejectsMalformedInputWithLineNumbers) {
  const std::vector<MalformedCase> cases = {
      {"phase: at=0, users=100\n", "before the first 'scenario:'"},
      {"scenario: name=x\nworkload: users=9\n", "unknown directive"},
      {"scenario name=x\n", "has no ':'"},
      {"scenario: name=x\nphase: at=0, users=many\n", "non-numeric"},
      {"scenario: name=x\nscenario: name=x\n", "duplicate scenario name"},
      {"scenario: name=x\nphase: at=30, users=1\nphase: at=10, users=2\n",
       "nondecreasing"},
      {"scenario: name=x\ninvariant: kind=nope, value=1\n",
       "unknown invariant kind"},
      {"scenario: name=x\nclient: retires=3\n", "unknown key"},
      {"scenario: name=x\ntenant: weight=1\n", "missing required key"},
      {"scenario: name=x\nfault: crash s0 at=30\n", "unknown directive 'fault'"},
      {"scenario: name=a, duration=-5\n", "not a finite number >= 0"},
      {"scenario: name=a, duration=0\n", "duration must be > 0"},
      {"scenario: name=x\nphase: at=0, users=nan\n", "not a finite number"},
      {"scenario: name=x\nclient: timeout=inf\n", "not a finite number"},
      {"scenario: name=x\nclient: retries=-2\n", "not a finite number >= 0"},
      {"scenario: name=x\nphase: at=0, rps=-1\n", "not a finite number >= 0"},
      {"scenario: name=x\nphase: at=0, users=1\nphase: at=5, rps=2\n",
       "phases mix"},
      {"scenario: name=x\nphase: at=0, users=1, rps=2\n", "one of 'users'"},
      {"scenario: name=x\ncrash: svc=cart, at=5, pods=1, restrat=5\n",
       "unknown key 'restrat' in 'crash'"},
      {"scenario: name=x\ncrash: svc=cart, at=5\n", "missing required key 'pods'"},
      {"scenario: name=x\ndegrade: svc=cart, at=5, factor=-0.5\n",
       "not a finite number >= 0"},
      {"scenario: name=x\nvmout: svc=cart, at=5, vms=1\n", "unknown key 'svc'"},
      {"scenario: name=x, app=boutique, replicas=2\n", "needs app=alibaba"},
      {"scenario: name=x\nphase: at=0, rps=100\ntenant: name=t, weight=1\n",
       "tenants need closed-loop users"},
      {"scenario: name=x\ntenant: name=t, weight=1, prio=20-5\n",
       "priority band"},
      {"scenario: name=x\ndiurnal: low=1, high=2\n", "missing required key"},
      {"scenario: app=boutique\n", "missing required key 'name'"},
      {"scenario: name=x\nexpect_violation: controller=static\n",
       "missing required key"},
      {"# only comments\n", "declares no scenarios"},
      {"", "declares no scenarios"},
  };
  for (const MalformedCase& c : cases) {
    std::string error;
    const auto specs = ParseScenarioProfile(c.text, &error);
    EXPECT_FALSE(specs.has_value()) << c.text;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "input: " << c.text << "\nerror: " << error;
    EXPECT_NE(error.find("line "), std::string::npos) << error;
  }
}

TEST(ScenarioSpecTest, CheckScenarioJudgesSpecsBuiltInCode) {
  ScenarioSpec spec = ScenarioSpec::Make("ok").Phase(0.0, 100.0);
  EXPECT_EQ(CheckScenario(spec), "");
  spec.hpa = true;
  EXPECT_EQ(CheckScenario(spec), "");

  const ScenarioSpec nan_duration = ScenarioSpec::Make("nan").Duration(std::nan(""));
  EXPECT_EQ(CheckScenario(nan_duration), "duration must be > 0");
  const ScenarioSpec unordered =
      ScenarioSpec::Make("order").Phase(10.0, 1.0).Phase(5.0, 2.0);
  EXPECT_EQ(CheckScenario(unordered), "phase times must be nondecreasing");
  ScenarioSpec replicas = ScenarioSpec::Make("copies");
  replicas.replicas = 0;
  EXPECT_EQ(CheckScenario(replicas), "replicas must be >= 1");
  replicas.replicas = 3;
  EXPECT_NE(CheckScenario(replicas).find("needs app=alibaba"), std::string::npos);
  replicas.app = "alibaba";
  EXPECT_EQ(CheckScenario(replicas), "");
}

TEST(ScenarioSpecTest, ExpandFaultsChecksServicesAndDrawsChaos) {
  const auto app = apps::MakeOnlineBoutique({});
  ScenarioSpec spec = ScenarioSpec::Make("faults")
                          .Fault({CrashEvent("cart", 5.0, 1), std::nullopt})
                          .Fault({{}, fault::ChaosOptions{.seed = 7, .events = 4}});
  std::string error;
  const auto schedule = ExpandFaults(spec, *app, &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  ASSERT_EQ(schedule->size(), 5u);
  EXPECT_EQ(schedule->events()[0].service, "cart");
  // The chaos draw is the one fault::MakeChaosSchedule makes.
  const fault::FaultSchedule chaos =
      fault::MakeChaosSchedule(*app, fault::ChaosOptions{.seed = 7, .events = 4});
  for (std::size_t i = 0; i < chaos.size(); ++i) {
    EXPECT_EQ(schedule->events()[i + 1].service, chaos.events()[i].service);
    EXPECT_EQ(schedule->events()[i + 1].at, chaos.events()[i].at);
  }

  spec.Fault({CrashEvent("ProductCatalog", 5.0, 1), std::nullopt});
  EXPECT_FALSE(ExpandFaults(spec, *app, &error).has_value());
  EXPECT_NE(error.find("unknown service 'ProductCatalog'"), std::string::npos)
      << error;
}

TEST(ScenarioProfileTest, CorpusFilesParseAsLabelled) {
  const std::filesystem::path dir = TOPFULL_SCENARIO_DATA_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int bad = 0, good = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string stem = entry.path().filename().string();
    std::string error;
    const auto specs = LoadScenarioProfile(entry.path().string(), &error);
    if (stem.rfind("bad_", 0) == 0) {
      ++bad;
      EXPECT_FALSE(specs.has_value()) << stem;
      EXPECT_NE(error.find("line "), std::string::npos)
          << stem << ": " << error;
    } else if (stem.rfind("good_", 0) == 0) {
      ++good;
      EXPECT_TRUE(specs.has_value()) << stem << ": " << error;
      if (specs.has_value()) {
        EXPECT_FALSE(specs->empty()) << stem;
      }
      // "Good" means runnable: every scenario's faults expand against its
      // own app.
      for (const ScenarioSpec& spec : specs.value_or(std::vector<ScenarioSpec>{})) {
        const auto app = MakeApp(spec, &error);
        ASSERT_NE(app, nullptr) << stem << ": " << error;
        EXPECT_TRUE(ExpandFaults(spec, *app, &error).has_value())
            << stem << " scenario " << spec.name << ": " << error;
      }
    } else {
      ADD_FAILURE() << "corpus file without bad_/good_ prefix: " << stem;
    }
  }
  EXPECT_GE(bad, 10) << "malformed corpus shrank";
  EXPECT_GE(good, 1);
}

// A time whose microseconds would overflow SimTime is rejected where it is
// read, with its line, instead of wrapping to a negative time.
TEST(ScenarioProfileTest, RejectsTimesThatOverflowSimTime) {
  std::string error;
  EXPECT_FALSE(ParseFaultProfile("crash:svc=cart,at=1e300,pods=1", &error));
  EXPECT_NE(error.find("line 1: value '1e300' for key 'at' is too large a time"),
            std::string::npos)
      << error;
  EXPECT_FALSE(ParseFaultProfile("crash:svc=cart,at=5,pods=1;"
                                 "inflate:svc=cart,at=1,for=1e13,factor=2",
                                 &error));
  EXPECT_NE(error.find("line 2: value '1e13' for key 'for'"), std::string::npos) << error;
  EXPECT_FALSE(ParseScenarioProfile("scenario: name=a\nphase: at=0, users=5\n"
                                    "phase: at=1e20, users=9",
                                    &error));
  EXPECT_NE(error.find("line 3: value '1e20' for key 'at'"), std::string::npos) << error;
  EXPECT_FALSE(ParseScenarioProfile("scenario: name=a, duration=1e300", &error));
  EXPECT_NE(error.find("line 1: "), std::string::npos) << error;
  // Non-time keys keep the plain number rule; the bound is inclusive.
  EXPECT_TRUE(ParseScenarioProfile("scenario: name=a\nphase: at=0, users=1e20", &error))
      << error;
  EXPECT_TRUE(ParseTime("4.6e12").has_value());
  EXPECT_FALSE(ParseTime("4.7e12").has_value());
  EXPECT_DOUBLE_EQ(*ParseTime(std::to_string(kMaxConfigSeconds)), kMaxConfigSeconds);
  EXPECT_LE(kMaxConfigSeconds * 2 * 1e6, 9.3e18);  // two such times still fit
}

// Seeds are whole uint64s over the full range, never read through a double
// (which turns 9007199254740993 into ...992); counts are whole ints, so
// `pods=2.5` is not 2 and `replicas=3e9` is not capped.
TEST(ScenarioProfileTest, SeedsAndCountsAreWholeNumbers) {
  std::string error;
  const auto specs = ParseScenarioProfile(
      "scenario: name=a, seed=9007199254740993, fault_seed=18446744073709551615\n"
      "chaos: seed=+9007199254740993, events=3\n"
      "tenant: name=t, weight=1, prio=+2-7\n",
      &error);
  ASSERT_TRUE(specs.has_value()) << error;
  const ScenarioSpec& spec = specs->at(0);
  EXPECT_EQ(spec.seed, 9007199254740993ull);
  EXPECT_EQ(spec.fault_seed, 18446744073709551615ull);
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].chaos->seed, 9007199254740993ull);
  EXPECT_EQ(spec.tenants.at(0).priority_lo, 2);
  EXPECT_EQ(spec.tenants.at(0).priority_hi, 7);

  const std::vector<MalformedCase> cases = {
      {"scenario: name=a, seed=18446744073709551616\n",
       "'seed' is not a whole number from 0 to 18446744073709551615"},
      {"scenario: name=a, seed=1e3\n", "not a whole number"},
      {"scenario: name=a, fault_seed=2.5\n", "not a whole number"},
      {"scenario: name=a, seed=0x10\n", "non-numeric"},
      {"scenario: name=a\ncrash: svc=cart, at=5, pods=2.5\n",
       "'pods' is not a whole number from 0 to 2147483647"},
      {"scenario: name=a, app=alibaba, replicas=3e9\n", "not a whole number"},
      {"scenario: name=a\nchaos: events=-1\n", "not a finite number >= 0"},
      {"scenario: name=a\nclient: retries=1e400\n", "non-numeric"},
      {"scenario: name=a\ntenant: name=t, weight=1, prio=1e3\n", "priority band"},
      {"scenario: name=a\ntenant: name=t, weight=1, prio=2- 7\n", "priority band"},
      {"scenario: name=a\ntenant: name=t, weight=1, prio=0x2\n", "priority band"},
  };
  for (const MalformedCase& c : cases) {
    EXPECT_FALSE(ParseScenarioProfile(c.text, &error).has_value()) << c.text;
    EXPECT_NE(error.find(c.expect), std::string::npos) << c.text << "\n" << error;
  }
}

TEST(ScenarioProfileTest, FuzzNeverCrashesAndAlwaysExplains) {
  // Seeded structural fuzz: random lines assembled from grammar fragments
  // and junk. The parser must never crash and every rejection must carry a
  // line-numbered message.
  const std::vector<std::string> fragments = {
      "scenario", "phase", "tenant", "client", "rpc", "diurnal",
      "invariant", "expect_violation", "bogus", ":", "=", ",", "name", "x",
      "at", "users", "rps", "kind", "goodput_floor", "1e9", "-3", "0.5",
      "NaN", "many", "#", "prio", "0-15", "15-0", "\t", "scenario: name=ok",
      "crash", "degrade", "inflate", "blackhole", "errors", "vmout", "chaos",
      "svc", "pods", "restart", "factor", "p", "vms", "seed", "events",
      "horizon", ";", "crash:svc=cart,at=1,pods=1",
  };
  Rng rng(20240808);
  int parsed_ok = 0;
  int faults_ok = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string text;
    const int lines = static_cast<int>(rng.UniformInt(1, 12));
    for (int l = 0; l < lines; ++l) {
      const int tokens = static_cast<int>(rng.UniformInt(1, 8));
      for (int t = 0; t < tokens; ++t) {
        const auto pick = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(fragments.size()) - 1));
        text += fragments[pick];
        if (rng.Bernoulli(0.5)) text += " ";
      }
      text += "\n";
    }
    std::string error;
    const auto specs = ParseScenarioProfile(text, &error);
    if (specs.has_value()) {
      ++parsed_ok;
      EXPECT_FALSE(specs->empty());
    } else {
      EXPECT_FALSE(error.empty()) << text;
      EXPECT_NE(error.find("line "), std::string::npos) << error;
    }
    // The same text as a `--fault-profile` value: lines joined by ';'.
    std::string joined = text;
    std::replace(joined.begin(), joined.end(), '\n', ';');
    error.clear();
    if (ParseFaultProfile(joined, &error).has_value()) {
      ++faults_ok;
    } else {
      EXPECT_NE(error.find("line "), std::string::npos) << joined << "\n" << error;
    }
  }
  // The grammar fragments make some inputs valid; most must be rejected.
  EXPECT_LT(parsed_ok, 300);
  EXPECT_LT(faults_ok, 300);
}

TEST(ScenarioProfileTest, LoadReportsUnreadableFiles) {
  std::string error;
  const auto specs =
      LoadScenarioProfile("/nonexistent/scenarios.profile", &error);
  EXPECT_FALSE(specs.has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// --- The `--fault-profile` form ----------------------------------------------

/// The schedule `text` (the `;`-separated form) expands to on `app`.
std::optional<fault::FaultSchedule> FaultProfileSchedule(
    const std::string& text, const sim::Application& app, std::string* error) {
  const auto faults = ParseFaultProfile(text, error);
  if (!faults.has_value()) return std::nullopt;
  ScenarioSpec spec = ScenarioSpec::Make("faults");
  spec.faults = *faults;
  return ExpandFaults(spec, app, error);
}

TEST(FaultProfileTest, ParsesEveryKind) {
  const auto app = apps::MakeOnlineBoutique({});
  std::string error;
  const auto schedule = FaultProfileSchedule(
      "crash:svc=cart,at=50,pods=3,restart=60,stagger=1;"
      "degrade:svc=frontend,at=30,for=40,factor=0.5;"
      "inflate:svc=cart,at=30,for=40,factor=2.5;"
      "blackhole:svc=cart,at=20,for=10;"
      "errors:svc=frontend,at=20,for=15,p=0.3;"
      "vmout:at=40,for=30,vms=2",
      *app, &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  ASSERT_EQ(schedule->size(), 6u);
  const auto& events = schedule->events();
  EXPECT_EQ(events[0].type, fault::FaultType::kPodCrash);
  EXPECT_EQ(events[0].service, "cart");
  EXPECT_EQ(events[0].at, Seconds(50));
  EXPECT_EQ(events[0].pods, 3);
  EXPECT_EQ(events[0].restart_delay, Seconds(60));
  EXPECT_EQ(events[0].restart_stagger, Seconds(1));
  EXPECT_EQ(events[1].type, fault::FaultType::kCapacityDegrade);
  EXPECT_DOUBLE_EQ(events[1].severity, 0.5);
  EXPECT_EQ(events[1].duration, Seconds(40));
  EXPECT_EQ(events[2].type, fault::FaultType::kServiceTimeInflate);
  EXPECT_EQ(events[3].type, fault::FaultType::kBlackhole);
  EXPECT_EQ(events[4].type, fault::FaultType::kErrorBurst);
  EXPECT_DOUBLE_EQ(events[4].severity, 0.3);
  EXPECT_EQ(events[5].type, fault::FaultType::kVmOutage);
  EXPECT_EQ(events[5].pods, 2);
}

TEST(FaultProfileTest, ExpandsChaosProfiles) {
  const auto app = apps::MakeOnlineBoutique({});
  std::string error;
  const auto schedule =
      FaultProfileSchedule("chaos:seed=7,events=5,horizon=60", *app, &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  EXPECT_EQ(schedule->size(), 5u);
}

TEST(FaultProfileTest, RejectsMalformedSpecs) {
  const auto app = apps::MakeOnlineBoutique({});
  for (const char* bad : {
           "explode:svc=cart,at=1",               // unknown kind
           "crash:svc=nosuch,at=1,pods=1",        // unknown service
           "crash:svc=cart,at=",                  // missing value
           "crash:svc=cart,when=1,pods=1",        // unknown key
           "crash:svc=cart,at=5,pods=1,restrat=5",  // misspelt key
           "degrade:svc=cart,at=1,factor=x",      // non-numeric
           "degrade:svc=cart,at=1,factor=-2",     // negative
           "phase:at=0,users=5",                  // not a fault directive
           "crash svc=cart",                      // no ':'
       }) {
    std::string error;
    EXPECT_FALSE(FaultProfileSchedule(bad, *app, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- ScenarioSpec -> RunSpec ---------------------------------------------------

/// Every window's per-API counts and latency digests, at full precision.
std::string Fingerprint(const sim::Application& app) {
  std::string out;
  char line[160];
  for (const sim::Snapshot& window : app.metrics().Timeline()) {
    for (const sim::ApiWindow& api : window.apis) {
      std::snprintf(line, sizeof(line), "%.17g %llu %llu %llu %.17g %.17g\n",
                    window.t_end_s, static_cast<unsigned long long>(api.offered),
                    static_cast<unsigned long long>(api.completed),
                    static_cast<unsigned long long>(api.good),
                    api.latency_p50_ms, api.latency_p95_ms);
      out += line;
    }
  }
  return out;
}

// `topfull run --users 1200 --surge 6:2500 --hop-timeout 0.5 --retries 1
// --fault-profile crash:...` as a spec must run exactly the RunSpec the
// CLI used to build by hand.
TEST(ScenarioRunTest, ClosedLoopMatchesHandBuiltRun) {
  ScenarioSpec spec = ScenarioSpec::Make("cli").Seed(17).Duration(12.0);
  spec.Phase(0.0, 1200.0).Phase(6.0, 2500.0).Rpc(0.5, 1, 0.0);
  spec.faults = *ParseFaultProfile("crash:svc=productcatalog,at=3,pods=1,restart=4");
  std::string error;
  const auto translated =
      MakeScenarioRun(spec, exp::Variant::kTopFullMimd, &error);
  ASSERT_TRUE(translated.has_value()) << error;
  EXPECT_EQ(translated->spec.label, "online-boutique");

  exp::RunSpec by_hand;
  by_hand.duration_s = 12.0;
  by_hand.variant = exp::Variant::kTopFullMimd;
  by_hand.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 17;
    auto app = apps::MakeOnlineBoutique(options);
    app->ConfigureRpc(Seconds(0.5), 1, 0);
    return app;
  };
  by_hand.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(1200).Then(Seconds(6), 2500));
  };
  by_hand.faults.CrashPods("productcatalog", Seconds(3), 1, Seconds(4));

  const exp::RunResult a = exp::Run(translated->spec);
  const exp::RunResult b = exp::Run(by_hand);
  EXPECT_EQ(Fingerprint(a.app()), Fingerprint(b.app()));
  EXPECT_EQ(a.fault_log.size(), b.fault_log.size());
  EXPECT_GT(a.fault_log.size(), 0u);
}

// `topfull run --rps 3000 --surge 5:6000` as a spec: the rate splits evenly
// over the APIs, exactly as the CLI's hand-built open-loop generators did.
TEST(ScenarioRunTest, OpenLoopMatchesHandBuiltRun) {
  ScenarioSpec spec = ScenarioSpec::Make("cli").Duration(10.0);
  spec.open_loop = true;
  spec.Phase(0.0, 3000.0).Phase(5.0, 6000.0);
  std::string error;
  const auto translated =
      MakeScenarioRun(spec, exp::Variant::kDagor, &error);
  ASSERT_TRUE(translated.has_value()) << error;

  exp::RunSpec by_hand;
  by_hand.duration_s = 10.0;
  by_hand.variant = exp::Variant::kDagor;
  by_hand.make_app = [] { return apps::MakeOnlineBoutique({}); };
  by_hand.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
      traffic.AddOpenLoop(a, workload::Schedule::Constant(3000.0 / app.NumApis())
                                 .Then(Seconds(5), 6000.0 / app.NumApis()));
    }
  };
  const exp::RunResult a = exp::Run(translated->spec);
  const exp::RunResult b = exp::Run(by_hand);
  EXPECT_EQ(Fingerprint(a.app()), Fingerprint(b.app()));
}

TEST(ScenarioRunTest, RejectsWhatCheckScenarioRejects) {
  std::string error;
  ScenarioSpec spec = ScenarioSpec::Make("bad").Phase(0.0, 10.0);
  spec.duration_s = 0.0;
  EXPECT_FALSE(MakeScenarioRun(spec, exp::Variant::kNoControl, &error));
  EXPECT_NE(error.find("duration"), std::string::npos) << error;
  spec.duration_s = 5.0;
  spec.app = "nosuch";
  EXPECT_FALSE(MakeScenarioRun(spec, exp::Variant::kNoControl, &error));
  EXPECT_NE(error.find("unknown app 'nosuch'"), std::string::npos) << error;
}

// --- Built-in library ---------------------------------------------------------

TEST(ScenarioLibraryTest, BuiltinsAreInternallyConsistent) {
  const std::vector<ScenarioSpec> specs = BuiltinScenarios();
  ASSERT_GE(specs.size(), 4u) << "the matrix needs >= 4 scenario families";
  const MatrixOptions defaults;
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : specs) {
    names.push_back(spec.name);
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    EXPECT_GT(spec.duration_s, 0.0) << spec.name;
    EXPECT_FALSE(spec.invariants.empty()) << spec.name;
    EXPECT_TRUE(!spec.phases.empty() || spec.diurnal_period_s > 0.0)
        << spec.name << " drives no workload";
    // Every expected violation must reference a declared invariant kind
    // and a controller that is actually in the default matrix.
    for (const Expectation& e : spec.expected_violations) {
      bool declared = false;
      for (const Invariant& inv : spec.invariants) {
        declared = declared || inv.kind == e.invariant;
      }
      EXPECT_TRUE(declared) << spec.name << " expects a violation of an "
                            << "invariant it never requires";
      bool known = false;
      for (const std::string& c : defaults.controllers) {
        known = known || c == e.controller;
      }
      EXPECT_TRUE(known) << spec.name << " expects a violation from '"
                         << e.controller << "', not a default controller";
    }
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
      << "duplicate scenario names";

  EXPECT_TRUE(FindBuiltinScenario("metastable_trap").has_value());
  EXPECT_FALSE(FindBuiltinScenario("no_such_scenario").has_value());
}

// --- Matrix runner ------------------------------------------------------------

// A deliberately small scenario so the determinism matrix stays cheap.
ScenarioSpec MiniStorm() {
  return ScenarioSpec::Make("mini_storm", "boutique")
      .Seed(5)
      .Duration(20.0)
      .Phase(0.0, 200.0)
      .Phase(5.0, 1200.0)
      .Phase(15.0, 200.0)
      .Client(/*timeout_s=*/2.0, /*retries=*/1, /*backoff_s=*/0.2)
      .Rpc(/*timeout_s=*/0.5, /*retries=*/1, /*backoff_s=*/0.05)
      .StaticRate(600.0)
      .Require(InvariantKind::kGoodputFloor, 1.0)
      .Require(InvariantKind::kMaxRetryAmplification, 50.0);
}

TEST(ScenarioMatrixTest, ReportByteIdenticalAcrossPoolSizesAndTracing) {
  const std::vector<ScenarioSpec> specs = {MiniStorm()};
  MatrixOptions options;
  options.controllers = {"breakwater", "static"};

  ThreadPool sequential(1);
  options.pool = &sequential;
  const std::string baseline =
      MatrixReportJson(RunScenarioMatrix(specs, options));
  ASSERT_NE(baseline.find("topfull.scenario_matrix.v1"), std::string::npos);

  ThreadPool wide(4);
  options.pool = &wide;
  EXPECT_EQ(MatrixReportJson(RunScenarioMatrix(specs, options)), baseline)
      << "matrix report depends on worker-pool size";

  // Tracing on: telemetry attaches a tracer + exports, but the verdict
  // stream must not move by a byte.
  const std::string trace_dir =
      ::testing::TempDir() + "scenario_matrix_trace";
  ASSERT_EQ(::setenv("TOPFULL_TRACE_DIR", trace_dir.c_str(), 1), 0);
  const std::string traced =
      MatrixReportJson(RunScenarioMatrix(specs, options));
  ASSERT_EQ(::unsetenv("TOPFULL_TRACE_DIR"), 0);
  EXPECT_EQ(traced, baseline) << "matrix report depends on tracing";
  std::filesystem::remove_all(trace_dir);
}

TEST(ScenarioMatrixTest, ErrorCellsNeverConform) {
  const CellVerdict unknown_controller =
      RunScenarioCell(MiniStorm(), "no_such_controller");
  EXPECT_FALSE(unknown_controller.error.empty());
  EXPECT_FALSE(unknown_controller.conforms);

  ScenarioSpec bad_app = MiniStorm();
  bad_app.app = "no_such_app";
  const CellVerdict unknown_app = RunScenarioCell(bad_app, "static");
  EXPECT_NE(unknown_app.error.find("unknown app"), std::string::npos);

  ScenarioSpec bad_faults = MiniStorm();
  bad_faults.Fault({CrashEvent("ProductCatalog", 1.0, 1), std::nullopt});
  const CellVerdict bad_fault_cell = RunScenarioCell(bad_faults, "static");
  EXPECT_NE(bad_fault_cell.error.find("unknown service"), std::string::npos);

  ScenarioSpec bad_spec = MiniStorm();
  bad_spec.replicas = 2;
  const CellVerdict bad_spec_cell = RunScenarioCell(bad_spec, "static");
  EXPECT_NE(bad_spec_cell.error.find("needs app=alibaba"), std::string::npos);

  EXPECT_FALSE(AllConform({unknown_controller}));
}

// The ISSUE's acceptance demonstration: in the metastable scenario the
// static limiter must stay trapped (its declared violations trip) while
// TopFull escapes within the budget. Guards the calibrated library.
TEST(ScenarioMatrixTest, MetastableTrapsStaticWhileTopFullEscapes) {
  const auto spec = FindBuiltinScenario("metastable_trap");
  ASSERT_TRUE(spec.has_value());

  const CellVerdict trapped = RunScenarioCell(*spec, "static");
  EXPECT_TRUE(trapped.error.empty()) << trapped.error;
  EXPECT_FALSE(trapped.pass) << "static escaped the metastable trap";
  EXPECT_TRUE(trapped.conforms) << "static's violations must all be declared";
  bool escape_violated = false;
  for (const InvariantResult& r : trapped.invariants) {
    if (r.invariant.kind == InvariantKind::kEscapesOverloadBy) {
      escape_violated = !r.ok;
      EXPECT_TRUE(r.expected_violation);
    }
  }
  EXPECT_TRUE(escape_violated) << "static cleared overload inside the budget";

  const CellVerdict escaped = RunScenarioCell(*spec, "topfull");
  EXPECT_TRUE(escaped.error.empty()) << escaped.error;
  EXPECT_TRUE(escaped.pass) << "topfull failed to escape the trap";
  EXPECT_TRUE(escaped.conforms);
  EXPECT_GT(escaped.goodput_rps, trapped.goodput_rps)
      << "escaping should out-serve staying trapped";
}

}  // namespace
}  // namespace topfull::scenario
