// Tests for the deterministic fault-injection engine (src/fault): the
// no-perturbation contract, every fault type end to end, the textual
// profile parser, seeded chaos schedules, and the acceptance bar of the
// subsystem — byte-identical metrics timelines for a fixed fault profile
// across thread-pool sizes and with tracing on/off.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autoscale/cluster.hpp"
#include "common/thread_pool.hpp"
#include "exp/run_executor.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "fault/profile.hpp"
#include "obs/trace.hpp"
#include "sim/app.hpp"
#include "workload/generators.hpp"

namespace topfull {
namespace {

// --- Fixture: a two-tier app driven by a deterministic arrival clock --------

constexpr sim::ServiceId kFront = 0;
constexpr sim::ServiceId kBack = 1;

std::unique_ptr<sim::Application> MakeTwoTierApp(std::uint64_t seed = 7) {
  auto app = std::make_unique<sim::Application>("faultfix", seed);
  sim::ServiceConfig front;
  front.name = "front";
  front.mean_service_ms = 4.0;
  front.threads = 4;
  front.initial_pods = 2;
  app->AddService(front);
  sim::ServiceConfig back;
  back.name = "back";
  back.mean_service_ms = 10.0;
  back.threads = 4;
  back.initial_pods = 4;
  app->AddService(back);
  sim::ApiSpec spec("get", 1);
  spec.AddPath(sim::ExecutionPath{sim::Chain({kFront, kBack}), 1.0, {}});
  app->AddApi(std::move(spec));
  app->Finalize();
  return app;
}

/// Fixed-period open-loop arrivals: no RNG, so any divergence a test sees
/// comes from the injector, never the workload.
void DrivePeriodic(sim::Application& app, SimTime period, SimTime until) {
  app.sim().SchedulePeriodic(period, period, [&app, until](){
    if (app.sim().Now() <= until) app.Submit(0);
  });
}

/// Serialises the full metrics timeline (plus RPC counters and, when given,
/// the fault log) with every float at full precision. Equal digests mean
/// byte-identical observable results.
std::string Digest(const sim::Application& app,
                   const std::vector<fault::FaultRecord>* log = nullptr) {
  std::string out;
  char buf[512];
  for (const auto& snap : app.metrics().Timeline()) {
    std::snprintf(buf, sizeof buf, "t=%.17g\n", snap.t_end_s);
    out += buf;
    for (const auto& a : snap.apis) {
      std::snprintf(buf, sizeof buf,
                    "api o=%llu a=%llu re=%llu rs=%llu c=%llu g=%llu "
                    "p50=%.17g p95=%.17g p99=%.17g mean=%.17g\n",
                    static_cast<unsigned long long>(a.offered),
                    static_cast<unsigned long long>(a.admitted),
                    static_cast<unsigned long long>(a.rejected_entry),
                    static_cast<unsigned long long>(a.rejected_service),
                    static_cast<unsigned long long>(a.completed),
                    static_cast<unsigned long long>(a.good), a.latency_p50_ms,
                    a.latency_p95_ms, a.latency_p99_ms, a.latency_mean_ms);
      out += buf;
    }
    for (const auto& s : snap.services) {
      std::snprintf(buf, sizeof buf,
                    "svc util=%.17g avgq=%.17g maxq=%.17g pods=%d out=%d\n",
                    s.cpu_utilization, s.avg_queue_delay_s, s.max_queue_delay_s,
                    s.running_pods, s.outstanding);
      out += buf;
    }
  }
  std::snprintf(buf, sizeof buf, "timeouts=%llu retries=%llu inflight=%d\n",
                static_cast<unsigned long long>(app.HopTimeouts()),
                static_cast<unsigned long long>(app.Retries()), app.Inflight());
  out += buf;
  if (log != nullptr) {
    for (const auto& r : *log) {
      std::snprintf(buf, sizeof buf, "fault t=%lld %s %s %s sev=%.17g n=%d\n",
                    static_cast<long long>(r.at), fault::FaultTypeName(r.type),
                    fault::FaultActionName(r.action), r.service.c_str(),
                    r.severity, r.count);
      out += buf;
    }
  }
  return out;
}

/// Average completions per metrics window over [from_s, to_s).
double CompletedRate(const sim::Application& app, double from_s, double to_s) {
  double sum = 0.0;
  int windows = 0;
  for (const auto& snap : app.metrics().Timeline()) {
    if (snap.t_end_s > from_s && snap.t_end_s <= to_s) {
      sum += static_cast<double>(snap.apis[0].completed);
      ++windows;
    }
  }
  return windows > 0 ? sum / windows : 0.0;
}

double GoodRate(const sim::Application& app, double from_s, double to_s) {
  double sum = 0.0;
  int windows = 0;
  for (const auto& snap : app.metrics().Timeline()) {
    if (snap.t_end_s > from_s && snap.t_end_s <= to_s) {
      sum += static_cast<double>(snap.apis[0].good);
      ++windows;
    }
  }
  return windows > 0 ? sum / windows : 0.0;
}

// --- No-perturbation contract ------------------------------------------------

TEST(FaultInjectorTest, EmptyScheduleLeavesRunByteIdentical) {
  auto baseline = MakeTwoTierApp();
  DrivePeriodic(*baseline, Millis(5), Seconds(5));
  baseline->RunFor(Seconds(6));

  auto injected = MakeTwoTierApp();
  fault::FaultInjector injector(injected.get(), fault::FaultSchedule{});
  injector.Arm();
  DrivePeriodic(*injected, Millis(5), Seconds(5));
  injected->RunFor(Seconds(6));

  EXPECT_EQ(Digest(*baseline), Digest(*injected));
  EXPECT_EQ(injector.InjectionCount(), 0);
}

TEST(FaultInjectorTest, EventsBeyondHorizonDoNotPerturb) {
  auto baseline = MakeTwoTierApp();
  DrivePeriodic(*baseline, Millis(5), Seconds(5));
  baseline->RunFor(Seconds(6));

  auto injected = MakeTwoTierApp();
  fault::FaultSchedule schedule;
  schedule.CrashPods("back", Seconds(100), 2)
      .ErrorBurst("front", Seconds(200), Seconds(10), 0.5);
  fault::FaultInjector injector(injected.get(), schedule);
  injector.Arm();
  DrivePeriodic(*injected, Millis(5), Seconds(5));
  injected->RunFor(Seconds(6));

  EXPECT_EQ(Digest(*baseline), Digest(*injected));
  EXPECT_TRUE(injector.Log().empty());
}

// --- Pod crash + staggered restart -------------------------------------------

TEST(FaultInjectorTest, CrashThenStaggeredRestartRebuildsPodCount) {
  auto app = MakeTwoTierApp();
  fault::FaultSchedule schedule;
  schedule.CrashPods("back", Seconds(2), /*pods=*/3,
                     /*restart_delay=*/Seconds(3), /*restart_stagger=*/Seconds(1));
  fault::FaultInjector injector(app.get(), schedule);
  injector.Arm();
  DrivePeriodic(*app, Millis(10), Seconds(9));

  std::vector<int> pods_at;  // probes at 2.5, 5.5, 6.5, 7.5 s
  for (const double t : {2.5, 5.5, 6.5, 7.5}) {
    app->sim().ScheduleAt(static_cast<SimTime>(t * 1e6), [&app, &pods_at]() {
      pods_at.push_back(app->service(kBack).RunningPods());
    });
  }
  app->RunFor(Seconds(10));

  // 4 -> 1 at t=2; restarts at t=5, 6, 7 rebuild to 4.
  ASSERT_EQ(pods_at.size(), 4u);
  EXPECT_EQ(pods_at[0], 1);
  EXPECT_EQ(pods_at[1], 2);
  EXPECT_EQ(pods_at[2], 3);
  EXPECT_EQ(pods_at[3], 4);
  EXPECT_EQ(app->service(kBack).DesiredPods(), 4);

  ASSERT_EQ(injector.Log().size(), 4u);  // 1 apply + 3 restarts
  EXPECT_EQ(injector.Log()[0].action, fault::FaultRecord::Action::kApply);
  EXPECT_EQ(injector.Log()[0].count, 3);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(injector.Log()[i].action, fault::FaultRecord::Action::kRestart);
    EXPECT_EQ(injector.Log()[i].count, 1);
  }
  EXPECT_EQ(injector.InjectionCount(), 4);
}

// --- Capacity degradation ----------------------------------------------------

TEST(FaultInjectorTest, CapacityDegradeCapsThroughputAndSaturatesUtilization) {
  // back: 4 pods x 4 threads / 10 ms = 1600 rps capacity; at factor 0.25
  // each pod keeps 1 effective thread -> 400 rps. Offered 800 rps.
  auto app = MakeTwoTierApp();
  fault::FaultSchedule schedule;
  schedule.DegradeCapacity("back", Seconds(3), Seconds(4), 0.25);
  fault::FaultInjector injector(app.get(), schedule);
  injector.Arm();
  DrivePeriodic(*app, SimTime{1250}, Seconds(11));  // 800 rps
  app->RunFor(Seconds(12));

  const double before = CompletedRate(*app, 1, 3);
  const double during = CompletedRate(*app, 4, 7);
  const double after = CompletedRate(*app, 9, 11);  // backlog drained by t=9
  EXPECT_GT(before, 700.0);
  EXPECT_LT(during, 500.0);   // capped near 400 rps
  EXPECT_GT(after, 700.0);    // revert restores capacity

  // The degraded service must read as saturated to any observer (the
  // utilization denominator is effective threads, not configured threads).
  double max_util_during = 0.0;
  for (const auto& snap : app->metrics().Timeline()) {
    if (snap.t_end_s > 4 && snap.t_end_s <= 7) {
      max_util_during = std::max(max_util_during,
                                 snap.services[kBack].cpu_utilization);
    }
  }
  EXPECT_GT(max_util_during, 0.95);
  EXPECT_DOUBLE_EQ(app->service(kBack).CapacityFactor(), 1.0);  // reverted
}

// --- Service-time inflation --------------------------------------------------

TEST(FaultInjectorTest, ServiceTimeInflationRaisesLatency) {
  auto app = MakeTwoTierApp();
  fault::FaultSchedule schedule;
  schedule.InflateServiceTime("back", Seconds(3), Seconds(3), 3.0);
  fault::FaultInjector injector(app.get(), schedule);
  injector.Arm();
  DrivePeriodic(*app, Millis(10), Seconds(9));  // light load: no queueing
  app->RunFor(Seconds(10));

  auto p50_over = [&](double from_s, double to_s) {
    double worst = 0.0;
    for (const auto& snap : app->metrics().Timeline()) {
      if (snap.t_end_s > from_s && snap.t_end_s <= to_s) {
        worst = std::max(worst, snap.apis[0].latency_p50_ms);
      }
    }
    return worst;
  };
  const double before = p50_over(1, 3);
  const double during = p50_over(4, 6);
  const double after = p50_over(8, 10);
  EXPECT_GT(during, 2.0 * before);  // ~+2x the back tier's 10 ms share
  EXPECT_LT(after, 1.5 * before);   // revert restores the baseline
  EXPECT_DOUBLE_EQ(app->service(kBack).ServiceTimeFactor(), 1.0);
}

// --- Blackhole + hop timeout -------------------------------------------------

TEST(FaultInjectorTest, BlackholeTimesOutThenRecovers) {
  auto app = MakeTwoTierApp();
  app->ConfigureRpc(Millis(50), /*max_retries=*/0, /*retry_backoff=*/0);
  fault::FaultSchedule schedule;
  schedule.Blackhole("back", Seconds(2), Seconds(2));
  EXPECT_TRUE(schedule.NeedsHopTimeout());
  fault::FaultInjector injector(app.get(), schedule);
  injector.Arm();
  DrivePeriodic(*app, Millis(10), Seconds(7));
  app->RunFor(Seconds(8));

  EXPECT_GT(app->service(kBack).BlackholedDispatches(), 0u);
  EXPECT_GT(app->HopTimeouts(), 0u);
  EXPECT_NEAR(GoodRate(*app, 3, 4), 0.0, 1.0);   // nothing completes inside
  EXPECT_GT(GoodRate(*app, 4, 7), 90.0);          // full recovery after revert
  EXPECT_FALSE(app->service(kBack).Blackholed());
  EXPECT_EQ(app->Inflight(), 0);  // timeouts drained every in-flight request
}

// --- Error bursts and bounded retries ----------------------------------------

TEST(FaultInjectorTest, ErrorBurstShedsAndRetriesRecoverGoodput) {
  auto run = [](int max_retries) {
    auto app = MakeTwoTierApp();
    app->ConfigureRpc(/*hop_timeout=*/0, max_retries, /*retry_backoff=*/Millis(1));
    fault::FaultSchedule schedule;
    schedule.ErrorBurst("back", Seconds(2), Seconds(4), 0.5);
    fault::FaultInjector injector(app.get(), schedule);
    injector.Arm();
    DrivePeriodic(*app, Millis(10), Seconds(7));
    app->RunFor(Seconds(8));
    EXPECT_GT(app->service(kBack).InjectedErrors(), 0u);
    EXPECT_DOUBLE_EQ(app->service(kBack).ErrorRate(), 0.0);  // reverted
    return std::make_pair(GoodRate(*app, 3, 6), app->Retries());
  };
  const auto [no_retry_good, no_retry_count] = run(0);
  const auto [retry_good, retry_count] = run(2);
  EXPECT_EQ(no_retry_count, 0u);
  EXPECT_GT(retry_count, 0u);
  // p=0.5 drops ~half without retries; two retries push survival to ~87%.
  EXPECT_LT(no_retry_good, 65.0);
  EXPECT_GT(retry_good, 80.0);
  EXPECT_GT(retry_good, no_retry_good * 1.3);
}

TEST(FaultInjectorTest, RetriesAreBoundedPerHop) {
  auto app = MakeTwoTierApp();
  app->ConfigureRpc(/*hop_timeout=*/0, /*max_retries=*/2, /*retry_backoff=*/0);
  fault::FaultSchedule schedule;
  schedule.ErrorBurst("back", 0, /*duration=*/0, 1.0);  // permanent, fails all
  fault::FaultInjector injector(app.get(), schedule);
  injector.Arm();
  int submitted = 0;
  app->sim().SchedulePeriodic(Millis(10), Millis(10), [&]() {
    if (app->sim().Now() <= Seconds(2)) {
      app->Submit(0);
      ++submitted;
    }
  });
  app->RunFor(Seconds(3));

  EXPECT_GT(submitted, 0);
  // Every request reaches the back hop once and retries exactly twice.
  EXPECT_EQ(app->Retries(), static_cast<std::uint64_t>(submitted) * 2);
  EXPECT_NEAR(GoodRate(*app, 0, 3), 0.0, 0.01);
}

// --- VM outage (autoscale cluster) -------------------------------------------

TEST(FaultInjectorTest, VmOutageCordonsAttachedCluster) {
  auto app = MakeTwoTierApp();
  autoscale::ClusterConfig config;
  config.initial_vms = 3;
  config.vcpus_per_vm = 8.0;
  autoscale::Cluster cluster(&app->sim(), config);

  fault::FaultSchedule schedule;
  schedule.VmOutage(Seconds(1), Seconds(2), /*vms=*/2);
  fault::FaultInjector injector(app.get(), schedule);
  injector.AttachCluster(&cluster);
  injector.Arm();

  std::vector<double> ready;
  for (const double t : {1.5, 4.5}) {
    app->sim().ScheduleAt(static_cast<SimTime>(t * 1e6), [&cluster, &ready]() {
      ready.push_back(cluster.ReadyVcpus());
    });
  }
  app->RunFor(Seconds(5));

  ASSERT_EQ(ready.size(), 2u);
  EXPECT_DOUBLE_EQ(ready[0], 8.0);   // 2 of 3 VMs cordoned
  EXPECT_DOUBLE_EQ(ready[1], 24.0);  // uncordoned on revert
  EXPECT_EQ(cluster.CordonedVms(), 0);
}

TEST(FaultInjectorTest, VmOutageWithoutClusterIsSkipped) {
  auto app = MakeTwoTierApp();
  fault::FaultSchedule schedule;
  schedule.VmOutage(Seconds(1), Seconds(1), 1);
  fault::FaultInjector injector(app.get(), schedule);
  injector.Arm();
  app->RunFor(Seconds(3));
  ASSERT_EQ(injector.Log().size(), 1u);
  EXPECT_EQ(injector.Log()[0].action, fault::FaultRecord::Action::kSkipped);
  EXPECT_EQ(injector.InjectionCount(), 0);
}

TEST(FaultInjectorTest, UnknownServiceIsSkippedNotFatal) {
  auto app = MakeTwoTierApp();
  fault::FaultSchedule schedule;
  schedule.CrashPods("no-such-service", Seconds(1), 1);
  fault::FaultInjector injector(app.get(), schedule);
  injector.Arm();
  app->RunFor(Seconds(2));
  ASSERT_EQ(injector.Log().size(), 1u);
  EXPECT_EQ(injector.Log()[0].action, fault::FaultRecord::Action::kSkipped);
}

// --- Acceptance: byte-identical across pool sizes and tracing on/off ---------

exp::RunSpec FixtureSpec() {
  exp::RunSpec spec;
  spec.label = "fixture";
  spec.duration_s = 10.0;
  spec.make_app = []() {
    auto app = MakeTwoTierApp(/*seed=*/21);
    app->ConfigureRpc(Millis(100), /*max_retries=*/1, Millis(5));
    return app;
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application&) {
    traffic.AddOpenLoop(0, workload::Schedule::Constant(500));
  };
  spec.faults.CrashPods("back", Seconds(2), 2, Seconds(3), Seconds(1))
      .DegradeCapacity("front", Seconds(4), Seconds(2), 0.5)
      .ErrorBurst("back", Seconds(6), Seconds(2), 0.3)
      .Blackhole("back", Seconds(8), Millis(500));
  return spec;
}

TEST(FaultDeterminismTest, ByteIdenticalAcrossThreadPoolSizes) {
  // Same fixed fault profile run three times per pool; TOPFULL_THREADS in
  // {1, 4} is modelled by explicit pools of those sizes.
  const std::vector<exp::RunSpec> specs(3, FixtureSpec());
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const auto serial = exp::RunExecutor(&pool1).Execute(specs);
  const auto parallel = exp::RunExecutor(&pool4).Execute(specs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].fault_log.empty());
    EXPECT_EQ(Digest(serial[i].app(), &serial[i].fault_log),
              Digest(parallel[i].app(), &parallel[i].fault_log))
        << "run " << i;
  }
  // All three runs of the identical spec agree with each other too.
  EXPECT_EQ(Digest(serial[0].app(), &serial[0].fault_log),
            Digest(serial[2].app(), &serial[2].fault_log));
}

TEST(FaultDeterminismTest, ByteIdenticalWithTracingOnAndOff) {
  auto run = [](bool traced) {
    const exp::RunSpec spec = FixtureSpec();
    auto app = spec.make_app();
    obs::RequestTracer tracer;  // sample_rate = 1: trace everything
    if (traced) app->SetObserver(&tracer);
    fault::FaultInjector injector(app.get(), spec.faults, spec.fault_seed);
    injector.Arm();
    workload::TrafficDriver traffic(app.get());
    spec.traffic(traffic, *app);
    app->RunFor(Seconds(spec.duration_s));
    const std::uint64_t sampled = tracer.counters().sampled;
    return std::make_pair(Digest(*app, &injector.Log()), sampled);
  };
  const auto [off_digest, off_sampled] = run(false);
  const auto [on_digest, on_sampled] = run(true);
  EXPECT_EQ(off_sampled, 0u);
  EXPECT_GT(on_sampled, 0u);  // the tracer really observed the run
  EXPECT_EQ(off_digest, on_digest);
}

// --- Profile parser ----------------------------------------------------------

TEST(FaultProfileTest, ParsesEveryKind) {
  auto app = MakeTwoTierApp();
  std::string error;
  const auto schedule = fault::ParseFaultProfile(
      "crash:svc=back,at=50,pods=3,restart=60,stagger=1;"
      "degrade:svc=front,at=30,for=40,factor=0.5;"
      "inflate:svc=back,at=30,for=40,factor=2.5;"
      "blackhole:svc=back,at=20,for=10;"
      "errors:svc=front,at=20,for=15,p=0.3;"
      "vmout:at=40,for=30,vms=2",
      *app, &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  ASSERT_EQ(schedule->size(), 6u);
  const auto& events = schedule->events();
  EXPECT_EQ(events[0].type, fault::FaultType::kPodCrash);
  EXPECT_EQ(events[0].service, "back");
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
  auto app = MakeTwoTierApp();
  std::string error;
  const auto schedule =
      fault::ParseFaultProfile("chaos:seed=7,events=5,horizon=60", *app, &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  EXPECT_EQ(schedule->size(), 5u);
}

TEST(FaultProfileTest, RejectsMalformedSpecs) {
  auto app = MakeTwoTierApp();
  for (const char* bad : {
           "explode:svc=back,at=1",          // unknown kind
           "crash:svc=nosuch,at=1",          // unknown service
           "crash:svc=back,at=",             // missing value
           "crash:svc=back,when=1",          // unknown key
           "degrade:svc=back,at=1,factor=x", // non-numeric
       }) {
    std::string error;
    EXPECT_FALSE(fault::ParseFaultProfile(bad, *app, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- Chaos schedules ---------------------------------------------------------

TEST(ChaosScheduleTest, SameSeedSameSchedule) {
  auto app = MakeTwoTierApp();
  fault::ChaosOptions options;
  options.seed = 42;
  options.events = 6;
  const auto a = fault::MakeChaosSchedule(*app, options);
  const auto b = fault::MakeChaosSchedule(*app, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    EXPECT_EQ(a.events()[i].service, b.events()[i].service);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
    EXPECT_EQ(a.events()[i].pods, b.events()[i].pods);
    EXPECT_DOUBLE_EQ(a.events()[i].severity, b.events()[i].severity);
  }
  options.seed = 43;
  const auto c = fault::MakeChaosSchedule(*app, options);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].type != c.events()[i].type ||
              a.events()[i].at != c.events()[i].at ||
              a.events()[i].service != c.events()[i].service;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosScheduleTest, EventsRespectOptionBounds) {
  auto app = MakeTwoTierApp();
  fault::ChaosOptions options;
  options.seed = 9;
  options.events = 12;
  options.start_s = 10.0;
  options.horizon_s = 100.0;
  const auto schedule = fault::MakeChaosSchedule(*app, options);
  ASSERT_EQ(schedule.size(), 12u);
  SimTime prev = 0;
  for (const auto& e : schedule.events()) {
    EXPECT_NE(e.type, fault::FaultType::kBlackhole);  // opt-in only
    EXPECT_GE(e.at, Seconds(10));
    EXPECT_LE(e.at, Seconds(80));  // start .. 0.8 x horizon
    EXPECT_GE(e.at, prev);         // sorted by injection time
    prev = e.at;
    switch (e.type) {
      case fault::FaultType::kCapacityDegrade:
        EXPECT_GE(e.severity, 0.2);
        EXPECT_LE(e.severity, 0.8);
        break;
      case fault::FaultType::kServiceTimeInflate:
        EXPECT_GE(e.severity, 1.5);
        EXPECT_LE(e.severity, 4.0);
        break;
      case fault::FaultType::kErrorBurst:
        EXPECT_GE(e.severity, 0.1);
        EXPECT_LE(e.severity, 0.5);
        break;
      case fault::FaultType::kPodCrash:
        EXPECT_GE(e.pods, 1);
        break;
      default:
        break;
    }
  }
}

}  // namespace
}  // namespace topfull
