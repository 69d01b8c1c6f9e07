// Byte-identity regression test for the allocation-free engine rewrite.
//
// The inline-event timer queue, arena-pooled request records, and cancellable
// hop timeouts must not change a single observable byte: these digests were
// captured from the pre-rewrite engine (shared_ptr control blocks +
// std::priority_queue + std::function events) on the reference toolchain and
// the rewritten engine must reproduce them exactly — same (when, seq)
// tie-break order, same RNG stream, same metrics timeline at every
// ThreadPool size.
//
// The golden constants are toolchain-sensitive only through libm (latency
// percentiles go through exp/log in service-time sampling); set
// TOPFULL_STRICT_GOLDEN=0 to skip the absolute-digest checks on a foreign
// libm. Cross-pool-size identity is checked unconditionally.
//
// Keep the config code EXACTLY in sync with the capture tool used to mint
// the goldens (see DESIGN.md §10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/app.hpp"
#include "workload/generators.hpp"

namespace topfull {
namespace {

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Full-precision serialization of everything a run can observe: the entire
/// metrics timeline, RPC counters, and the fault log.
std::string Serialize(const sim::Application& app,
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

/// Reduced fig08 config: Online Boutique under closed-loop overload, one run
/// per variant. `static_rate` only matters for the static-limit variant.
std::vector<exp::RunSpec> Fig08SpecsFor(const std::vector<exp::Variant>& variants,
                                        double static_rate = 0.0) {
  std::vector<exp::RunSpec> specs;
  for (const exp::Variant variant : variants) {
    exp::RunSpec spec;
    spec.label = exp::VariantName(variant);
    spec.duration_s = 12.0;
    spec.variant = variant;
    spec.static_rate = static_rate;
    spec.make_app = [variant] {
      apps::BoutiqueOptions options;
      options.seed = 17;
      options.distinct_priorities = variant == exp::Variant::kDagor;
      return apps::MakeOnlineBoutique(options);
    };
    spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
      workload::ClosedLoopConfig users = exp::UniformUsers(app);
      users.mix.weights = {1.0, 1.2, 0.9, 0.9, 1.0};
      traffic.AddClosedLoop(users, workload::Schedule::Constant(1500));
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// One MIMD-controlled run and one DAGOR run.
std::vector<exp::RunSpec> Fig08Specs() {
  return Fig08SpecsFor({exp::Variant::kTopFullMimd, exp::Variant::kDagor});
}

/// The token-bucket baselines: Breakwater and WISP gate every hop, the static
/// limit gates the entry. 1500 users offer about 300 rps per API, so the
/// 150 rps static limit binds and refuses about 60 % at the entry.
std::vector<exp::RunSpec> Fig08BaselineSpecs() {
  return Fig08SpecsFor({exp::Variant::kBreakwater, exp::Variant::kWisp,
                        exp::Variant::kStaticLimit},
                       /*static_rate=*/150.0);
}

/// Reduced fig18 config: Train Ticket with hop timeouts + one retry, 10
/// ts-station pods crashed at t=6 s and rolled back in from t=12 s.
std::vector<exp::RunSpec> Fig18Specs() {
  std::vector<exp::RunSpec> specs;
  for (const exp::Variant variant :
       {exp::Variant::kTopFullMimd, exp::Variant::kNoControl}) {
    exp::RunSpec spec;
    spec.label = exp::VariantName(variant);
    spec.duration_s = 18.0;
    spec.variant = variant;
    spec.topfull_config.recovery_step = 0.5;
    spec.topfull_config.deactivate_when_slack = true;
    spec.make_app = [] {
      apps::TrainTicketOptions options;
      options.seed = 83;
      auto app = apps::MakeTrainTicket(options);
      app->ConfigureRpc(Millis(800), /*max_retries=*/1, Millis(50));
      return app;
    };
    spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
      traffic.AddClosedLoop(exp::UniformUsers(app),
                            workload::Schedule::Constant(900));
    };
    spec.faults.CrashPods("ts-station", Seconds(6), 10, Seconds(6), Seconds(1));
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Blocking-RPC chain under overload with tight hop timeouts: covers the
/// held-worker-slot dispatch path and the timeout/late-completion race.
std::vector<exp::RunSpec> BlockingSpecs() {
  exp::RunSpec spec;
  spec.label = "blocking-chain";
  spec.duration_s = 15.0;
  spec.make_app = [] {
    auto app = std::make_unique<sim::Application>("blocking-chain", 29);
    const char* names[] = {"front", "mid", "back"};
    for (int i = 0; i < 3; ++i) {
      sim::ServiceConfig config;
      config.name = names[i];
      config.mean_service_ms = 4.0 + 3.0 * i;
      config.threads = 4;
      config.initial_pods = 2;
      config.max_queue = 64;
      config.blocking_rpc = i < 2;  // front and mid hold worker slots
      app->AddService(config);
    }
    sim::ApiSpec spec_api("chain", 1);
    spec_api.AddPath(sim::ExecutionPath{sim::Chain({0, 1, 2}), 1.0, {}});
    app->AddApi(std::move(spec_api));
    app->Finalize();
    app->ConfigureRpc(Millis(60), /*max_retries=*/1, Millis(5));
    return app;
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(400));
  };
  std::vector<exp::RunSpec> specs;
  specs.push_back(std::move(spec));
  return specs;
}

/// Every timeout path at once: Train Ticket under DAGOR with hop timeouts,
/// two retries and a backoff, 12 ts-station pods crashed at t = 3 s, and the
/// hop timeout shortened at t = 5 s while timeouts of the old delay are
/// still pending; closed-loop users whose 1.2 s client timeouts both fire
/// and get cancelled, with one client retry after a backoff.
std::vector<exp::RunSpec> TimeoutSpecs() {
  exp::RunSpec spec;
  spec.label = "trainticket-timeouts";
  spec.duration_s = 10.0;
  spec.variant = exp::Variant::kDagor;
  spec.make_app = [] {
    apps::TrainTicketOptions options;
    options.seed = 91;
    auto app = apps::MakeTrainTicket(options);
    app->ConfigureRpc(Millis(700), /*max_retries=*/2, Millis(30));
    sim::Application* raw = app.get();
    app->sim().ScheduleAt(Seconds(5), [raw] {
      raw->ConfigureRpc(Millis(250), /*max_retries=*/2, Millis(30));
    });
    return app;
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    workload::ClosedLoopConfig users = exp::UniformUsers(app);
    users.client_timeout = Millis(1200);
    users.max_client_retries = 1;
    users.client_retry_backoff = Millis(150);
    traffic.AddClosedLoop(users, workload::Schedule::Constant(3000));
  };
  spec.faults.CrashPods("ts-station", Seconds(3), 12, Seconds(4), Seconds(1));
  std::vector<exp::RunSpec> specs;
  specs.push_back(std::move(spec));
  return specs;
}

/// A deep event queue: the Alibaba demo under MIMD with 20k closed-loop
/// users, so about 2e4 think timers are pending 0.9-1.1 s ahead at any
/// time. Two pods of the first overloadable service crash at t = 10 s and
/// restart from t = 11 s: the injector schedules the crash when it is armed
/// at t = 0, more than 8.4 s ahead of every other pending event.
std::vector<exp::RunSpec> DeepQueueSpecs() {
  exp::RunSpec spec;
  spec.label = "alibaba-deep-queue";
  spec.duration_s = 14.0;
  spec.variant = exp::Variant::kTopFullMimd;
  spec.make_app = [] { return apps::MakeAlibabaDemo().app; };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app), workload::Schedule::Constant(20000));
  };
  const apps::AlibabaDemo demo = apps::MakeAlibabaDemo();
  spec.faults.CrashPods(demo.app->service(demo.overloadable.at(0)).name(), Seconds(10),
                        2, Seconds(1), Seconds(1));
  std::vector<exp::RunSpec> specs;
  specs.push_back(std::move(spec));
  return specs;
}

std::uint64_t SweepDigest(const std::vector<exp::RunSpec>& specs, int pool_size) {
  ThreadPool pool(pool_size);
  const std::vector<exp::RunResult> results = exp::RunExecutor(&pool).Execute(specs);
  std::string all;
  for (const auto& r : results) {
    all += r.label;
    all += '\n';
    all += Serialize(r.app(), &r.fault_log);
  }
  return Fnv1a(all);
}

bool StrictGolden() {
  const char* env = std::getenv("TOPFULL_STRICT_GOLDEN");
  return env == nullptr || std::string(env) != "0";
}

void CheckCase(std::vector<exp::RunSpec> (*make)(), std::uint64_t golden) {
  const std::uint64_t d1 = SweepDigest(make(), /*pool_size=*/1);
  const std::uint64_t d4 = SweepDigest(make(), /*pool_size=*/4);
  EXPECT_EQ(d1, d4) << "run digest depends on ThreadPool size";
  if (StrictGolden()) {
    EXPECT_EQ(d1, golden)
        << "engine output diverged from the seed-engine golden digest "
        << "(set TOPFULL_STRICT_GOLDEN=0 on a foreign libm)";
  }
}

// Goldens captured from the pre-rewrite seed engine (commit 62e3978) with the
// same serialization, on the reference toolchain. Execute runs every spec
// through exp::Run.
TEST(EngineIdentityTest, Fig08BoutiqueMatchesSeedEngine) {
  CheckCase(Fig08Specs, 0xc68e4a7aac39ce8dull);
}

// Golden minted at commit 203b049, before the baselines' token buckets were
// swapped for common/TokenBucket; the swap must not move a byte.
TEST(EngineIdentityTest, Fig08BaselinesMatchParent) {
  CheckCase(Fig08BaselineSpecs, 0x12fbe5ccd886293eull);
}

TEST(EngineIdentityTest, Fig18TrainTicketWithFaultsMatchesSeedEngine) {
  CheckCase(Fig18Specs, 0x98c210e206ab2bceull);
}

TEST(EngineIdentityTest, BlockingChainTimeoutsMatchSeedEngine) {
  CheckCase(BlockingSpecs, 0x36cd526757bf7b35ull);
}

// Golden minted at commit c8a8155, where every pending event sat in one
// 4-ary heap; splitting the queue into a near heap and a far calendar ring
// must not move a byte.
TEST(EngineIdentityTest, AlibabaDeepQueueMatchesParent) {
  CheckCase(DeepQueueSpecs, 0x7cf5722549daa9f1ull);
  // The case really keeps a deep queue and applies the late fault.
  const exp::RunResult r = exp::Run(DeepQueueSpecs().at(0));
  EXPECT_GT(r.app().sim().PendingEvents(), 15000u);
  EXPECT_FALSE(r.fault_log.empty());
}

// Golden minted at commit 41045f5, where hop and client timeouts were
// cancellable slot events; the per-delay timer queues must not move a
// byte. Besides the timeline it pins every closed-loop user's outcome
// counters, so client timeouts and client retries are in the digest.
TEST(EngineIdentityTest, TimeoutsAndRetriesMatchParent) {
  const auto digest = [](int pool_size) {
    ThreadPool pool(pool_size);
    const std::vector<exp::RunResult> results =
        exp::RunExecutor(&pool).Execute(TimeoutSpecs());
    const exp::RunResult& r = results.at(0);
    std::string all = Serialize(r.app(), &r.fault_log);
    workload::UserOutcomes sum;
    for (const auto& pool_ptr : r.traffic->pools()) {
      for (const workload::UserOutcomes& u : pool_ptr->Outcomes()) {
        sum.intents += u.intents;
        sum.attempts += u.attempts;
        sum.ok += u.ok;
        sum.failed += u.failed;
      }
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "users intents=%llu attempts=%llu ok=%llu failed=%llu\n",
                  static_cast<unsigned long long>(sum.intents),
                  static_cast<unsigned long long>(sum.attempts),
                  static_cast<unsigned long long>(sum.ok),
                  static_cast<unsigned long long>(sum.failed));
    all += buf;
    // The case must really take each path: hop timeouts fire, hops retry,
    // and clients both give up (failed transactions) and retry.
    EXPECT_GT(r.app().HopTimeouts(), 0u);
    EXPECT_GT(r.app().Retries(), 0u);
    EXPECT_GT(sum.failed, 0u);
    EXPECT_GT(sum.attempts, sum.intents);
    EXPECT_GT(sum.ok, 0u);
    // Some completions outlive the client timeout, so those clients gave up
    // (their timeouts fired) while faster responses cancelled theirs.
    double worst_p99_ms = 0.0;
    for (const auto& snap : r.app().metrics().Timeline()) {
      for (const auto& a : snap.apis) {
        worst_p99_ms = std::max(worst_p99_ms, a.latency_p99_ms);
      }
    }
    EXPECT_GT(worst_p99_ms, 1200.0);
    return Fnv1a(all);
  };
  const std::uint64_t d1 = digest(1);
  EXPECT_EQ(d1, digest(4)) << "run digest depends on ThreadPool size";
  if (StrictGolden()) {
    EXPECT_EQ(d1, 0xa45f80393e740912ull)
        << "timeout paths diverged from the parent engine "
        << "(set TOPFULL_STRICT_GOLDEN=0 on a foreign libm)";
  }
}

// --- Hop-path faults ---------------------------------------------------------

/// Five services under open-loop overload, with every way a pod can end a
/// job other than a plain completion:
///   * "gate" holds its worker slot while "store" and "audit" run (blocking
///     RPC);
///   * "work" is overloaded, and one of its pods is crashed at t = 4 s while
///     it has queued jobs and jobs in service;
///   * "store" is degraded to half its threads at 2-6 s (busy servers above
///     the effective count) and injects errors at 8-10 s;
///   * "cache" is blackholed at 6-8 s, so only the 150 ms hop timeout and
///     one retry resolve its hops;
///   * "audit" is overloaded, so its liveness probes kill its pods.
struct HopFaultRun {
  std::unique_ptr<sim::Application> app;
  std::unique_ptr<obs::RequestTracer> tracer;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<workload::TrafficDriver> traffic;
  int crash_queued = -1;      ///< queue length of the crashed pod at the crash
  int crash_in_service = -1;  ///< its jobs in service at the crash
};

sim::ServiceConfig HopSvc(const char* name, double mean_ms, int threads, int pods,
                          int max_queue) {
  sim::ServiceConfig config;
  config.name = name;
  config.mean_service_ms = mean_ms;
  config.threads = threads;
  config.initial_pods = pods;
  config.max_queue = max_queue;
  return config;
}

HopFaultRun RunHopFaults(bool traced) {
  HopFaultRun run;
  run.app = std::make_unique<sim::Application>("hop-faults", 53);
  sim::Application& app = *run.app;
  sim::ServiceConfig gate = HopSvc("gate", 1.0, 32, 2, 128);
  gate.blocking_rpc = true;
  sim::ServiceConfig audit = HopSvc("audit", 8.0, 2, 2, 100);
  audit.probe_failures_enabled = true;
  audit.probe_period = Seconds(1);
  audit.probe_queue_threshold = 20;
  audit.probe_failure_count = 2;
  audit.restart_delay = Millis(1500);
  const sim::ServiceId g = app.AddService(gate);
  const sim::ServiceId w = app.AddService(HopSvc("work", 10.0, 4, 3, 40));
  const sim::ServiceId s = app.AddService(HopSvc("store", 4.0, 4, 2, 64));
  const sim::ServiceId c = app.AddService(HopSvc("cache", 2.0, 2, 2, 64));
  const sim::ServiceId a = app.AddService(audit);
  sim::ApiSpec browse("browse", 1);
  browse.AddPath(sim::ExecutionPath{sim::Chain({g, s, a}), 1.0, {}});
  const sim::ApiId browse_id = app.AddApi(std::move(browse));
  sim::ApiSpec compute("compute", 2);
  compute.AddPath(sim::ExecutionPath{sim::FanOut(w, {s, c}), 1.0, {}});
  const sim::ApiId compute_id = app.AddApi(std::move(compute));
  app.Finalize();
  app.ConfigureRpc(Millis(150), /*max_retries=*/1, Millis(5));
  if (traced) {
    obs::TraceConfig config;
    config.sample_rate = 1.0;
    run.tracer = std::make_unique<obs::RequestTracer>(config);
    app.SetObserver(run.tracer.get());
  }

  fault::FaultSchedule faults;
  faults.CrashPods("work", Seconds(4), 1, Seconds(2))
      .DegradeCapacity("store", Seconds(2), Seconds(4), 0.5)
      .Blackhole("cache", Seconds(6), Seconds(2))
      .ErrorBurst("store", Seconds(8), Seconds(2), 0.2);
  run.injector = std::make_unique<fault::FaultInjector>(&app, std::move(faults));
  run.injector->Arm();
  // Just before the crash, record the pod it will take: the first running
  // pod of "work".
  HopFaultRun* out = &run;
  app.sim().ScheduleAt(Seconds(4) - 1, [out, w] {
    sim::Service& svc = out->app->service(w);
    for (int i = 0; i < svc.PodCount(); ++i) {
      if (!svc.pod(i).running()) continue;
      out->crash_queued = svc.pod(i).QueueLength();
      out->crash_in_service = svc.pod(i).InService();
      return;
    }
  });

  run.traffic = std::make_unique<workload::TrafficDriver>(&app);
  run.traffic->AddOpenLoop(browse_id, workload::Schedule::Constant(600));
  run.traffic->AddOpenLoop(compute_id, workload::Schedule::Constant(1500));
  app.RunFor(Seconds(12));
  return run;
}

/// Every finished trace, span by span.
std::string SerializeTraces(const obs::RequestTracer& tracer) {
  std::string out;
  char buf[256];
  for (const obs::RequestTrace& t : tracer.finished()) {
    std::snprintf(buf, sizeof buf, "trace id=%llu api=%d %lld-%lld out=%d slo=%d\n",
                  static_cast<unsigned long long>(t.id), static_cast<int>(t.api),
                  static_cast<long long>(t.start), static_cast<long long>(t.end),
                  static_cast<int>(t.outcome), t.slo_ok ? 1 : 0);
    out += buf;
    for (const obs::HopSpan& h : t.spans) {
      std::snprintf(buf, sizeof buf, " span s=%d %lld-%lld q=%lld st=%lld ok=%d shed=%d\n",
                    static_cast<int>(h.service), static_cast<long long>(h.start),
                    static_cast<long long>(h.end), static_cast<long long>(h.queue_wait),
                    static_cast<long long>(h.service_time), h.ok ? 1 : 0,
                    h.shed ? 1 : 0);
      out += buf;
    }
  }
  std::snprintf(buf, sizeof buf, "active=%zu sampled=%llu dropped=%llu\n",
                tracer.ActiveCount(),
                static_cast<unsigned long long>(tracer.counters().sampled),
                static_cast<unsigned long long>(tracer.counters().dropped));
  out += buf;
  return out;
}

// Golden minted at commit 0c371a7, where pods completed jobs through
// per-job InlineFunction callbacks; completion by attempt token must not
// move a byte of the timeline, the fault log or any finished trace.
TEST(EngineIdentityTest, HopPathFaultsMatchParent) {
  const HopFaultRun run = RunHopFaults(/*traced=*/true);
  const sim::Application& app = *run.app;
  std::string all = Serialize(app, &run.injector->Log());
  char buf[160];
  for (int s = 0; s < app.NumServices(); ++s) {
    const sim::Service& svc = app.service(s);
    std::snprintf(buf, sizeof buf, "%s blackholed=%llu errors=%llu probe_kills=%d\n",
                  svc.name().c_str(),
                  static_cast<unsigned long long>(svc.BlackholedDispatches()),
                  static_cast<unsigned long long>(svc.InjectedErrors()),
                  svc.ProbeKills());
    all += buf;
  }
  all += SerializeTraces(*run.tracer);

  // The case really takes every path.
  EXPECT_GT(run.crash_queued, 0);
  EXPECT_GT(run.crash_in_service, 0);
  EXPECT_GT(app.service(4).ProbeKills(), 0);
  EXPECT_GT(app.service(3).BlackholedDispatches(), 0u);
  EXPECT_GT(app.service(2).InjectedErrors(), 0u);
  EXPECT_GT(app.HopTimeouts(), 0u);
  EXPECT_GT(app.Retries(), 0u);
  EXPECT_GT(run.tracer->finished().size(), 10000u);
  // Tracing is pass-through: the untraced run has the same timeline.
  const HopFaultRun plain = RunHopFaults(/*traced=*/false);
  EXPECT_EQ(Serialize(*plain.app, &plain.injector->Log()),
            Serialize(app, &run.injector->Log()));

  const std::uint64_t digest = Fnv1a(all);
  if (StrictGolden()) {
    EXPECT_EQ(digest, 0x96687cc54625bc2full) << "hop path diverged from the parent engine "
                              << "(set TOPFULL_STRICT_GOLDEN=0 on a foreign libm)";
  }
}

// --- Closed-loop users -------------------------------------------------------

/// Refuses every fifth request of API 1 at the gateway, so closed-loop users
/// also meet refusals, which complete inside Submit.
class EveryFifthRefused final : public sim::EntryAdmission {
 public:
  bool Admit(sim::ApiId api, SimTime) override {
    return api != 1 || ++seen_ % 5 != 0;
  }

 private:
  std::uint64_t seen_ = 0;
};

struct ClosedLoopRun {
  std::unique_ptr<sim::Application> app;
  std::unique_ptr<EveryFifthRefused> entry;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<workload::TrafficDriver> traffic;
};

/// Two closed-loop pools with pinned priority bands, 300 ms client timeouts
/// and one client retry. "cache" is blackholed at 3-6 s under 150 ms hop
/// timeouts with one hop retry, so a "lookup" through it fails only after
/// about 305 ms: its client has given up by then, and the late response
/// meets a stale epoch. "store" runs near saturation, so queueing alone
/// pushes some responses past the client timeout too. Pool 1 drops to 150
/// users at 4-7 s and climbs back, so users leave and are started again.
ClosedLoopRun RunClosedLoopUsers() {
  ClosedLoopRun run;
  run.app = std::make_unique<sim::Application>("closed-loop-users", 71);
  sim::Application& app = *run.app;
  const sim::ServiceId front = app.AddService(HopSvc("front", 1.0, 16, 2, 256));
  const sim::ServiceId cache = app.AddService(HopSvc("cache", 2.0, 4, 2, 128));
  const sim::ServiceId store = app.AddService(HopSvc("store", 6.0, 4, 2, 96));
  sim::ApiSpec lookup("lookup", 1);
  lookup.AddPath(sim::ExecutionPath{sim::Chain({front, cache, store}), 1.0, {}});
  app.AddApi(std::move(lookup));
  sim::ApiSpec write("write", 2);
  write.AddPath(sim::ExecutionPath{sim::FanOut(front, {store}), 1.0, {}});
  app.AddApi(std::move(write));
  app.Finalize();
  app.ConfigureRpc(Millis(150), /*max_retries=*/1, Millis(5));
  run.entry = std::make_unique<EveryFifthRefused>();
  app.SetEntryAdmission(run.entry.get());

  fault::FaultSchedule faults;
  faults.Blackhole("cache", Seconds(3), Seconds(3));
  run.injector = std::make_unique<fault::FaultInjector>(&app, std::move(faults));
  run.injector->Arm();

  run.traffic = std::make_unique<workload::TrafficDriver>(&app);
  workload::ClosedLoopConfig low;
  low.mix.weights = {1.0, 1.0};
  low.think = Millis(400);
  low.client_timeout = Millis(300);
  low.max_client_retries = 1;
  low.client_retry_backoff = Millis(50);
  low.user_priority_lo = 0;
  low.user_priority_hi = 63;
  run.traffic->AddClosedLoop(low, workload::Schedule::Constant(500));
  workload::ClosedLoopConfig high = low;
  high.mix.weights = {0.4, 1.0};
  high.think = Millis(700);
  high.user_priority_lo = 64;
  high.user_priority_hi = 127;
  run.traffic->AddClosedLoop(
      high, workload::Schedule::Spike(400, Seconds(4), Seconds(3), 150));
  app.RunFor(Seconds(10));
  return run;
}

// Golden minted at commit 4480155, where a request's completion was a
// std::function and each closed-loop user kept its state and its outcome
// counters in two arrays. The digest pins every user's counters, not their
// sum, beside the timeline and the fault log.
TEST(EngineIdentityTest, ClosedLoopUsersMatchParent) {
  const ClosedLoopRun run = RunClosedLoopUsers();
  const sim::Application& app = *run.app;
  std::string all = Serialize(app, &run.injector->Log());
  char buf[160];
  workload::UserOutcomes sum;
  const auto& pools = run.traffic->pools();
  for (std::size_t p = 0; p < pools.size(); ++p) {
    std::snprintf(buf, sizeof buf, "pool %zu live=%d\n", p, pools[p]->LiveUsers());
    all += buf;
    const std::vector<workload::UserOutcomes> users = pools[p]->Outcomes();
    for (std::size_t i = 0; i < users.size(); ++i) {
      const workload::UserOutcomes& u = users[i];
      std::snprintf(buf, sizeof buf, "user %zu i=%llu a=%llu ok=%llu f=%llu\n", i,
                    static_cast<unsigned long long>(u.intents),
                    static_cast<unsigned long long>(u.attempts),
                    static_cast<unsigned long long>(u.ok),
                    static_cast<unsigned long long>(u.failed));
      all += buf;
      sum.intents += u.intents;
      sum.attempts += u.attempts;
      sum.ok += u.ok;
      sum.failed += u.failed;
    }
  }

  // The case really takes every path: refusals, blackholed hops that time
  // out and retry, client retries and abandoned transactions.
  ASSERT_EQ(pools.size(), 2u);
  EXPECT_EQ(pools[0]->Outcomes().size(), 500u);
  EXPECT_EQ(pools[1]->Outcomes().size(), 400u);
  EXPECT_GT(app.service(1).BlackholedDispatches(), 0u);
  EXPECT_GT(app.HopTimeouts(), 0u);
  EXPECT_GT(app.Retries(), 0u);
  EXPECT_GT(sum.attempts, sum.intents);
  EXPECT_GT(sum.failed, 0u);
  EXPECT_GT(sum.ok, sum.failed);
  std::uint64_t refused = 0;
  for (const auto& snap : app.metrics().Timeline()) {
    refused += snap.apis.at(1).rejected_entry;
  }
  EXPECT_GT(refused, 0u);

  const std::uint64_t digest = Fnv1a(all);
  if (StrictGolden()) {
    EXPECT_EQ(digest, 0x45b352d1fb0d9c7dull) << "closed-loop users diverged from the parent engine "
                              << "(set TOPFULL_STRICT_GOLDEN=0 on a foreign libm)";
  }
}

}  // namespace
}  // namespace topfull
