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

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "sim/app.hpp"
#include "sim/sharded_app.hpp"
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
// through exp::Run, i.e. a sim::ShardedApp at shards = 1, so these goldens
// also pin the single-replica path to the unsharded seed engine.
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

// --- Sharded engine identity -------------------------------------------------

/// Serialization of a sharded run's merged observables, mirroring
/// Serialize() field-for-field plus the cross-shard call counter.
std::string SerializeSharded(const sim::ShardedApp& app,
                             const std::vector<fault::FaultRecord>& log) {
  std::string out;
  char buf[512];
  for (const auto& snap : app.MergedTimeline()) {
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
  std::snprintf(buf, sizeof buf,
                "timeouts=%llu retries=%llu inflight=%d remote=%llu\n",
                static_cast<unsigned long long>(app.HopTimeouts()),
                static_cast<unsigned long long>(app.Retries()), app.Inflight(),
                static_cast<unsigned long long>(app.RemoteCalls()));
  out += buf;
  for (const auto& r : log) {
    std::snprintf(buf, sizeof buf, "fault t=%lld %s %s %s sev=%.17g n=%d\n",
                  static_cast<long long>(r.at), fault::FaultTypeName(r.type),
                  fault::FaultActionName(r.action), r.service.c_str(),
                  r.severity, r.count);
    out += buf;
  }
  return out;
}

/// Digest of `specs` run at `shards` engine shards, merged observables.
std::uint64_t ShardedSweepDigest(std::vector<exp::RunSpec> specs, int shards,
                                 bool threaded) {
  std::string all;
  for (auto& spec : specs) {
    spec.shards = shards;
    spec.threaded = threaded;
    const exp::RunResult r = exp::Run(spec);
    all += r.label;
    all += '\n';
    all += SerializeSharded(*r.sharded, r.fault_log);
  }
  return Fnv1a(all);
}

// Golden captured from this engine at shards=4 on the reference toolchain
// (fig08 boutique, per-service split, 1 ms cross-shard latency). Pins the
// sharded protocol end to end: partitioner, window rounds, mailbox drain
// order, cross-shard RPC and the deterministic merge.
TEST(EngineIdentityTest, Fig08ShardsFourIsSelfConsistent) {
  const std::uint64_t threaded1 = ShardedSweepDigest(Fig08Specs(), 4, true);
  const std::uint64_t threaded2 = ShardedSweepDigest(Fig08Specs(), 4, true);
  const std::uint64_t sequential = ShardedSweepDigest(Fig08Specs(), 4, false);
  EXPECT_EQ(threaded1, threaded2) << "sharded digest differs across runs";
  EXPECT_EQ(threaded1, sequential)
      << "sharded digest depends on the execution mode";
  if (StrictGolden()) {
    EXPECT_EQ(threaded1, 0xf6c48484d7b87df9ull)
        << "sharded-engine output diverged from the pinned digest "
        << "(set TOPFULL_STRICT_GOLDEN=0 on a foreign libm)";
  }
}

}  // namespace
}  // namespace topfull
