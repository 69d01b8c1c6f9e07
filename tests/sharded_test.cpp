// Sharded parallel DES: window protocol, partitioner, and end-to-end
// sharded application runs (determinism, conservation, cross-shard RPC).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "common/partition.hpp"
#include "des/sharded_simulation.hpp"
#include "exp/csv.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "obs/http_server.hpp"
#include "obs/live.hpp"
#include "obs/rules.hpp"
#include "obs/tsdb_plane.hpp"
#include "sim/app.hpp"
#include "sim/shard_plan.hpp"
#include "sim/sharded_app.hpp"
#include "workload/generators.hpp"

namespace topfull {
namespace {

des::ShardedSimulation::Options EngineOptions(SimTime lookahead, bool threaded) {
  des::ShardedSimulation::Options options;
  options.lookahead = lookahead;
  options.threaded = threaded;
  return options;
}

constexpr SimTime kUnbounded = des::ShardedSimulation::kUnboundedLookahead;

// --- Window protocol ---------------------------------------------------------

TEST(ShardedSimulationTest, DeliversCrossShardMessagesAtExactTimestamps) {
  for (const bool threaded : {false, true}) {
    des::ShardedSimulation net(2, EngineOptions(Millis(2), threaded));
    std::vector<SimTime> delivered;
    net.shard(0).ScheduleAt(Millis(5), [&net, &delivered] {
      const SimTime when = net.shard(0).Now() + Millis(2);
      net.Post(0, 1, when, [&net, &delivered] {
        delivered.push_back(net.shard(1).Now());
      });
    });
    net.RunUntil(Millis(20));
    ASSERT_EQ(delivered.size(), 1u) << "threaded=" << threaded;
    EXPECT_EQ(delivered[0], Millis(7));
    EXPECT_EQ(net.Horizon(), Millis(20));
    EXPECT_EQ(net.shard(0).Now(), Millis(20));
    EXPECT_EQ(net.shard(1).Now(), Millis(20));
    EXPECT_EQ(net.TotalMessages(), 1u);
  }
}

TEST(ShardedSimulationTest, MessagesInFlightSurviveRunUntilBoundaries) {
  des::ShardedSimulation net(2, EngineOptions(Millis(5), false));
  SimTime delivered = -1;
  // Posted at t=9 ms for t=14 ms, but the first RunUntil stops at 10 ms.
  net.shard(0).ScheduleAt(Millis(9), [&] {
    net.Post(0, 1, Millis(14), [&] { delivered = net.shard(1).Now(); });
  });
  net.RunUntil(Millis(10));
  EXPECT_EQ(delivered, -1);
  net.RunUntil(Millis(20));
  EXPECT_EQ(delivered, Millis(14));
}

TEST(ShardedSimulationTest, SelfPostIsAPlainLocalEvent) {
  des::ShardedSimulation net(2, EngineOptions(Millis(5), false));
  SimTime t = -1;
  net.shard(0).ScheduleAt(Millis(1), [&] {
    net.Post(0, 0, Millis(2), [&] { t = net.shard(0).Now(); });
  });
  net.RunUntil(Millis(10));
  EXPECT_EQ(t, Millis(2));
  EXPECT_EQ(net.TotalMessages(), 0u);  // self-posts bypass the mailboxes
}

TEST(ShardedSimulationTest, ThreadedAndSequentialAreBitIdentical) {
  // A message storm bouncing between 3 shards; the (shard, time, id) log
  // must be identical with worker threads and without.
  auto run = [](bool threaded) {
    des::ShardedSimulation net(3, EngineOptions(Millis(1), threaded));
    // One log per shard: a shard's log is only ever touched by the thread
    // currently executing that shard, so the records stay race-free and
    // their order is the shard's own execution order.
    std::vector<std::vector<std::uint64_t>> log(3);
    // Chain: each hop records and forwards to the next shard until depth 0.
    struct Chain {
      des::ShardedSimulation* net;
      std::vector<std::vector<std::uint64_t>>* log;
      void Hop(int shard, int id, int depth) {
        (*log)[static_cast<std::size_t>(shard)].push_back(
            (static_cast<std::uint64_t>(net->shard(shard).Now()) << 8) ^
            static_cast<std::uint64_t>(id));
        if (depth == 0) return;
        const int to = (shard + 1) % 3;
        const SimTime when =
            net->shard(shard).Now() + Millis(1) + 100 * (id % 7);  // us jitter
        auto* self = this;
        net->Post(shard, to, when,
                  [self, to, id, depth] { self->Hop(to, id, depth - 1); });
      }
    };
    Chain chain{&net, &log};
    for (int id = 0; id < 40; ++id) {
      const int shard = id % 3;
      net.shard(shard).ScheduleAt(Millis(id % 11), [&chain, shard, id] {
        chain.Hop(shard, id, 6 + id % 5);
      });
    }
    net.RunUntil(Seconds(1));
    return log;
  };
  const auto sequential = run(false);
  const auto threaded = run(true);
  ASSERT_FALSE(sequential[0].empty());
  EXPECT_EQ(sequential, threaded);
}

TEST(ShardedSimulationTest, SingleShardBypassesTheProtocol) {
  des::ShardedSimulation net(1, EngineOptions(Millis(1), true));
  int fired = 0;
  net.shard(0).ScheduleAt(Millis(3), [&] { ++fired; });
  net.RunUntil(Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(net.Rounds(), 0u);  // no windows, no rounds
}

TEST(ShardedSimulationDeathTest, CrossShardPostOutsideTheLookaheadAborts) {
  // Both checks hold in every build type, not only where assert() is live.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        des::ShardedSimulation net(2, EngineOptions(kUnbounded, false));
        net.Post(0, 1, Millis(5), [] {});
      },
      "unbounded lookahead");
  EXPECT_DEATH(
      {
        des::ShardedSimulation net(2, EngineOptions(Millis(2), false));
        net.Post(0, 1, Millis(1), [] {});
      },
      "undercuts the lookahead");
}

/// One run of a local-only workload: every shard runs actors that log
/// (now, id) and reschedule themselves on a 250 us grid, so actors collide
/// on shared timestamps and the log pins each shard's (when, seq) order.
struct LocalOnlyRun {
  std::vector<std::vector<std::uint64_t>> log;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

constexpr int kRunUntilCalls = 5;
constexpr SimTime kLocalOnlyEnd = Seconds(1);

LocalOnlyRun RunLocalOnly(SimTime lookahead, bool threaded) {
  constexpr int kShards = 3;
  constexpr int kActors = 20;
  des::ShardedSimulation net(kShards, EngineOptions(lookahead, threaded));
  LocalOnlyRun run;
  run.log.resize(kShards);
  struct Actor {
    des::Simulation* sim;
    std::vector<std::uint64_t>* log;
    std::uint64_t id;
    std::uint64_t state;
    void Fire() {
      log->push_back((static_cast<std::uint64_t>(sim->Now()) << 12) ^ id);
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const SimTime delay = static_cast<SimTime>(1 + (state >> 33) % 8) * 250;
      sim->ScheduleAfter(delay, [this] { Fire(); });
    }
  };
  std::vector<Actor> actors;
  actors.reserve(kShards * kActors);
  for (int shard = 0; shard < kShards; ++shard) {
    for (int a = 0; a < kActors; ++a) {
      const auto id = static_cast<std::uint64_t>(shard * kActors + a);
      actors.push_back(
          Actor{&net.shard(shard), &run.log[static_cast<std::size_t>(shard)], id, id});
      Actor* actor = &actors.back();
      net.shard(shard).ScheduleAt(250 * (a % 4), [actor] { actor->Fire(); });
    }
  }
  for (int call = 1; call <= kRunUntilCalls; ++call) {
    net.RunUntil(kLocalOnlyEnd * call / kRunUntilCalls);
  }
  run.rounds = net.Rounds();
  run.messages = net.TotalMessages();
  return run;
}

TEST(ShardedSimulationTest, UnboundedLookaheadRunsOneRoundPerRunUntil) {
  const LocalOnlyRun base = RunLocalOnly(Millis(1), /*threaded=*/false);
  ASSERT_GT(base.log[0].size(), 1000u);
  for (const SimTime lookahead : {Millis(1), kUnbounded}) {
    for (const bool threaded : {false, true}) {
      const LocalOnlyRun run = RunLocalOnly(lookahead, threaded);
      const bool unbounded = lookahead == kUnbounded;
      SCOPED_TRACE(testing::Message() << "unbounded=" << unbounded
                                      << " threaded=" << threaded);
      EXPECT_EQ(run.log, base.log);
      EXPECT_EQ(run.messages, 0u);
      EXPECT_EQ(run.rounds, static_cast<std::uint64_t>(
                                unbounded ? kRunUntilCalls
                                          : kLocalOnlyEnd / Millis(1)));
    }
  }
}

// --- Partitioner -------------------------------------------------------------

TEST(PartitionTest, LptBalancesAndIsDeterministic) {
  const std::vector<double> weights = {10, 1, 7, 7, 2, 9, 3, 1};
  const auto a = PackBinsLpt(weights, 3);
  const auto b = PackBinsLpt(weights, 3);
  EXPECT_EQ(a, b);
  std::vector<double> load(3, 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ASSERT_GE(a[i], 0);
    ASSERT_LT(a[i], 3);
    load[static_cast<std::size_t>(a[i])] += weights[i];
  }
  // Total 40 over 3 bins; LPT keeps the makespan within 4/3 of optimal.
  for (const double l : load) EXPECT_LE(l, 40.0 / 3.0 * 4.0 / 3.0 + 1e-9);
}

TEST(PartitionTest, SingleBinMapsEverythingToZero) {
  const auto a = PackBinsLpt({5, 1, 3}, 1);
  EXPECT_EQ(a, (std::vector<int>{0, 0, 0}));
}

TEST(ShardPlanTest, ReplicatedAlibabaIsClusterAligned) {
  apps::AlibabaDemoOptions options;
  options.replicas = 4;
  const auto demo = apps::MakeAlibabaDemo(options);
  sim::ShardPlanOptions plan_options;
  plan_options.num_shards = 4;
  const sim::ShardPlan plan = BuildShardPlan(*demo.app, plan_options);
  EXPECT_GE(plan.num_clusters, 4);
  EXPECT_TRUE(plan.cluster_aligned);
  // Replica copies never share services, so each copy's services must sit
  // on a single shard together with all APIs that use them.
  for (sim::ApiId a = 0; a < demo.app->NumApis(); ++a) {
    for (const sim::ServiceId s : demo.app->api(a).involved_services()) {
      EXPECT_EQ(plan.OwnerOf(s), plan.OriginOf(a));
    }
  }
  // All four shards are used.
  std::set<int> used(plan.service_owner.begin(), plan.service_owner.end());
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardPlanTest, SingleClusterAppFallsBackToServiceSplit) {
  const auto app = apps::MakeOnlineBoutique({});
  sim::ShardPlanOptions options;
  options.num_shards = 2;
  const sim::ShardPlan plan = BuildShardPlan(*app, options);
  // The boutique's APIs all share the frontend: one cluster.
  EXPECT_EQ(plan.num_clusters, 1);
  EXPECT_FALSE(plan.cluster_aligned);
  std::set<int> used(plan.service_owner.begin(), plan.service_owner.end());
  EXPECT_EQ(used.size(), 2u);  // still split across both shards
}

TEST(ShardPlanTest, OneShardOwnsEverything) {
  const auto app = apps::MakeOnlineBoutique({});
  const sim::ShardPlan plan = BuildShardPlan(*app, {});
  for (const int owner : plan.service_owner) EXPECT_EQ(owner, 0);
  for (const int origin : plan.api_origin) EXPECT_EQ(origin, 0);
  EXPECT_TRUE(plan.cluster_aligned);
}

// --- End-to-end sharded runs -------------------------------------------------

/// Two disjoint 2-service chains -> two clusters, two APIs.
std::unique_ptr<sim::Application> MakeTwoClusterApp() {
  auto app = std::make_unique<sim::Application>("two-cluster", 7);
  for (int i = 0; i < 4; ++i) {
    sim::ServiceConfig config;
    config.name = "svc-" + std::to_string(i);
    config.mean_service_ms = 5.0 + i;
    config.threads = 4;
    config.initial_pods = 2;
    app->AddService(config);
  }
  sim::ApiSpec left("left", 1);
  left.AddPath(sim::ExecutionPath{sim::Chain({0, 1}), 1.0, {}});
  app->AddApi(std::move(left));
  sim::ApiSpec right("right", 1);
  right.AddPath(sim::ExecutionPath{sim::Chain({2, 3}), 1.0, {}});
  app->AddApi(std::move(right));
  app->Finalize();
  return app;
}

/// One 4-service chain -> a single cluster that must be split.
std::unique_ptr<sim::Application> MakeChainApp() {
  auto app = std::make_unique<sim::Application>("chain", 11);
  for (int i = 0; i < 4; ++i) {
    sim::ServiceConfig config;
    config.name = "svc-" + std::to_string(i);
    config.mean_service_ms = 4.0;
    config.threads = 4;
    config.initial_pods = 2;
    app->AddService(config);
  }
  sim::ApiSpec api("chain", 1);
  api.AddPath(sim::ExecutionPath{sim::Chain({0, 1, 2, 3}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  return app;
}

exp::RunSpec TwoClusterSpec() {
  exp::RunSpec spec;
  spec.label = "two-cluster";
  spec.duration_s = 8.0;
  spec.make_app = MakeTwoClusterApp;
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app), workload::Schedule::Constant(400));
    traffic.AddOpenLoop(0, workload::Schedule::Constant(50));
    traffic.AddOpenLoop(1, workload::Schedule::Constant(50));
  };
  return spec;
}

std::string SerializeMerged(const sim::ShardedApp& app,
                            const std::vector<fault::FaultRecord>& fault_log) {
  std::string out;
  char buf[256];
  for (const auto& snap : app.MergedTimeline()) {
    std::snprintf(buf, sizeof buf, "t=%.17g\n", snap.t_end_s);
    out += buf;
    for (const auto& a : snap.apis) {
      std::snprintf(buf, sizeof buf, "api %llu %llu %llu %llu %llu %llu %.17g\n",
                    static_cast<unsigned long long>(a.offered),
                    static_cast<unsigned long long>(a.admitted),
                    static_cast<unsigned long long>(a.rejected_entry),
                    static_cast<unsigned long long>(a.rejected_service),
                    static_cast<unsigned long long>(a.completed),
                    static_cast<unsigned long long>(a.good), a.latency_mean_ms);
      out += buf;
    }
    for (const auto& s : snap.services) {
      std::snprintf(buf, sizeof buf, "svc %.17g %.17g %d %d\n", s.cpu_utilization,
                    s.avg_queue_delay_s, s.running_pods, s.outstanding);
      out += buf;
    }
  }
  std::snprintf(buf, sizeof buf, "timeouts=%llu retries=%llu inflight=%d remote=%llu\n",
                static_cast<unsigned long long>(app.HopTimeouts()),
                static_cast<unsigned long long>(app.Retries()), app.Inflight(),
                static_cast<unsigned long long>(app.RemoteCalls()));
  out += buf;
  for (const auto& r : fault_log) {
    std::snprintf(buf, sizeof buf, "fault t=%lld %s %s\n",
                  static_cast<long long>(r.at), fault::FaultTypeName(r.type),
                  r.service.c_str());
    out += buf;
  }
  return out;
}

std::string RunTwoCluster(int shards, bool threaded) {
  exp::RunSpec spec = TwoClusterSpec();
  spec.shards = shards;
  spec.threaded = threaded;
  const exp::RunResult r = exp::Run(spec);
  return SerializeMerged(*r.sharded, r.fault_log);
}

TEST(ShardedAppTest, AlignedPlanRunsWithoutCrossShardCalls) {
  exp::RunSpec spec = TwoClusterSpec();
  spec.shards = 2;
  const exp::RunResult r = exp::Run(spec);
  EXPECT_TRUE(r.sharded->plan().cluster_aligned);
  EXPECT_EQ(r.sharded->RemoteCalls(), 0u);
  // Nothing can cross, so the one-shot run is a single round.
  EXPECT_EQ(r.sharded->engine().lookahead(), kUnbounded);
  EXPECT_EQ(r.sharded->engine().Rounds(), 1u);
  // Both shards did real work.
  EXPECT_GT(r.sharded->app(0).sim().EventsProcessed(), 1000u);
  EXPECT_GT(r.sharded->app(1).sim().EventsProcessed(), 1000u);
  // Conservation per API: everything offered is accounted for.
  for (const auto& t : r.sharded->MergedTotals()) {
    EXPECT_GT(t.offered, 0u);
    EXPECT_EQ(t.offered, t.admitted + t.rejected_entry);
  }
  EXPECT_GT(r.sharded->MergedAvgTotalGoodput(1.0), 0.0);
}

TEST(ShardedAppTest, FixedShardCountIsBitIdenticalAcrossRunsAndExecModes) {
  const std::string a = RunTwoCluster(2, /*threaded=*/true);
  const std::string b = RunTwoCluster(2, /*threaded=*/true);
  const std::string c = RunTwoCluster(2, /*threaded=*/false);
  EXPECT_EQ(a, b) << "repeated sharded runs diverged";
  EXPECT_EQ(a, c) << "threaded vs sequential diverged";
}

TEST(ShardedAppTest, SplitClusterRoutesHopsAcrossShards) {
  exp::RunSpec spec;
  spec.label = "chain-split";
  spec.duration_s = 6.0;
  spec.make_app = MakeChainApp;
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app), workload::Schedule::Constant(200));
  };
  spec.shards = 2;
  spec.net_latency = Millis(1);
  const exp::RunResult r = exp::Run(spec);
  EXPECT_FALSE(r.sharded->plan().cluster_aligned);
  EXPECT_GT(r.sharded->RemoteCalls(), 0u);
  // A split plan keeps net_latency windows.
  EXPECT_EQ(r.sharded->engine().lookahead(), Millis(1));
  EXPECT_EQ(r.sharded->engine().Rounds(),
            static_cast<std::uint64_t>(Seconds(spec.duration_s) / Millis(1)));
  const auto totals = r.sharded->MergedTotals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_GT(totals[0].completed, 0u);
  // Repeatability with remote calls in play.
  const exp::RunResult r2 = exp::Run(spec);
  EXPECT_EQ(SerializeMerged(*r.sharded, r.fault_log),
            SerializeMerged(*r2.sharded, r2.fault_log));
  // And threaded == sequential.
  spec.threaded = false;
  const exp::RunResult r3 = exp::Run(spec);
  EXPECT_EQ(SerializeMerged(*r.sharded, r.fault_log),
            SerializeMerged(*r3.sharded, r3.fault_log));
}

/// Runs TwoClusterSpec on 2 aligned shards with a TSDB plane (SLO burn
/// rules plus one rule that surely fires) and returns the plane's store
/// and alert history. With `live` set the run advances in publish chunks.
struct TsdbRun {
  std::string tsdb_json;
  std::string alerts_json;
  std::size_t transitions = 0;
  std::uint64_t rounds = 0;
};

TsdbRun RunTwoClusterWithTsdb(obs::LivePlane* live) {
  obs::TsdbPlane plane;
  for (obs::AlertRule& rule : obs::SloBurnRules()) {
    plane.rules().AddAlert(std::move(rule));
  }
  obs::AlertRule busy;
  busy.name = "completing";
  busy.exprs = {"sum(rate(topfull_requests_completed_total[2s])) > 0"};
  busy.for_s = 1.0;
  plane.rules().AddAlert(std::move(busy));
  exp::RunSpec spec = TwoClusterSpec();
  spec.tsdb = &plane;
  spec.live = live;
  spec.shards = 2;
  const exp::RunResult r = exp::Run(spec);
  EXPECT_TRUE(r.sharded->plan().cluster_aligned);
  return {obs::TsdbJson(plane.tsdb()), plane.rules().AlertsJson(),
          plane.rules().transitions().size(), r.sharded->engine().Rounds()};
}

TEST(ShardedAppTest, AlignedShardsDriftOnlyBetweenQuiescentPoints) {
  // One-shot: a single round for the whole run, rules evaluated at the end.
  const TsdbRun one_shot = RunTwoClusterWithTsdb(nullptr);
  EXPECT_EQ(one_shot.rounds, 1u);
  EXPECT_GT(one_shot.transitions, 0u);

  // Chunked: a publish and a rule evaluation at every chunk edge, one
  // round per chunk; shards run up to a whole chunk apart in between.
  obs::LiveOptions live_options;
  live_options.port = -1;
  live_options.publish_interval_s = 0.0;
  obs::LivePlane live(live_options);
  const TsdbRun chunked = RunTwoClusterWithTsdb(&live);
  EXPECT_GT(chunked.rounds, 2u);
  // Start-of-run and final publishes plus at least two mid-run snapshots.
  EXPECT_GE(live.publishes(), 4u);

  EXPECT_EQ(one_shot.tsdb_json, chunked.tsdb_json);
  EXPECT_EQ(one_shot.alerts_json, chunked.alerts_json);
}

TEST(ShardedAppTest, FaultsAreArmedOnTheOwningShardOnly) {
  exp::RunSpec spec = TwoClusterSpec();
  spec.faults.CrashPods("svc-2", Seconds(2), 1, Seconds(2));
  spec.shards = 2;
  const exp::RunResult r = exp::Run(spec);
  // The crash happened exactly once, on whichever shard owns svc-2.
  int crashes = 0;
  for (const auto& rec : r.fault_log) {
    if (rec.action == fault::FaultRecord::Action::kApply) ++crashes;
  }
  EXPECT_EQ(crashes, 1);
  const int owner = r.sharded->plan().OwnerOf(r.sharded->app(0).FindService("svc-2"));
  EXPECT_GT(r.sharded->app(owner).HopTimeouts() + 1, 0u);  // owner shard exists
}

TEST(ShardedAppTest, ReplicatedAlibabaShardsRunAligned) {
  exp::RunSpec spec;
  spec.label = "alibaba-x2";
  spec.duration_s = 4.0;
  spec.make_app = [] {
    apps::AlibabaDemoOptions options;
    options.replicas = 2;
    return apps::MakeAlibabaDemo(options).app;
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(2000));
  };
  spec.shards = 2;
  const exp::RunResult r = exp::Run(spec);
  EXPECT_TRUE(r.sharded->plan().cluster_aligned);
  EXPECT_EQ(r.sharded->RemoteCalls(), 0u);
  EXPECT_GT(r.sharded->app(0).sim().EventsProcessed(), 1000u);
  EXPECT_GT(r.sharded->app(1).sim().EventsProcessed(), 1000u);
  EXPECT_GT(r.sharded->MergedAvgTotalGoodput(1.0), 0.0);
}

TEST(ShardedAppTest, StaticLimitCapsEveryShardCount) {
  constexpr double kRate = 30.0;
  exp::RunSpec spec = TwoClusterSpec();
  spec.variant = exp::Variant::kStaticLimit;
  spec.static_rate = kRate;

  // Two shards: every API's entry bucket lives on its origin shard, so the
  // merged goodput stays within the per-API rate plus the initial burst.
  spec.shards = 2;
  const exp::RunResult two = exp::Run(spec);
  const core::TopFullConfig config;
  const double burst = std::max(config.min_burst, kRate * config.burst_fraction);
  const int apis = two.app().NumApis();
  EXPECT_LE(two.sharded->MergedAvgTotalGoodput(),
            apis * (kRate + burst / spec.duration_s));
  std::uint64_t rejected = 0;
  for (const auto& t : two.sharded->MergedTotals()) rejected += t.rejected_entry;
  EXPECT_GT(rejected, 0u) << "the limit never bit";

  // One shard: identical to attaching the limiter by hand on a plain app.
  spec.shards = 1;
  const exp::RunResult one = exp::Run(spec);
  auto plain = MakeTwoClusterApp();
  exp::Controllers controllers;
  controllers.Attach(exp::Variant::kStaticLimit, *plain, nullptr, config, kRate);
  workload::TrafficDriver traffic(plain.get());
  spec.traffic(traffic, *plain);
  plain->RunFor(Seconds(spec.duration_s));
  for (sim::ApiId a = 0; a < apis; ++a) {
    const auto& got = one.app().metrics().Totals()[static_cast<std::size_t>(a)];
    const auto& want = plain->metrics().Totals()[static_cast<std::size_t>(a)];
    EXPECT_EQ(got.offered, want.offered) << "api " << a;
    EXPECT_EQ(got.admitted, want.admitted) << "api " << a;
    EXPECT_EQ(got.good, want.good) << "api " << a;
  }
  EXPECT_DOUBLE_EQ(one.app().metrics().AvgTotalGoodput(),
                   plain->metrics().AvgTotalGoodput());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ShardedAppTest, TsdbEnvWritesRunLevelArtifacts) {
  const std::string dir = testing::TempDir() + "sharded_tsdb";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("TOPFULL_TSDB", "1", 1), 0);
  exp::RunSpec spec = TwoClusterSpec();
  spec.shards = 2;
  spec.telemetry.dir = dir;
  const exp::RunResult r = exp::Run(spec);
  unsetenv("TOPFULL_TSDB");

  // Per-shard telemetry, plus the shared store once under the run name.
  EXPECT_FALSE(ReadFile(dir + "/two-cluster.shard0.metrics.prom").empty());
  EXPECT_FALSE(ReadFile(dir + "/two-cluster.shard1.metrics.prom").empty());
  EXPECT_FALSE(ReadFile(dir + "/two-cluster.alerts.json").empty());
  const std::string tsdb_json = ReadFile(dir + "/two-cluster.tsdb.json");
  ASSERT_FALSE(tsdb_json.empty());
  ASSERT_EQ(r.telemetry.size(), 2u);
  const std::vector<std::string>& paths = r.telemetry[0].paths;
  EXPECT_NE(std::find(paths.begin(), paths.end(), dir + "/two-cluster.tsdb.json"),
            paths.end());

  // The reloaded artifact answers queries (what `topfull query --dir`
  // does), with both shards' series in it.
  std::string error;
  const auto tsdb = obs::TsdbFromJson(tsdb_json, &error);
  ASSERT_NE(tsdb, nullptr) << error;
  obs::HttpRequest request;
  request.method = "GET";
  request.target = "/query?expr=sum%20by(shard)%20(topfull_requests_good_total)";
  const obs::HttpResponse response = obs::HandleQueryRequest(request, *tsdb);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"shard\":\"1\""), std::string::npos)
      << response.body;
}

TEST(ShardedAppTest, TimelineCsvFromTheMergedTimeline) {
  const std::string dir = testing::TempDir();
  exp::RunSpec spec = TwoClusterSpec();
  // One shard: the merged timeline is the app's own, byte for byte.
  const exp::RunResult one = exp::Run(spec);
  ASSERT_TRUE(exp::WriteTimelineCsv(one.app(), one.app().metrics().Timeline(),
                                    dir + "/single.csv"));
  ASSERT_TRUE(exp::WriteTimelineCsv(one.app(), one.sharded->MergedTimeline(),
                                    dir + "/merged1.csv"));
  const std::string single = ReadFile(dir + "/single.csv");
  ASSERT_FALSE(single.empty());
  EXPECT_EQ(ReadFile(dir + "/merged1.csv"), single);

  // Two shards: one row per window, both APIs present.
  spec.shards = 2;
  const exp::RunResult two = exp::Run(spec);
  ASSERT_TRUE(exp::WriteTimelineCsv(two.app(), two.sharded->MergedTimeline(),
                                    dir + "/merged2.csv"));
  std::ifstream in(dir + "/merged2.csv");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("good_left"), std::string::npos);
  EXPECT_NE(line.find("good_right"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, static_cast<int>(spec.duration_s));
}

}  // namespace
}  // namespace topfull
