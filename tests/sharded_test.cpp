// Sharded parallel DES: rounds, partitioner, and sim::ShardedApp driven
// directly (each shard is a standalone engine, merged rows come from their
// authoritative shard). No run driver uses the sharded engine; the perfbench
// `alibaba_sharded` workload drives it the way these tests do.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "common/partition.hpp"
#include "des/sharded_simulation.hpp"
#include "exp/harness.hpp"
#include "sim/app.hpp"
#include "sim/shard_plan.hpp"
#include "sim/sharded_app.hpp"
#include "workload/generators.hpp"

namespace topfull {
namespace {

des::ShardedSimulation::Options EngineOptions(bool threaded) {
  des::ShardedSimulation::Options options;
  options.threaded = threaded;
  return options;
}

// --- Rounds ------------------------------------------------------------------

TEST(ShardedSimulationTest, SingleShardBypassesTheProtocol) {
  des::ShardedSimulation net(1, EngineOptions(true));
  int fired = 0;
  net.shard(0).ScheduleAt(Millis(3), [&] { ++fired; });
  net.RunUntil(Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(net.Rounds(), 0u);  // no rounds, no threads
}

/// One run of a local-only workload: every shard runs actors that log
/// (now, id) and reschedule themselves on a 250 us grid, so actors collide
/// on shared timestamps and the log pins each shard's (when, seq) order.
struct LocalOnlyRun {
  std::vector<std::vector<std::uint64_t>> log;
  std::uint64_t rounds = 0;
};

constexpr SimTime kLocalOnlyEnd = Seconds(1);

LocalOnlyRun RunLocalOnly(int run_until_calls, bool threaded) {
  constexpr int kShards = 3;
  constexpr int kActors = 20;
  des::ShardedSimulation net(kShards, EngineOptions(threaded));
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
  for (int call = 1; call <= run_until_calls; ++call) {
    net.RunUntil(kLocalOnlyEnd * call / run_until_calls);
  }
  run.rounds = net.Rounds();
  return run;
}

TEST(ShardedSimulationTest, UnboundedLookaheadRunsOneRoundPerRunUntil) {
  // No event crosses shards, so a round is never cut short by a peer: each
  // RunUntil is exactly one round, and the number of calls the run is split
  // into does not change any shard's event order.
  const LocalOnlyRun base = RunLocalOnly(1, /*threaded=*/false);
  ASSERT_GT(base.log[0].size(), 1000u);
  EXPECT_EQ(base.rounds, 1u);
  for (const int calls : {5, 1000}) {
    const LocalOnlyRun run = RunLocalOnly(calls, /*threaded=*/false);
    SCOPED_TRACE(testing::Message() << "calls=" << calls);
    EXPECT_EQ(run.log, base.log);
    EXPECT_EQ(run.rounds, static_cast<std::uint64_t>(calls));
  }
}

TEST(ShardedSimulationTest, ThreadedAndSequentialAreBitIdentical) {
  // Worker threads change neither the round count nor any shard's event
  // order, whatever the number of rounds.
  for (const int calls : {1, 5, 1000}) {
    const LocalOnlyRun sequential = RunLocalOnly(calls, /*threaded=*/false);
    const LocalOnlyRun threaded = RunLocalOnly(calls, /*threaded=*/true);
    SCOPED_TRACE(testing::Message() << "calls=" << calls);
    ASSERT_GT(sequential.log[0].size(), 1000u);
    EXPECT_EQ(threaded.log, sequential.log);
    EXPECT_EQ(threaded.rounds, sequential.rounds);
    EXPECT_EQ(threaded.rounds, static_cast<std::uint64_t>(calls));
  }
}

TEST(ShardedSimulationTest, ThreadedStatsSplitEachRoundIntoBusyAndBlocked) {
  des::ShardedSimulation net(2, EngineOptions(true));
  const auto t0 = std::chrono::steady_clock::now();
  net.RunUntil(Millis(10));
  net.RunUntil(Millis(10));  // already there: no round
  net.RunUntil(Millis(20));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(net.Rounds(), 2u);
  EXPECT_EQ(net.Horizon(), Millis(20));
  EXPECT_EQ(net.shard(1).Now(), Millis(20));
  ASSERT_EQ(net.Stats().size(), 2u);
  for (const auto& s : net.Stats()) {
    EXPECT_GE(s.busy_s, 0.0);
    EXPECT_GE(s.blocked_s, 0.0);
    EXPECT_LE(s.busy_s + s.blocked_s, wall + 1e-3);
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

/// Every cluster sits whole on one shard, every shard owns at least one
/// cluster, and every API enters on the shard that owns all its services.
void ExpectWholeClusters(const sim::Application& app, const sim::ShardPlan& plan) {
  std::vector<int> cluster_shard(static_cast<std::size_t>(plan.num_clusters), -1);
  for (sim::ServiceId s = 0; s < app.NumServices(); ++s) {
    int& shard = cluster_shard[static_cast<std::size_t>(
        plan.service_cluster[static_cast<std::size_t>(s)])];
    if (shard < 0) shard = plan.OwnerOf(s);
    EXPECT_EQ(plan.OwnerOf(s), shard) << "cluster of service " << s << " is split";
  }
  const std::set<int> used(cluster_shard.begin(), cluster_shard.end());
  EXPECT_EQ(used.size(), static_cast<std::size_t>(plan.num_shards));
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    for (const sim::ServiceId s : app.api(a).involved_services()) {
      EXPECT_EQ(plan.OwnerOf(s), plan.OriginOf(a)) << "api " << a;
    }
  }
}

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

sim::ShardPlan PlanFor(const sim::Application& app, int shards) {
  sim::ShardPlanOptions options;
  options.num_shards = shards;
  return BuildShardPlan(app, options);
}

TEST(ShardPlanTest, ReplicatedAlibabaIsClusterAligned) {
  apps::AlibabaDemoOptions options;
  options.replicas = 4;
  const auto demo = apps::MakeAlibabaDemo(options);
  const sim::ShardPlan plan = PlanFor(*demo.app, 4);
  EXPECT_GE(plan.num_clusters, 4);
  EXPECT_EQ(plan.num_shards, 4);
  ExpectWholeClusters(*demo.app, plan);
}

TEST(ShardPlanTest, ShardCountClampsToClusterCount) {
  // The boutique's APIs all share the frontend: one cluster, one shard.
  const auto boutique = apps::MakeOnlineBoutique({});
  for (const int asked : {2, 4}) {
    const sim::ShardPlan plan = PlanFor(*boutique, asked);
    EXPECT_EQ(plan.num_clusters, 1);
    EXPECT_EQ(plan.num_shards, 1) << asked << " asked for";
    ExpectWholeClusters(*boutique, plan);
  }
  const auto two = MakeTwoClusterApp();
  const sim::ShardPlan plan = PlanFor(*two, 4);
  EXPECT_EQ(plan.num_clusters, 2);
  EXPECT_EQ(plan.num_shards, 2);
  ExpectWholeClusters(*two, plan);
}

TEST(ShardPlanTest, OneShardOwnsEverything) {
  const auto app = apps::MakeOnlineBoutique({});
  const sim::ShardPlan plan = BuildShardPlan(*app, {});
  for (const int owner : plan.service_owner) EXPECT_EQ(owner, 0);
  for (const int origin : plan.api_origin) EXPECT_EQ(origin, 0);
  EXPECT_EQ(plan.num_shards, 1);
}

// --- ShardedApp, driven directly --------------------------------------------

constexpr double kAlibabaRunS = 4.0;

/// Two Alibaba copies: 62 clusters, planned onto two shards.
std::unique_ptr<sim::Application> MakeTwoAlibabaCopies() {
  apps::AlibabaDemoOptions options;
  options.replicas = 2;
  return apps::MakeAlibabaDemo(options).app;
}

/// MIMD control and closed-loop users scoped to the APIs entering on
/// `shard`, attached to one engine, as the perfbench driver wires each
/// shard of `alibaba_sharded` (which runs the RL policy instead of MIMD).
struct ShardLoad {
  ShardLoad(sim::Application& app, const std::vector<int>& api_origin, int shard)
      : traffic(&app) {
    controllers.Attach(exp::Variant::kTopFullMimd, app, nullptr);
    traffic.SetShardScope({&api_origin, shard});
    traffic.AddClosedLoop(exp::UniformUsers(app), workload::Schedule::Constant(4000));
  }
  exp::Controllers controllers;
  workload::TrafficDriver traffic;
};

/// Every counter of one API window row.
std::string ApiRow(const sim::ApiWindow& a) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%llu %llu %llu %llu %llu %llu %.17g %.17g",
                static_cast<unsigned long long>(a.offered),
                static_cast<unsigned long long>(a.admitted),
                static_cast<unsigned long long>(a.rejected_entry),
                static_cast<unsigned long long>(a.rejected_service),
                static_cast<unsigned long long>(a.completed),
                static_cast<unsigned long long>(a.good), a.latency_p95_ms,
                a.latency_mean_ms);
  return buf;
}

std::string ServiceRow(const sim::ServiceWindow& s) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.17g %.17g %d %d", s.cpu_utilization,
                s.avg_queue_delay_s, s.running_pods, s.outstanding);
  return buf;
}

/// A whole timeline, one line per row.
std::string Serialize(const std::vector<sim::Snapshot>& timeline) {
  std::string out;
  for (const sim::Snapshot& snap : timeline) {
    out += "t=" + std::to_string(snap.t_end_s) + "\n";
    for (const auto& a : snap.apis) out += "api " + ApiRow(a) + "\n";
    for (const auto& s : snap.services) out += "svc " + ServiceRow(s) + "\n";
  }
  return out;
}

TEST(ShardedAppTest, ShardsAreStandaloneEnginesAndMergeFromTheirOwners) {
  const sim::ShardPlan plan = PlanFor(*MakeTwoAlibabaCopies(), 2);
  ASSERT_EQ(plan.num_shards, 2);

  // Each shard on its own: a plain engine with the shard's scope.
  std::vector<std::string> standalone;
  for (int shard = 0; shard < plan.num_shards; ++shard) {
    const auto app = MakeTwoAlibabaCopies();
    ShardLoad load(*app, plan.api_origin, shard);
    app->RunFor(Seconds(kAlibabaRunS));
    standalone.push_back(Serialize(app->metrics().Timeline()));
  }

  for (const bool threaded : {true, false}) {
    SCOPED_TRACE(threaded ? "threaded" : "sequential");
    sim::ShardedApp::Options options;
    options.shards = 2;
    options.threaded = threaded;
    sim::ShardedApp sharded(MakeTwoAlibabaCopies, options);
    ASSERT_EQ(sharded.num_shards(), 2);
    ExpectWholeClusters(sharded.app(0), sharded.plan());
    std::vector<std::unique_ptr<ShardLoad>> loads;
    for (int shard = 0; shard < sharded.num_shards(); ++shard) {
      loads.push_back(std::make_unique<ShardLoad>(sharded.app(shard),
                                                  sharded.plan().api_origin, shard));
    }
    sharded.RunFor(Seconds(kAlibabaRunS));
    // Nothing crosses shards, so the one-shot run is a single round.
    EXPECT_EQ(sharded.engine().Rounds(), 1u);

    for (int shard = 0; shard < sharded.num_shards(); ++shard) {
      EXPECT_GT(sharded.app(shard).sim().EventsProcessed(), 10000u);
      EXPECT_EQ(Serialize(sharded.app(shard).metrics().Timeline()),
                standalone[static_cast<std::size_t>(shard)])
          << "shard " << shard << " diverged from its standalone engine";
    }

    // Each merged row is its authoritative shard's row.
    const std::vector<sim::Snapshot> merged = sharded.MergedTimeline();
    ASSERT_EQ(merged.size(), static_cast<std::size_t>(kAlibabaRunS));
    for (std::size_t row = 0; row < merged.size(); ++row) {
      for (sim::ApiId a = 0; a < sharded.app(0).NumApis(); ++a) {
        const sim::Application& origin = sharded.app(sharded.plan().OriginOf(a));
        EXPECT_EQ(ApiRow(merged[row].apis[static_cast<std::size_t>(a)]),
                  ApiRow(origin.metrics().Timeline()[row].apis[static_cast<std::size_t>(a)]))
            << "row " << row << " api " << a;
      }
      for (sim::ServiceId s = 0; s < sharded.app(0).NumServices(); ++s) {
        const sim::Application& owner = sharded.app(sharded.plan().OwnerOf(s));
        EXPECT_EQ(
            ServiceRow(merged[row].services[static_cast<std::size_t>(s)]),
            ServiceRow(owner.metrics().Timeline()[row].services[static_cast<std::size_t>(s)]))
            << "row " << row << " service " << s;
      }
    }
    const std::vector<sim::ApiTotals> totals = sharded.MergedTotals();
    std::uint64_t offered = 0;
    for (sim::ApiId a = 0; a < sharded.app(0).NumApis(); ++a) {
      const sim::ApiTotals& t = totals[static_cast<std::size_t>(a)];
      const sim::ApiTotals& want = sharded.app(sharded.plan().OriginOf(a))
                                       .metrics()
                                       .Totals()[static_cast<std::size_t>(a)];
      EXPECT_EQ(t.offered, want.offered) << "api " << a;
      EXPECT_EQ(t.good, want.good) << "api " << a;
      // Conservation: everything offered was admitted or rejected at entry.
      EXPECT_EQ(t.offered, t.admitted + t.rejected_entry) << "api " << a;
      offered += t.offered;
    }
    EXPECT_GT(offered, 0u);
  }
}

}  // namespace
}  // namespace topfull
