// Sharded parallel DES: rounds, partitioner, and end-to-end sharded
// application runs (determinism, conservation, whole clusters per shard).
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
#include "two_cluster_app.hpp"
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
  std::vector<des::ShardedSimulation::RoundInfo> rounds;
  net.SetRoundObserver(
      [&rounds](const des::ShardedSimulation::RoundInfo& info) { rounds.push_back(info); });
  net.RunUntil(Millis(10));
  net.RunUntil(Millis(10));  // already there: no round
  net.RunUntil(Millis(20));
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[1].round, 1u);
  EXPECT_EQ(rounds[1].horizon, Millis(20));
  EXPECT_EQ(net.shard(1).Now(), Millis(20));
  double wall = 0;
  for (const auto& r : rounds) wall += r.wall_s;
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

// --- End-to-end sharded runs -------------------------------------------------

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
  std::snprintf(buf, sizeof buf, "timeouts=%llu retries=%llu inflight=%d\n",
                static_cast<unsigned long long>(app.HopTimeouts()),
                static_cast<unsigned long long>(app.Retries()), app.Inflight());
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
  ASSERT_EQ(r.sharded->num_shards(), 2);
  ExpectWholeClusters(r.app(), r.sharded->plan());
  // Nothing can cross, so the one-shot run is a single round.
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
  EXPECT_EQ(r.sharded->num_shards(), 2);
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
  ASSERT_EQ(r.sharded->num_shards(), 2);
  ExpectWholeClusters(r.app(), r.sharded->plan());
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
