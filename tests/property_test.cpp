// Property-based tests: parameterised sweeps asserting invariants over
// randomised inputs (seeded — failures reproduce exactly).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/token_bucket.hpp"
#include "common/union_find.hpp"
#include "core/cluster_tracker.hpp"
#include "core/clustering.hpp"
#include "des/sharded_simulation.hpp"
#include "des/simulation.hpp"
#include "obs/fairness.hpp"
#include "rl/graph_sim_env.hpp"
#include "rl/observation.hpp"
#include "rl/nn.hpp"
#include "sim/app.hpp"
#include "sim/request_observer.hpp"
#include "sim/service.hpp"
#include "workload/generators.hpp"
#include "workload/schedule.hpp"
#include "recording_sink.hpp"

namespace topfull {
namespace {

// --- Token bucket: long-run admission tracks the configured rate -------------

class TokenBucketRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(TokenBucketRateSweep, LongRunAdmissionMatchesRate) {
  const double rate = GetParam();
  TokenBucket bucket(rate, std::max(2.0, rate / 10.0));
  Rng rng(static_cast<std::uint64_t>(rate) + 17);
  int admitted = 0;
  SimTime now = 0;
  // Random arrival pattern much denser than the rate.
  while (now < Seconds(20)) {
    now += static_cast<SimTime>(rng.Uniform(50, 500));  // 2k-20k arrivals/s
    admitted += bucket.TryAdmit(now) ? 1 : 0;
  }
  const double measured = admitted / 20.0;
  EXPECT_NEAR(measured, rate, rate * 0.05 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, TokenBucketRateSweep,
                         ::testing::Values(5.0, 50.0, 137.0, 400.0, 1000.0, 1900.0));

// --- Percentile: order statistics invariants ---------------------------------

class PercentileSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileSweep, MonotoneAndBounded) {
  Rng rng(GetParam());
  std::vector<double> values;
  const int n = static_cast<int>(rng.UniformInt(1, 400));
  for (int i = 0; i < n; ++i) values.push_back(rng.Uniform(-1e3, 1e3));
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  double prev = lo;
  for (double p = 0.0; p <= 100.0; p += 7.3) {
    const double v = Percentile(values, p);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    EXPECT_GE(v, prev - 1e-12);  // monotone in p
    prev = v;
  }
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), lo);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), hi);
  // Permutation invariance.
  std::vector<double> shuffled = values;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  EXPECT_DOUBLE_EQ(Percentile(values, 42.0), Percentile(shuffled, 42.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileSweep, ::testing::Range<std::uint64_t>(1, 9));

// --- Union-find vs brute-force connectivity ----------------------------------

class UnionFindSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionFindSweep, MatchesBruteForceReachability) {
  Rng rng(GetParam() * 977);
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(2, 60));
  UnionFind dsu(n);
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) adj[i][i] = true;
  const int edges = static_cast<int>(rng.UniformInt(0, 80));
  for (int e = 0; e < edges; ++e) {
    const auto a = static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    const auto b = static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    dsu.Union(a, b);
    adj[a][b] = adj[b][a] = true;
  }
  // Floyd-Warshall closure.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (adj[i][k] && adj[k][j]) adj[i][j] = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(dsu.Connected(i, j), adj[i][j]) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFindSweep, ::testing::Range<std::uint64_t>(1, 13));

// --- DES: time never goes backwards; all due events fire ---------------------

class DesOrderSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesOrderSweep, EventsFireInNondecreasingTimeOrder) {
  Rng rng(GetParam() * 31337);
  des::Simulation sim;
  std::vector<SimTime> fired;
  const int n = static_cast<int>(rng.UniformInt(10, 300));
  int scheduled = 0;
  for (int i = 0; i < n; ++i) {
    const SimTime when = static_cast<SimTime>(rng.UniformInt(0, Seconds(100)));
    if (when <= Seconds(60)) ++scheduled;
    sim.ScheduleAt(when, [&fired, &sim]() { fired.push_back(sim.Now()); });
  }
  sim.RunUntil(Seconds(60));
  EXPECT_EQ(static_cast<int>(fired.size()), scheduled);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesOrderSweep, ::testing::Range<std::uint64_t>(1, 9));

// --- Service: PickPod equals the per-pod-modulo scan ------------------------

/// The pick of the scan that takes one modulo per pod and never stops early:
/// among running pods, the least outstanding, first in the order
/// (cursor + k) % n.
int ReferencePick(const sim::Service& svc, int cursor) {
  const int n = svc.PodCount();
  int best = -1;
  for (int k = 0; k < n; ++k) {
    const int i = (cursor + k) % n;
    const sim::Pod& pod = svc.pod(i);
    if (!pod.running()) continue;
    if (best < 0 || pod.Outstanding() < svc.pod(best).Outstanding()) best = i;
  }
  return best;
}

class PickPodSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PickPodSweep, DispatchPicksWhatThePerPodModuloScanPicks) {
  Rng rng(GetParam() * 7919);
  des::Simulation sim;
  sim::RecordingSink rec(&sim);
  sim::ServiceConfig config;
  config.name = "s";
  config.mean_service_ms = 5.0;
  config.threads = static_cast<int>(rng.UniformInt(1, 4));
  config.max_queue = 1 << 20;  // every dispatch to a running pod is accepted
  config.initial_pods = static_cast<int>(rng.UniformInt(1, 8));
  sim::Service svc(&sim, 0, config, Rng(GetParam()), rec.sink());
  int cursor = 0;  // picks so far: the scan's round-robin cursor
  std::uint32_t token = 0;
  int picked = 0;
  for (int step = 0; step < 2000; ++step) {
    // Move the pods to a random state: starting (added with a delay),
    // running, killed, with offline threads, with random outstanding jobs.
    const int n = svc.PodCount();
    const int some = static_cast<int>(rng.UniformInt(0, n - 1));
    const double u = rng.NextDouble();
    if (u < 0.04 && svc.TotalPods() < 8) {
      svc.SetPodCount(svc.TotalPods() + 1, Millis(static_cast<double>(rng.UniformInt(0, 30))));
    } else if (u < 0.05) {
      svc.SetPodCount(svc.DesiredPods() - 1);
    } else if (u < 0.065) {
      svc.pod(some).Kill();
    } else if (u < 0.11) {
      svc.pod(some).SetOfflineThreads(static_cast<int>(rng.UniformInt(0, config.threads)));
    } else if (u < 0.35) {
      const int jobs = static_cast<int>(rng.UniformInt(1, 6));
      for (int j = 0; j < jobs; ++j) {
        svc.pod(some).Enqueue(Millis(static_cast<double>(rng.UniformInt(1, 20))), token++);
      }
    } else if (u < 0.55) {
      sim.RunUntil(sim.Now() + rng.UniformInt(0, Millis(15)));
    }

    std::vector<int> before;
    for (int i = 0; i < svc.PodCount(); ++i) before.push_back(svc.pod(i).Outstanding());
    const int expected = ReferencePick(svc, cursor);
    if (svc.PodCount() > 0) ++cursor;
    const bool accepted = svc.Dispatch(sim::RequestInfo{}, 1.0, token++);
    if (expected < 0) {
      EXPECT_FALSE(accepted) << "step " << step;
      continue;
    }
    ASSERT_TRUE(accepted) << "step " << step;
    ++picked;
    for (int i = 0; i < svc.PodCount(); ++i) {
      ASSERT_EQ(svc.pod(i).Outstanding(), before[static_cast<std::size_t>(i)] + (i == expected))
          << "step " << step << " pod " << i << " expected pick " << expected;
    }
  }
  EXPECT_GT(picked, 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PickPodSweep, ::testing::Range<std::uint64_t>(1, 17));

// --- Schedule: At() equals the brute-force "last breakpoint <= t" ------------

class ScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleSweep, MatchesBruteForce) {
  Rng rng(GetParam() * 71);
  workload::Schedule schedule = workload::Schedule::Constant(rng.Uniform(0, 10));
  std::map<SimTime, double> points{{0, schedule.At(0)}};
  const int n = static_cast<int>(rng.UniformInt(1, 25));
  for (int i = 0; i < n; ++i) {
    const SimTime t = static_cast<SimTime>(rng.UniformInt(0, Seconds(100)));
    const double v = rng.Uniform(0, 100);
    schedule.Then(t, v);
    points[t] = v;
  }
  for (int probe = 0; probe < 200; ++probe) {
    const SimTime t = static_cast<SimTime>(rng.UniformInt(0, Seconds(110)));
    auto it = points.upper_bound(t);
    ASSERT_NE(it, points.begin());
    --it;
    EXPECT_DOUBLE_EQ(schedule.At(t), it->second) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleSweep, ::testing::Range<std::uint64_t>(1, 9));

// --- Clustering invariants over random registries ----------------------------

class ClusteringSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringSweep, PartitionAndIsolationInvariants) {
  Rng rng(GetParam() * 131);
  const int num_services = static_cast<int>(rng.UniformInt(3, 25));
  const int num_apis = static_cast<int>(rng.UniformInt(2, 20));
  auto app = std::make_unique<sim::Application>("prop", GetParam());
  for (int s = 0; s < num_services; ++s) {
    sim::ServiceConfig config;
    config.name = "s" + std::to_string(s);
    app->AddService(config);
  }
  for (int a = 0; a < num_apis; ++a) {
    sim::ApiSpec spec("api" + std::to_string(a), 1);
    std::set<sim::ServiceId> used;
    const int len =
        static_cast<int>(rng.UniformInt(1, std::min(6, num_services)));
    while (static_cast<int>(used.size()) < len) {
      used.insert(static_cast<sim::ServiceId>(rng.UniformInt(0, num_services - 1)));
    }
    spec.AddPath(sim::ExecutionPath{
        sim::Chain(std::vector<sim::ServiceId>(used.begin(), used.end())), 1.0, {}});
    app->AddApi(std::move(spec));
  }
  app->Finalize();
  core::ApiRegistry registry(*app);

  std::vector<sim::ServiceId> overloaded;
  for (int s = 0; s < num_services; ++s) {
    if (rng.Bernoulli(0.3)) overloaded.push_back(s);
  }
  const auto clusters = core::BuildClusters(registry, overloaded);

  // (1) Each involved API appears in exactly one cluster.
  std::map<sim::ApiId, int> seen;
  for (const auto& cluster : clusters) {
    for (const sim::ApiId a : cluster.apis) ++seen[a];
  }
  for (const auto& [api, count] : seen) EXPECT_EQ(count, 1) << "api " << api;

  // (2) Every API that touches an overloaded service is in some cluster.
  for (sim::ApiId a = 0; a < num_apis; ++a) {
    bool touches = false;
    for (const sim::ServiceId s : overloaded) touches = touches || registry.Uses(a, s);
    EXPECT_EQ(touches, seen.count(a) > 0) << "api " << a;
  }

  // (3) Overloaded services partition across clusters; each cluster's
  //     overloaded services are used only by that cluster's APIs.
  std::map<sim::ServiceId, int> service_seen;
  for (const auto& cluster : clusters) {
    std::set<sim::ApiId> members(cluster.apis.begin(), cluster.apis.end());
    for (const sim::ServiceId s : cluster.overloaded) {
      ++service_seen[s];
      for (const sim::ApiId user : registry.ApisOf(s)) {
        EXPECT_TRUE(members.count(user) > 0)
            << "service " << s << " used by out-of-cluster api " << user;
      }
    }
  }
  for (const auto& [s, count] : service_seen) EXPECT_EQ(count, 1) << "service " << s;

  // (4) The target is an overloaded service with the minimal API count.
  for (const auto& cluster : clusters) {
    int min_count = 1 << 30;
    for (const sim::ServiceId s : cluster.overloaded) {
      min_count = std::min(min_count, registry.ApiCount(s));
    }
    ASSERT_NE(cluster.target, sim::kNoService);
    EXPECT_EQ(registry.ApiCount(cluster.target), min_count);
    // Candidates = users of the target.
    EXPECT_EQ(cluster.candidates, registry.ApisOf(cluster.target));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringSweep, ::testing::Range<std::uint64_t>(1, 21));

// --- Request accounting conservation over random topologies ------------------

class ConservationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationSweep, OfferedSplitsExactly) {
  Rng rng(GetParam() * 4099);
  auto app = std::make_unique<sim::Application>("conserve", GetParam());
  const int num_services = static_cast<int>(rng.UniformInt(1, 6));
  for (int s = 0; s < num_services; ++s) {
    sim::ServiceConfig config;
    config.name = "s" + std::to_string(s);
    config.mean_service_ms = rng.Uniform(2.0, 30.0);
    config.threads = static_cast<int>(rng.UniformInt(1, 8));
    config.max_queue = static_cast<int>(rng.UniformInt(4, 64));  // tiny: force sheds
    app->AddService(config);
  }
  const int num_apis = static_cast<int>(rng.UniformInt(1, 4));
  for (int a = 0; a < num_apis; ++a) {
    sim::ApiSpec spec("api" + std::to_string(a), 1);
    std::set<sim::ServiceId> used;
    const int len = static_cast<int>(rng.UniformInt(1, num_services));
    while (static_cast<int>(used.size()) < len) {
      used.insert(static_cast<sim::ServiceId>(rng.UniformInt(0, num_services - 1)));
    }
    spec.AddPath(sim::ExecutionPath{
        sim::Chain(std::vector<sim::ServiceId>(used.begin(), used.end())), 1.0, {}});
    app->AddApi(std::move(spec));
  }
  app->Finalize();
  // Blast random traffic.
  for (int i = 0; i < 3000; ++i) {
    const SimTime at = static_cast<SimTime>(rng.UniformInt(0, Seconds(5)));
    const auto api = static_cast<sim::ApiId>(rng.UniformInt(0, num_apis - 1));
    app->sim().ScheduleAt(at, [&app, api]() { app->Submit(api); });
  }
  app->RunFor(Seconds(30));
  EXPECT_EQ(app->Inflight(), 0);
  std::uint64_t offered = 0;
  for (sim::ApiId a = 0; a < num_apis; ++a) {
    const auto& t = app->metrics().Totals()[a];
    EXPECT_EQ(t.offered, t.admitted + t.rejected_entry);
    EXPECT_EQ(t.admitted, t.completed + t.rejected_service);
    EXPECT_LE(t.good, t.completed);
    offered += t.offered;
  }
  EXPECT_EQ(offered, 3000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationSweep, ::testing::Range<std::uint64_t>(1, 17));

// --- GraphSimEnv invariants over seeds ----------------------------------------

class GraphEnvSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphEnvSweep, ObservationsBoundedRewardsFinite) {
  rl::GraphSimEnv env({}, 1234);
  Rng rng(GetParam());
  auto obs = env.Reset(GetParam());
  for (int t = 0; t < 50; ++t) {
    ASSERT_EQ(obs.size(), 2u);
    EXPECT_GE(obs[0], 0.0);
    EXPECT_LE(obs[0], 2.0);
    EXPECT_GE(obs[1], 0.0);
    EXPECT_LE(obs[1], rl::kMaxLatencyFactor);
    const auto r = env.Step(rng.Uniform(-0.5, 0.5));
    EXPECT_TRUE(std::isfinite(r.reward));
    EXPECT_GT(env.rate_limit(), 0.0);
    obs = r.obs;
    if (r.done) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphEnvSweep, ::testing::Range<std::uint64_t>(1, 25));

// --- MLP gradient check across architectures ----------------------------------

struct MlpArch {
  std::vector<int> sizes;
};

// Without this gtest prints the raw bytes of the vector (heap addresses), and
// the discovered ctest names change with every build.
void PrintTo(const MlpArch& arch, std::ostream* os) {
  *os << "MlpArch" << ::testing::PrintToString(arch.sizes);
}

class MlpGradSweep : public ::testing::TestWithParam<MlpArch> {};

TEST_P(MlpGradSweep, AnalyticMatchesNumeric) {
  Rng rng(5);
  rl::Mlp net(GetParam().sizes, rng);
  std::vector<double> x(static_cast<std::size_t>(GetParam().sizes.front()));
  for (auto& v : x) v = rng.Uniform(-1, 1);
  // Scalar loss = sum of outputs.
  rl::Mlp::Cache cache;
  const auto y = net.Forward(x, &cache);
  net.ZeroGrad();
  net.Backward(cache, std::vector<double>(y.size(), 1.0));
  std::vector<double> analytic;
  net.CopyGradsTo(analytic);
  std::vector<double> params;
  net.CopyParamsTo(params);
  const double eps = 1e-6;
  Rng pick(GetParam().sizes.back() + 100);
  for (int check = 0; check < 25; ++check) {
    const auto i = static_cast<std::size_t>(
        pick.UniformInt(0, static_cast<std::int64_t>(params.size()) - 1));
    auto p = params;
    p[i] += eps;
    net.SetParams(p);
    double up = 0;
    for (const double v : net.Forward(x)) up += v;
    p[i] -= 2 * eps;
    net.SetParams(p);
    double down = 0;
    for (const double v : net.Forward(x)) down += v;
    net.SetParams(params);
    EXPECT_NEAR(analytic[i], (up - down) / (2 * eps), 1e-5) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, MlpGradSweep,
                         ::testing::Values(MlpArch{{1, 1}}, MlpArch{{2, 8, 1}},
                                           MlpArch{{3, 16, 8, 2}},
                                           MlpArch{{2, 64, 64, 1}}));

// --- Rng forks are pairwise decorrelated --------------------------------------

class RngForkSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngForkSweep, SiblingStreamsLookIndependent) {
  Rng parent(GetParam());
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  // Crude correlation check on 2000 uniform draws.
  double sum_ab = 0, sum_a = 0, sum_b = 0, sum_a2 = 0, sum_b2 = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double x = a.NextDouble(), y = b.NextDouble();
    sum_ab += x * y;
    sum_a += x;
    sum_b += y;
    sum_a2 += x * x;
    sum_b2 += y * y;
  }
  const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
  const double var_a = sum_a2 / n - (sum_a / n) * (sum_a / n);
  const double var_b = sum_b2 / n - (sum_b / n) * (sum_b / n);
  const double corr = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::abs(corr), 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngForkSweep, ::testing::Range<std::uint64_t>(1, 9));

// --- Token bucket: piecewise admission bound + conservation -------------------

class TokenBucketConservationSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenBucketConservationSweep, AdmissionBoundedByBurstPlusRateIntegral) {
  Rng rng(GetParam() * 7919);
  const double initial_rate = rng.Uniform(5.0, 500.0);
  const double burst = rng.Uniform(1.0, 50.0);
  TokenBucket bucket(initial_rate, burst);

  // Over any sequence of rate changes, admissions are bounded by the
  // bucket depth plus the piecewise integral of the configured rate:
  //   admitted <= burst + sum_i rate_i * dt_i.
  double rate = initial_rate;
  double budget = bucket.burst();
  SimTime now = 0;
  int attempts = 0, admitted = 0, rejected = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.02)) {
      // Rate changes land exactly at the previous admission instant, the
      // boundary of the current refill segment.
      rate = rng.Uniform(0.0, 800.0);
      bucket.SetRate(rate);
    }
    const SimTime dt = rng.UniformInt(0, 2000);  // 0 = same-instant burst
    budget += rate * ToSeconds(dt);
    now += dt;
    ++attempts;
    if (bucket.TryAdmit(now)) {
      ++admitted;
    } else {
      ++rejected;
    }
    // The token pool stays within [0, burst] at all times. PeekTokens is a
    // pure read, so asserting here cannot perturb the admission stream.
    EXPECT_GE(bucket.PeekTokens(now), 0.0);
    EXPECT_LE(bucket.PeekTokens(now), bucket.burst());
  }
  EXPECT_EQ(admitted + rejected, attempts);
  EXPECT_LE(static_cast<double>(admitted), budget + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenBucketConservationSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Union-find: component structure independent of merge order ---------------

class UnionFindOrderSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionFindOrderSweep, ComponentsIndependentOfUnionOrder) {
  Rng rng(GetParam() * 4243);
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(2, 50));
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  const int count = static_cast<int>(rng.UniformInt(1, 100));
  for (int e = 0; e < count; ++e) {
    edges.emplace_back(
        static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(n) - 1)),
        static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(n) - 1)));
  }
  // Canonical component labelling: every node mapped to the sorted set of
  // nodes it is connected to.
  const auto components = [n](UnionFind& dsu) {
    std::vector<std::vector<std::size_t>> comp(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (dsu.Connected(i, j)) comp[i].push_back(j);
      }
    }
    return comp;
  };
  UnionFind forward(n);
  for (const auto& [a, b] : edges) forward.Union(a, b);
  // Shuffle the edge list (Fisher-Yates on the sweep's own stream).
  for (std::size_t i = edges.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(edges[i - 1], edges[j]);
  }
  UnionFind shuffled(n);
  for (const auto& [a, b] : edges) shuffled.Union(a, b);
  EXPECT_EQ(components(forward), components(shuffled));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFindOrderSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Clustering: result independent of overloaded-input permutation ----------

class ClusteringPermutationSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringPermutationSweep, ClustersIndependentOfOverloadOrder) {
  Rng rng(GetParam() * 569);
  const int num_services = static_cast<int>(rng.UniformInt(3, 20));
  const int num_apis = static_cast<int>(rng.UniformInt(2, 16));
  auto app = std::make_unique<sim::Application>("perm", GetParam());
  for (int s = 0; s < num_services; ++s) {
    sim::ServiceConfig config;
    config.name = "s" + std::to_string(s);
    app->AddService(config);
  }
  for (int a = 0; a < num_apis; ++a) {
    sim::ApiSpec spec("api" + std::to_string(a), 1);
    std::set<sim::ServiceId> used;
    const int len =
        static_cast<int>(rng.UniformInt(1, std::min(5, num_services)));
    while (static_cast<int>(used.size()) < len) {
      used.insert(static_cast<sim::ServiceId>(rng.UniformInt(0, num_services - 1)));
    }
    spec.AddPath(sim::ExecutionPath{
        sim::Chain(std::vector<sim::ServiceId>(used.begin(), used.end())), 1.0, {}});
    app->AddApi(std::move(spec));
  }
  app->Finalize();
  core::ApiRegistry registry(*app);

  std::vector<sim::ServiceId> overloaded;
  for (int s = 0; s < num_services; ++s) {
    if (rng.Bernoulli(0.4)) overloaded.push_back(s);
  }
  // Canonical form: clusters sorted by their (sorted) API lists.
  const auto canonical = [&](const std::vector<sim::ServiceId>& input) {
    auto clusters = core::BuildClusters(registry, input);
    std::vector<std::tuple<std::vector<sim::ApiId>, std::vector<sim::ServiceId>,
                           sim::ServiceId, std::vector<sim::ApiId>>>
        out;
    out.reserve(clusters.size());
    for (const auto& c : clusters) {
      out.emplace_back(c.apis, c.overloaded, c.target, c.candidates);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto baseline = canonical(overloaded);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<sim::ServiceId> permuted = overloaded;
    for (std::size_t i = permuted.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(permuted[i - 1], permuted[j]);
    }
    EXPECT_EQ(canonical(permuted), baseline) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringPermutationSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- ClusterTracker: history bookkeeping invariants ---------------------------

class ClusterTrackerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterTrackerSweep, HistoryCountsAndPartitionLabelsConsistent) {
  Rng rng(GetParam() * 1693);
  const int num_apis = static_cast<int>(rng.UniformInt(2, 12));
  core::ClusterTracker tracker(num_apis);
  int ticks = 0;
  for (int t = 0; t < 12; ++t) {
    // A random disjoint partition of a random API subset.
    std::vector<core::Cluster> clusters;
    std::vector<sim::ApiId> apis;
    for (sim::ApiId a = 0; a < num_apis; ++a) {
      if (rng.Bernoulli(0.6)) apis.push_back(a);
    }
    while (!apis.empty()) {
      core::Cluster cluster;
      const auto take = static_cast<std::size_t>(
          rng.UniformInt(1, static_cast<std::int64_t>(apis.size())));
      cluster.apis.assign(apis.end() - static_cast<std::ptrdiff_t>(take), apis.end());
      apis.resize(apis.size() - take);
      clusters.push_back(std::move(cluster));
    }
    tracker.Record(static_cast<double>(t), clusters);
    ++ticks;

    const auto& snap = tracker.History().back();
    EXPECT_EQ(snap.clusters, static_cast<int>(clusters.size()));
    EXPECT_EQ(static_cast<int>(snap.api_cluster.size()), num_apis);
    int members = 0;
    for (const int label : snap.api_cluster) {
      EXPECT_GE(label, -1);
      EXPECT_LT(label, static_cast<int>(clusters.size()));
      members += label >= 0 ? 1 : 0;
    }
    EXPECT_EQ(members, snap.member_apis);
    EXPECT_GE(snap.merges, 0);
    EXPECT_GE(snap.splits, 0);
  }
  EXPECT_EQ(static_cast<int>(tracker.History().size()), ticks);
  int merges = 0, splits = 0;
  for (const auto& snap : tracker.History()) {
    merges += snap.merges;
    splits += snap.splits;
  }
  EXPECT_EQ(tracker.TotalMerges(), merges);
  EXPECT_EQ(tracker.TotalSplits(), splits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterTrackerSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Retry amplification: span stream equals counters, bounded by policy -----
//
// Random retry/timeout configs on a small overloaded topology. Every
// dispatched hop attempt settles as exactly one span event (done or shed),
// so the span-stream attempt count must equal the engine's HopAttempts()
// counter, and the compound amplification factor computed from the raw
// counters must respect the closed-form policy bound
// (hop_retries + 1) * (client_retries + 1).

class AttemptCountingObserver : public sim::RequestObserver {
 public:
  void OnOffered(sim::ApiId, SimTime) override {}
  void OnEntryRejected(sim::ApiId, SimTime) override {}
  void OnAdmitted(sim::RequestId, sim::ApiId, SimTime) override {}
  bool Tracing(sim::RequestId) const override { return true; }
  void OnHopShed(sim::RequestId, sim::ServiceId, SimTime) override {
    ++shed_;
  }
  void OnHopDone(sim::RequestId, sim::ServiceId, SimTime, SimTime, SimTime,
                 bool) override {
    ++done_;
  }
  void OnRequestDone(sim::RequestId, sim::ApiId, SimTime, SimTime,
                     sim::Outcome, bool) override {}

  std::uint64_t attempts() const { return done_ + shed_; }

 private:
  std::uint64_t done_ = 0;
  std::uint64_t shed_ = 0;
};

class RetryAmplificationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetryAmplificationSweep, SpanStreamMatchesCountersWithinPolicyBound) {
  Rng rng(GetParam() * 2657);
  const int hop_retries = static_cast<int>(rng.UniformInt(0, 2));
  const int client_retries = static_cast<int>(rng.UniformInt(0, 3));
  const SimTime hop_timeout =
      Millis(static_cast<std::int64_t>(rng.UniformInt(60, 400)));
  const SimTime client_timeout =
      Millis(static_cast<std::int64_t>(rng.UniformInt(500, 2000)));

  // A 3-service chain with tight queues: overload produces timeouts and
  // sheds at both layers, exercising both retry amplifiers.
  auto app = std::make_unique<sim::Application>("amp", GetParam());
  for (int s = 0; s < 3; ++s) {
    sim::ServiceConfig config;
    config.name = "s" + std::to_string(s);
    config.mean_service_ms = rng.Uniform(5.0, 25.0);
    config.threads = 2;
    config.max_queue = static_cast<int>(rng.UniformInt(8, 48));
    app->AddService(config);
  }
  sim::ApiSpec spec("api0", 1);
  spec.AddPath(sim::ExecutionPath{sim::Chain({0, 1, 2}), 1.0, {}});
  app->AddApi(std::move(spec));
  app->Finalize();
  app->ConfigureRpc(hop_timeout, hop_retries, Millis(20));

  AttemptCountingObserver observer;
  app->SetObserver(&observer);

  // Overload for 8 s, then drain: users drop to zero and the run continues
  // until every in-flight attempt has settled.
  workload::ClosedLoopConfig config;
  config.mix.weights = {1.0};
  config.think = Millis(200);
  config.client_timeout = client_timeout;
  config.max_client_retries = client_retries;
  config.client_retry_backoff = Millis(50);
  workload::Schedule users = workload::Schedule::Constant(0.0);
  users.Then(0, rng.Uniform(40.0, 120.0));
  users.Then(Seconds(8), 0.0);
  workload::TrafficDriver driver(app.get());
  driver.AddClosedLoop(config, users);
  app->RunFor(Seconds(40));
  ASSERT_EQ(app->Inflight(), 0);

  // Span stream == engine counter: every dispatched attempt settled as
  // exactly one OnHopDone or OnHopShed.
  EXPECT_EQ(observer.attempts(), app->HopAttempts());

  std::uint64_t client_attempts = 0;
  std::uint64_t client_intents = 0;
  for (const workload::UserOutcomes& user : driver.pools()[0]->Outcomes()) {
    client_attempts += user.attempts;
    client_intents += user.intents;
    EXPECT_LE(user.ok + user.failed, user.intents);
    EXPECT_LE(user.intents, user.attempts);
    // Per-user closed form: at most 1 + retries submissions per intent.
    EXPECT_LE(user.attempts,
              user.intents * static_cast<std::uint64_t>(client_retries + 1));
  }
  ASSERT_GT(client_intents, 0u);

  const obs::AmplificationStats amp = obs::ComputeAmplification(
      app->HopAttempts(), app->Retries(), client_attempts, client_intents);
  EXPECT_DOUBLE_EQ(amp.total,
                   amp.hop_amplification * amp.client_amplification);
  // Closed-form policy bounds on each factor and the compound.
  EXPECT_GE(amp.hop_amplification, 1.0);
  EXPECT_LE(amp.hop_amplification, static_cast<double>(hop_retries + 1) + 1e-9);
  EXPECT_GE(amp.client_amplification, 1.0);
  EXPECT_LE(amp.client_amplification,
            static_cast<double>(client_retries + 1) + 1e-9);
  EXPECT_LE(amp.total, static_cast<double>((hop_retries + 1) *
                                           (client_retries + 1)) +
                           1e-9);
  // The counters the factors derive from reconcile exactly.
  EXPECT_EQ(amp.hop_attempts - amp.server_retries,
            app->HopAttempts() - app->Retries());
  // A zero-retry policy admits no amplification at all.
  if (hop_retries == 0) EXPECT_DOUBLE_EQ(amp.hop_amplification, 1.0);
  if (client_retries == 0) EXPECT_DOUBLE_EQ(amp.client_amplification, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryAmplificationSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Sharded DES: independent shards match one engine ----------------------
//
// Random event chains, each confined to one of 2-4 shards (as every hop of
// a request is confined to the shard that owns its cluster), run through
// the sharded engine in randomly placed RunUntil chunks. Every hop must run
// exactly at its timestamp, and each shard's execution sequence must match
// a single-simulation reference that runs all the chains on one engine:
// where the rounds fall, and whether shards run on threads, changes
// nothing.

class ShardedCausalitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedCausalitySweep, MatchesSingleSimReferenceAndDeliversOnTime) {
  Rng rng(GetParam() * 0x51A2DE5ULL + 3);
  const int num_shards = static_cast<int>(rng.UniformInt(2, 4));
  const int num_chains = static_cast<int>(rng.UniformInt(5, 40));
  const SimTime end = Seconds(2);

  // Pre-generate the chains so the sharded run and the reference replay
  // exactly the same structure: chain c runs on shard `shard` at `times`.
  // Gaps are multiples of 100 us, so hops of different chains collide.
  struct ChainSpec {
    int shard;
    std::vector<SimTime> times;  // execution time of hop k
  };
  std::vector<ChainSpec> chains;
  for (int c = 0; c < num_chains; ++c) {
    ChainSpec spec;
    spec.shard = static_cast<int>(rng.UniformInt(0, num_shards - 1));
    SimTime t = 100 * static_cast<SimTime>(rng.UniformInt(0, 10000));
    const int hops = static_cast<int>(rng.UniformInt(1, 12));
    for (int k = 0; k < hops; ++k) {
      spec.times.push_back(t);
      t += 100 * static_cast<SimTime>(rng.UniformInt(1, 30));
    }
    chains.push_back(std::move(spec));
  }
  // RunUntil chunk edges, ending at `end`.
  std::vector<SimTime> edges;
  for (SimTime t = 0; t < end;) {
    t = std::min(end, t + 100 * static_cast<SimTime>(rng.UniformInt(1, 5000)));
    edges.push_back(t);
  }

  using Log = std::vector<std::vector<std::pair<SimTime, int>>>;
  const auto n = static_cast<std::size_t>(num_shards);

  // Sharded execution.
  Log sharded(n);
  {
    des::ShardedSimulation::Options options;
    options.threaded = (GetParam() % 2) == 0;  // alternate execution modes
    des::ShardedSimulation net(num_shards, options);
    struct Runner {
      des::ShardedSimulation* net;
      const std::vector<ChainSpec>* chains;
      Log* log;
      void Hop(int chain, std::size_t k) {
        const ChainSpec& spec = (*chains)[static_cast<std::size_t>(chain)];
        des::Simulation& sim = net->shard(spec.shard);
        // The hop runs exactly at its timestamp, whatever the chunking.
        ASSERT_EQ(sim.Now(), spec.times[k]);
        (*log)[static_cast<std::size_t>(spec.shard)].emplace_back(sim.Now(), chain);
        if (k + 1 < spec.times.size()) {
          auto* self = this;
          sim.ScheduleAt(spec.times[k + 1], [self, chain, k] { self->Hop(chain, k + 1); });
        }
      }
    };
    Runner runner{&net, &chains, &sharded};
    for (int c = 0; c < num_chains; ++c) {
      const auto& spec = chains[static_cast<std::size_t>(c)];
      net.shard(spec.shard).ScheduleAt(spec.times[0], [&runner, c] { runner.Hop(c, 0); });
    }
    for (const SimTime edge : edges) net.RunUntil(edge);
    EXPECT_EQ(net.Rounds(), edges.size());
    EXPECT_EQ(net.Horizon(), end);
  }

  // Single-simulation reference: same chains, all on one engine.
  Log reference(n);
  {
    des::Simulation sim;
    struct Runner {
      des::Simulation* sim;
      const std::vector<ChainSpec>* chains;
      Log* log;
      void Hop(int chain, std::size_t k) {
        const ChainSpec& spec = (*chains)[static_cast<std::size_t>(chain)];
        (*log)[static_cast<std::size_t>(spec.shard)].emplace_back(sim->Now(), chain);
        if (k + 1 < spec.times.size()) {
          auto* self = this;
          sim->ScheduleAt(spec.times[k + 1], [self, chain, k] { self->Hop(chain, k + 1); });
        }
      }
    };
    Runner runner{&sim, &chains, &reference};
    for (int c = 0; c < num_chains; ++c) {
      sim.ScheduleAt(chains[static_cast<std::size_t>(c)].times[0],
                     [&runner, c] { runner.Hop(c, 0); });
    }
    sim.RunUntil(end);
  }

  // A shard's events are scheduled in the same relative order as on the
  // shared engine, so even equal-time hops must run in the same order.
  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_EQ(sharded[s], reference[s]) << "shard " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedCausalitySweep,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace topfull
