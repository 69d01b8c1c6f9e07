// DES hot-path throughput microbenchmark (engine rewrite, DESIGN.md §10).
//
// Measures events/sec and heap allocations per event for four workloads that
// stress different parts of the engine:
//   open_loop       Poisson arrivals through a 3-hop chain (steady state)
//   deep_call_tree  closed-loop users over a parallel fan-out call tree
//   timeout_heavy   2 s hop timeouts on a few-ms chain: every hop arms a
//                   timer that is cancelled long before it would fire
//   timer_churn     pure DES: 64 connections re-arming a 1 s idle timeout
//                   every 1 ms of activity
// plus rows for the live telemetry plane, the sharded engine, and
// closed_loop_<users> (2.6k / 20k / 200k users thinking ~1 s, so the queue
// holds about one pending timer per user).
//
// Allocations are counted by a global operator new hook, so run this binary
// alone (single process, Release build) for meaningful numbers. Events are
// counted as processed + cancelled: the seed engine had no cancellation and
// let dead timers fire as no-ops, so this is the comparable event count.
//
// The seed rows embedded below were measured from the pre-rewrite engine
// (shared_ptr request state + std::function events + std::priority_queue,
// commit 62e3978) with identical workload code on the reference machine.
//
// Output: one human-readable row per workload plus a JSON file (default
// ./BENCH_event_throughput.json, override with argv[1]) containing both the
// embedded seed rows and the rows measured by this run. CI gates on the
// JSON: allocs_per_event is machine-independent; events_per_sec is compared
// against a committed same-class-runner baseline with generous tolerance.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "des/sharded_simulation.hpp"
#include "obs/live.hpp"
#include "obs/text_buffer.hpp"
#include "sim/app.hpp"
#include "sim/call_graph.hpp"
#include "sim/sharded_app.hpp"
#include "workload/generators.hpp"

using namespace topfull;

// --- counting allocator hook -------------------------------------------------

// Replacing global operator new with a malloc-backed hook is conforming;
// GCC cannot see the new/free pairing across the replacement and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct Measurement {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  sim::Application::ArenaStats arena;  // zero for the pure-DES workload
  /// Live-plane rows only: wall time spent inside Publish and the number of
  /// snapshots published. publish_s / wall_s is the publisher overhead,
  /// measured directly rather than as a delta of two noisy eps readings.
  double publish_s = 0.0;
  std::uint64_t publishes = 0;
};

std::uint64_t EngineEvents(const des::Simulation& sim) {
  return sim.EventsProcessed() + sim.EventsCancelled();
}

/// Runs `app` to `warmup_s`, then measures wall time, engine events and heap
/// allocations while advancing to `warmup_s + measure_s`.
Measurement MeasureApp(sim::Application& app, double warmup_s, double measure_s) {
  app.RunUntil(Seconds(warmup_s));
  const std::uint64_t events0 = EngineEvents(app.sim());
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  app.RunUntil(Seconds(warmup_s + measure_s));
  const auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events = EngineEvents(app.sim()) - events0;
  m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  m.arena = app.Arena();
  return m;
}

std::unique_ptr<sim::Application> MakeChainApp(std::uint64_t seed,
                                               SimTime hop_timeout, int retries) {
  auto app = std::make_unique<sim::Application>("chain3", seed);
  const double mean_ms[] = {4.0, 5.0, 6.0};
  for (int i = 0; i < 3; ++i) {
    sim::ServiceConfig config;
    config.name = "svc" + std::to_string(i);
    config.mean_service_ms = mean_ms[i];
    config.threads = 16;
    config.initial_pods = 8;
    app->AddService(config);
  }
  sim::ApiSpec api("chain", 1);
  api.AddPath(sim::ExecutionPath{sim::Chain({0, 1, 2}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  if (hop_timeout > 0) app->ConfigureRpc(hop_timeout, retries, Millis(10));
  return app;
}

Measurement RunOpenLoop() {
  auto app = MakeChainApp(101, /*hop_timeout=*/0, 0);
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(15000.0));
  return MeasureApp(*app, 3.0, 15.0);
}

/// open_loop with the live telemetry plane attached: the observability
/// server runs on an ephemeral port and a full metrics snapshot is captured
/// and published every `publish_every_s` of *simulation* time, so the number
/// of publishes (and the allocations they cost) is machine-independent.
/// The eps delta against the plain open_loop row is the publisher overhead.
Measurement RunOpenLoopLive(double publish_every_s) {
  auto app = MakeChainApp(101, /*hop_timeout=*/0, 0);
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(15000.0));

  obs::LivePlane live;  // ephemeral port
  live.StartServer();
  obs::LiveSources sources;
  sources.app = app.get();
  sources.label = "open_loop_live";
  sources.duration_s = 18.0;

  app->RunUntil(Seconds(3.0));
  live.Publish(sources);
  const SimTime step = Seconds(publish_every_s);
  const SimTime end = Seconds(18.0);
  const std::uint64_t events0 = EngineEvents(app->sim());
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  SimTime next = Seconds(3.0);
  double publish_s = 0.0;
  std::uint64_t publishes = 0;
  while (next < end) {
    next += step;
    app->RunUntil(next < end ? next : end);
    const auto p0 = std::chrono::steady_clock::now();
    live.Publish(sources);
    publish_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - p0)
            .count();
    ++publishes;
  }
  const auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events = EngineEvents(app->sim()) - events0;
  m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  m.arena = app->Arena();
  m.publish_s = publish_s;
  m.publishes = publishes;
  return m;
}

/// `copies` independent deep-tree deployments in one Application. Copy 0 is
/// the historical deep_call_tree workload byte for byte; further copies are
/// disjoint replicas, so the shard partitioner sees `copies` clusters.
std::unique_ptr<sim::Application> MakeDeepTreeApp(int copies) {
  auto app = std::make_unique<sim::Application>("deep-tree", 202);
  for (int c = 0; c < copies; ++c) {
    const std::string prefix = c == 0 ? "" : "c" + std::to_string(c) + "-";
    const auto base = static_cast<sim::ServiceId>(app->NumServices());
    sim::ServiceConfig root;
    root.name = prefix + "root";
    root.mean_service_ms = 1.0;
    root.threads = 16;
    root.initial_pods = 8;
    app->AddService(root);
    for (int b = 0; b < 3; ++b) {
      for (int d = 0; d < 2; ++d) {
        sim::ServiceConfig config;
        config.name = prefix + "b" + std::to_string(b) + "d" + std::to_string(d);
        config.mean_service_ms = 2.0;
        config.threads = 16;
        config.initial_pods = 4;
        app->AddService(config);
      }
    }
    // root fans out to three 2-deep chains in parallel: 7 hops per request.
    sim::CallNode tree;
    tree.service = base;
    tree.parallel = true;
    for (int b = 0; b < 3; ++b) {
      tree.children.push_back(
          sim::Chain({static_cast<sim::ServiceId>(base + 1 + 2 * b),
                      static_cast<sim::ServiceId>(base + 2 + 2 * b)}));
    }
    sim::ApiSpec api(c == 0 ? "tree" : prefix + "tree", 1);
    api.AddPath(sim::ExecutionPath{tree, 1.0, {}});
    app->AddApi(std::move(api));
  }
  app->Finalize();
  return app;
}

Measurement RunDeepCallTree() {
  auto app = MakeDeepTreeApp(1);
  workload::TrafficDriver traffic(app.get());
  workload::ClosedLoopConfig users;
  users.mix.weights = {1.0};
  users.think = Millis(200);
  traffic.AddClosedLoop(users, workload::Schedule::Constant(3000));
  return MeasureApp(*app, 3.0, 12.0);
}

/// The sharded engine on a scaled deep-tree workload: 8 disjoint tree
/// deployments (8 clusters), 16k closed-loop users, one simulation
/// partitioned across `shards` engine shards, whole clusters each, so each
/// RunUntil is one round. Measures aggregate events/sec over all shards,
/// the rounds, and the blocked fraction of shard wall time (the time a
/// shard waits for the slowest one: shard imbalance).
struct ShardedMeasurement {
  Measurement m;
  double blocked_frac = 0.0;
  std::uint64_t rounds = 0;  ///< rounds in the measured span
};

ShardedMeasurement RunShardedDeepTree(int shards) {
  constexpr int kCopies = 8;
  sim::ShardedApp::Options options;
  options.shards = shards;
  sim::ShardedApp app([] { return MakeDeepTreeApp(kCopies); }, options);
  std::vector<std::unique_ptr<workload::TrafficDriver>> traffic;
  for (int i = 0; i < shards; ++i) {
    auto driver = std::make_unique<workload::TrafficDriver>(&app.app(i));
    if (shards > 1) {
      driver->SetShardScope({&app.plan().api_origin, i});
    }
    workload::ClosedLoopConfig users;
    users.mix.weights.assign(kCopies, 1.0);
    users.think = Millis(200);
    driver->AddClosedLoop(users, workload::Schedule::Constant(2000.0 * kCopies));
    traffic.push_back(std::move(driver));
  }
  auto engine_events = [&app, shards] {
    std::uint64_t total = 0;
    for (int i = 0; i < shards; ++i) total += EngineEvents(app.app(i).sim());
    return total;
  };
  app.RunUntil(Seconds(3));
  const std::vector<des::ShardedSimulation::ShardStats> stats0 =
      app.engine().Stats();
  const std::uint64_t events0 = engine_events();
  const std::uint64_t rounds0 = app.engine().Rounds();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  app.RunUntil(Seconds(9));
  const auto t1 = std::chrono::steady_clock::now();
  ShardedMeasurement r;
  r.m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.m.events = engine_events() - events0;
  r.m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  double busy = 0, blocked = 0;
  const auto& stats = app.engine().Stats();
  for (int i = 0; i < shards; ++i) {
    const auto& s0 = stats0[static_cast<std::size_t>(i)];
    const auto& s1 = stats[static_cast<std::size_t>(i)];
    busy += s1.busy_s - s0.busy_s;
    blocked += s1.blocked_s - s0.blocked_s;
  }
  r.blocked_frac = busy + blocked > 0 ? blocked / (busy + blocked) : 0.0;
  r.rounds = app.engine().Rounds() - rounds0;
  for (int i = 0; i < shards; ++i) r.m.arena.record_bytes += app.app(i).Arena().record_bytes;
  return r;
}

Measurement RunTimeoutHeavy() {
  // Hop timeouts of 2 s on a chain whose latencies are a few ms: every hop
  // arms a timeout that the seed engine kept as dead weight in the queue
  // for 2 s; the rewritten engine cancels it when the hop settles.
  auto app = MakeChainApp(303, Seconds(2), /*retries=*/1);
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(12000.0));
  return MeasureApp(*app, 4.0, 12.0);
}

Measurement RunTimerChurn() {
  // 64 connections, each re-arming a 1 s idle timeout every 1 ms of
  // activity. Seed engine: the superseded timeout stays queued (dead) and
  // fires as a no-op; rewritten engine: it is cancelled in O(log n).
  des::Simulation sim;
  constexpr int kConns = 64;
  constexpr SimTime kActivity = Millis(1);
  constexpr SimTime kIdleTimeout = Seconds(1);
  struct Conn {
    std::uint64_t epoch = 0;
  };
  std::vector<Conn> conns(kConns);
  std::uint64_t expired = 0;
  std::function<void(int)> activity = [&](int i) {
    const std::uint64_t epoch = ++conns[i].epoch;
    sim.ScheduleAfter(kIdleTimeout, [&conns, &expired, i, epoch]() {
      if (conns[static_cast<std::size_t>(i)].epoch == epoch) ++expired;
    });
    sim.ScheduleAfter(kActivity, [&activity, i]() { activity(i); });
  };
  for (int i = 0; i < kConns; ++i) {
    sim.ScheduleAt(i, [&activity, i]() { activity(i); });
  }
  sim.RunUntil(Seconds(3));
  const std::uint64_t events0 = EngineEvents(sim);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunUntil(Seconds(18));
  const auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events = EngineEvents(sim) - events0;
  m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  if (expired > 0) std::fprintf(stderr, "unexpected expirations: %llu\n",
                                static_cast<unsigned long long>(expired));
  return m;
}

/// Closed-loop users thinking 1 s (±10 %) against one wide service (64
/// pods x 16 threads, 1 ms mean, ~1M rps of capacity), so requests barely
/// queue. Every user always holds one think or client-timeout timer, which
/// makes the pending depth about `users`: these rows show how the queue's
/// cost grows with depth. `pending` is the mean depth over the measured
/// seconds.
struct ClosedLoopMeasurement {
  Measurement m;
  double pending = 0.0;
};

ClosedLoopMeasurement RunClosedLoop(int users) {
  auto app = std::make_unique<sim::Application>("closed-loop", 404);
  sim::ServiceConfig config;
  config.name = "svc";
  config.mean_service_ms = 1.0;
  config.threads = 16;
  config.initial_pods = 64;
  app->AddService(config);
  sim::ApiSpec api("api", 1);
  api.AddPath(sim::ExecutionPath{sim::Chain({0}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  workload::TrafficDriver traffic(app.get());
  workload::ClosedLoopConfig pool;
  pool.mix.weights = {1.0};
  traffic.AddClosedLoop(pool, workload::Schedule::Constant(users));

  // About 1.5M measured events per row (~3 events per request).
  constexpr int kWarmupS = 3;
  const int measure_s = std::max(2, 500000 / users);
  app->RunUntil(Seconds(kWarmupS));
  const std::uint64_t events0 = EngineEvents(app->sim());
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  double pending_sum = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 1; s <= measure_s; ++s) {
    app->RunUntil(Seconds(kWarmupS + s));
    pending_sum += static_cast<double>(app->sim().PendingEvents());
  }
  const auto t1 = std::chrono::steady_clock::now();
  ClosedLoopMeasurement r;
  r.m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.m.events = EngineEvents(app->sim()) - events0;
  r.m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.m.arena = app->Arena();
  r.pending = pending_sum / measure_s;
  return r;
}

/// Seed-engine numbers measured on the reference machine (Release, same
/// workload code, events counted as all-fire which equals processed +
/// cancelled for an engine without cancellation).
struct SeedRow {
  const char* name;
  double events_per_sec;
  double allocs_per_event;
};

constexpr SeedRow kSeedRows[] = {
    {"open_loop", 2.19e6, 10.8332},
    {"deep_call_tree", 1.645e6, 9.7045},
    {"timeout_heavy", 1.435e6, 7.4770},
    {"timer_churn", 6.89e6, 0.5000},
};

/// Appends one JSON row; `extra` holds further `, "key": value` fields.
/// `arena_bytes` is the request engine's record bytes at the end of the
/// row (ArenaStats::record_bytes, summed over shards; 0 without an app).
void AppendJsonRow(std::string& out, const char* workload, const char* engine,
                   std::uint64_t events, double wall_s, double events_per_sec,
                   double allocs_per_event, std::size_t arena_bytes, bool last,
                   const char* extra = "") {
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "  {\"workload\": \"%s\", \"engine\": \"%s\", "
                "\"events\": %llu, \"wall_s\": %.4f, "
                "\"events_per_sec\": %.1f, \"allocs_per_event\": %.4f, "
                "\"arena_bytes\": %llu%s}%s\n",
                workload, engine, static_cast<unsigned long long>(events),
                wall_s, events_per_sec, allocs_per_event,
                static_cast<unsigned long long>(arena_bytes), extra,
                last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_event_throughput.json";
  struct Case {
    const char* name;
    Measurement (*run)();
  };
  const Case cases[] = {{"open_loop", RunOpenLoop},
                        {"deep_call_tree", RunDeepCallTree},
                        {"timeout_heavy", RunTimeoutHeavy},
                        {"timer_churn", RunTimerChurn}};
  std::string json = "[\n";
  for (const auto& seed : kSeedRows) {
    AppendJsonRow(json, seed.name, "seed", 0, 0.0, seed.events_per_sec,
                  seed.allocs_per_event, 0, false);
  }
  double open_loop_eps = 0.0;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& c = cases[i];
    const Measurement m = c.run();
    const double eps = static_cast<double>(m.events) / m.wall_s;
    const double ape =
        static_cast<double>(m.allocs) / static_cast<double>(m.events);
    if (std::string(c.name) == "open_loop") open_loop_eps = eps;
    std::printf(
        "%s: events=%llu wall_s=%.3f events_per_sec=%.0f allocs=%llu "
        "allocs_per_event=%.4f\n",
        c.name, static_cast<unsigned long long>(m.events), m.wall_s, eps,
        static_cast<unsigned long long>(m.allocs), ape);
    if (m.arena.request_capacity > 0) {
      std::printf(
          "  arena: live_requests=%llu request_capacity=%llu "
          "live_attempts=%llu attempt_capacity=%llu record_bytes=%llu\n",
          static_cast<unsigned long long>(m.arena.live_requests),
          static_cast<unsigned long long>(m.arena.request_capacity),
          static_cast<unsigned long long>(m.arena.live_attempts),
          static_cast<unsigned long long>(m.arena.attempt_capacity),
          static_cast<unsigned long long>(m.arena.record_bytes));
    }
    AppendJsonRow(json, c.name, "current", m.events, m.wall_s, eps, ape,
                  m.arena.record_bytes, /*last=*/false);
  }

  // Live telemetry plane on the open_loop workload: snapshot publishes paced
  // by sim time (10 ms / 100 ms), server listening. The eps delta against
  // the plain open_loop row above is the publisher's overhead.
  const struct {
    const char* name;
    double publish_every_s;
  } live_cases[] = {{"open_loop_live_10ms", 0.010},
                    {"open_loop_live_100ms", 0.100}};
  for (const auto& c : live_cases) {
    const Measurement m = RunOpenLoopLive(c.publish_every_s);
    const double eps = static_cast<double>(m.events) / m.wall_s;
    const double ape =
        static_cast<double>(m.allocs) / static_cast<double>(m.events);
    // Direct overhead: wall time inside Publish, measured exactly. The eps
    // delta against open_loop measures the same thing but is buried in
    // run-to-run scheduling noise on shared machines. Publishes here are
    // paced by SIM time so the count is deterministic; since the sim runs
    // much faster than wall time, the in-bench publish fraction overstates
    // the real cost. wall_paced_overhead rescales to what the LivePlane
    // actually does — publish every c.publish_every_s of WALL time — which
    // is the ≤2% publisher budget the live plane is held to.
    const double publish_frac = m.wall_s > 0 ? 100.0 * m.publish_s / m.wall_s : 0.0;
    const double us_per_publish =
        m.publishes > 0 ? 1e6 * m.publish_s / static_cast<double>(m.publishes)
                        : 0.0;
    const double wall_paced_overhead =
        100.0 * (us_per_publish * 1e-6) / c.publish_every_s;
    std::printf(
        "%s: events=%llu wall_s=%.3f events_per_sec=%.0f allocs=%llu "
        "allocs_per_event=%.4f publishes=%llu us_per_publish=%.1f "
        "publish_frac_in_bench=%.2f%% wall_paced_overhead=%.2f%% "
        "eps_delta_vs_open_loop=%.2f%%\n",
        c.name, static_cast<unsigned long long>(m.events), m.wall_s, eps,
        static_cast<unsigned long long>(m.allocs), ape,
        static_cast<unsigned long long>(m.publishes), us_per_publish,
        publish_frac, wall_paced_overhead,
        open_loop_eps > 0 ? 100.0 * (1.0 - eps / open_loop_eps) : 0.0);
    AppendJsonRow(json, c.name, "current", m.events, m.wall_s, eps, ape,
                  m.arena.record_bytes, /*last=*/false);
  }

  // Queue depth: closed-loop users, one pending timer each. CI gates the
  // 20k and 200k rows, which keep the far calendar ring deep: the ring's
  // chunk pool reaches its high-water mark during the 3 s warm-up, so the
  // measured seconds allocate nothing in the engine. The 2.6k row's
  // long measurement (192 s) shows the metrics timeline's growth, about
  // two allocations per simulated second, so it is reported only.
  for (const int users : {2600, 20000, 200000}) {
    const ClosedLoopMeasurement r = RunClosedLoop(users);
    const double eps = static_cast<double>(r.m.events) / r.m.wall_s;
    const double ape =
        static_cast<double>(r.m.allocs) / static_cast<double>(r.m.events);
    char name[64];
    std::snprintf(name, sizeof name, "closed_loop_%d", users);
    std::printf(
        "%s: events=%llu wall_s=%.3f events_per_sec=%.0f allocs=%llu "
        "allocs_per_event=%.4f pending=%.0f\n",
        name, static_cast<unsigned long long>(r.m.events), r.m.wall_s, eps,
        static_cast<unsigned long long>(r.m.allocs), ape, r.pending);
    char extra[64];
    std::snprintf(extra, sizeof extra, ", \"pending\": %.0f", r.pending);
    AppendJsonRow(json, name, "current", r.m.events, r.m.wall_s, eps, ape,
                  r.m.arena.record_bytes, /*last=*/false, extra);
  }

  // Sharded engine: one scaled deep-tree simulation across 1/2/4/8 shards.
  // Aggregate events/sec; speedup is reported against the 1-shard row of
  // this same process (hardware-dependent — near-linear on free cores,
  // flat on an oversubscribed machine where blocked_frac goes to 1).
  const int shard_counts[] = {1, 2, 4, 8};
  double sharded_base_eps = 0.0;
  for (std::size_t i = 0; i < std::size(shard_counts); ++i) {
    const int shards = shard_counts[i];
    const ShardedMeasurement r = RunShardedDeepTree(shards);
    const double eps = static_cast<double>(r.m.events) / r.m.wall_s;
    const double ape =
        static_cast<double>(r.m.allocs) / static_cast<double>(r.m.events);
    if (shards == 1) sharded_base_eps = eps;
    char name[64];
    std::snprintf(name, sizeof name, "sharded_deep_tree_s%d", shards);
    std::printf(
        "%s: events=%llu wall_s=%.3f events_per_sec=%.0f allocs_per_event=%.4f "
        "blocked_frac=%.3f rounds=%llu speedup=%.2fx\n",
        name, static_cast<unsigned long long>(r.m.events), r.m.wall_s, eps, ape,
        r.blocked_frac, static_cast<unsigned long long>(r.rounds),
        sharded_base_eps > 0 ? eps / sharded_base_eps : 0.0);
    char extra[160];
    std::snprintf(extra, sizeof extra,
                  ", \"shards\": %d, \"blocked_frac\": %.4f, \"rounds\": %llu",
                  shards, r.blocked_frac, static_cast<unsigned long long>(r.rounds));
    AppendJsonRow(json, name, "current", r.m.events, r.m.wall_s, eps, ape,
                  r.m.arena.record_bytes,
                  /*last=*/i + 1 == std::size(shard_counts), extra);
  }
  json += "]\n";
  if (!obs::WriteTextFile(out_path, json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
