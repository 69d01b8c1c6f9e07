// Unit tests for the microservice simulator substrate: call graphs, pods,
// services, metrics, and the Application request engine.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/app.hpp"
#include "sim/call_graph.hpp"
#include "sim/pod.hpp"
#include "done_closures.hpp"
#include "recording_sink.hpp"

namespace topfull::sim {
namespace {

// --- Call graphs -----------------------------------------------------------

TEST(CallGraphTest, ChainBuilderShape) {
  const CallNode root = Chain({0, 1, 2});
  EXPECT_EQ(root.service, 0);
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].service, 1);
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].service, 2);
  EXPECT_EQ(CountNodes(root), 3u);
}

TEST(CallGraphTest, FanOutBuilderShape) {
  const CallNode root = FanOut(0, {1, 2, 3});
  EXPECT_TRUE(root.parallel);
  EXPECT_EQ(root.children.size(), 3u);
  EXPECT_EQ(CountNodes(root), 4u);
}

TEST(CallGraphTest, CollectServicesDeduplicates) {
  CallNode root = Chain({0, 1});
  root.children.push_back(Chain({1, 2}));
  std::set<ServiceId> services;
  CollectServices(root, services);
  EXPECT_EQ(services, (std::set<ServiceId>{0, 1, 2}));
}

TEST(ApiSpecTest, FinalizeNormalisesProbabilitiesAndUnionsServices) {
  ApiSpec spec("api", 1);
  spec.AddPath(ExecutionPath{Chain({0, 1}), 3.0, {}});
  spec.AddPath(ExecutionPath{Chain({0, 2}), 1.0, {}});
  spec.Finalize();
  EXPECT_DOUBLE_EQ(spec.paths()[0].probability, 0.75);
  EXPECT_DOUBLE_EQ(spec.paths()[1].probability, 0.25);
  EXPECT_EQ(spec.involved_services(), (std::set<ServiceId>{0, 1, 2}));
  EXPECT_TRUE(spec.Uses(2));
  EXPECT_FALSE(spec.Uses(9));
}

TEST(ApiSpecTest, SamplePathRespectsProbabilities) {
  ApiSpec spec("api", 1);
  spec.AddPath(ExecutionPath{Chain({0}), 0.8, {}});
  spec.AddPath(ExecutionPath{Chain({1}), 0.2, {}});
  spec.Finalize();
  EXPECT_EQ(spec.SamplePath(0.1), 0u);
  EXPECT_EQ(spec.SamplePath(0.79), 0u);
  EXPECT_EQ(spec.SamplePath(0.81), 1u);
  EXPECT_EQ(spec.SamplePath(0.999), 1u);
}

// --- Pods -------------------------------------------------------------------

TEST(PodTest, ServesSequentiallyPerThread) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/1, /*max_queue=*/10, rec.sink());
  pod.Start();
  for (std::uint32_t i = 0; i < 3; ++i) ASSERT_TRUE(pod.Enqueue(Millis(10), i));
  sim.RunUntil(Seconds(1));
  const auto& done = rec.reports();
  ASSERT_EQ(done.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(done[i].ok);
    EXPECT_EQ(done[i].token, i);
  }
  EXPECT_EQ(done[0].at, Millis(10));
  EXPECT_EQ(done[1].at, Millis(20));
  EXPECT_EQ(done[2].at, Millis(30));
}

TEST(PodTest, ParallelThreadsServeConcurrently) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/4, /*max_queue=*/10, rec.sink());
  pod.Start();
  for (std::uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(pod.Enqueue(Millis(10), i));
  sim.RunUntil(Millis(11));
  EXPECT_EQ(rec.Count(/*ok=*/true), 4);
}

TEST(PodTest, RejectsWhenQueueFull) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/1, /*max_queue=*/2, rec.sink());
  pod.Start();
  EXPECT_TRUE(pod.Enqueue(Millis(10), 0));  // in service
  EXPECT_TRUE(pod.Enqueue(Millis(10), 1));  // queued (1)
  EXPECT_TRUE(pod.Enqueue(Millis(10), 2));  // queued (2)
  EXPECT_FALSE(pod.Enqueue(Millis(10), 3));
}

TEST(PodTest, RejectsWhenNotRunning) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, 1, 10, rec.sink());  // still starting
  EXPECT_FALSE(pod.Enqueue(Millis(1), 0));
  pod.Start();
  EXPECT_TRUE(pod.Enqueue(Millis(1), 1));
  pod.Kill();
  EXPECT_FALSE(pod.Enqueue(Millis(1), 2));
}

TEST(PodTest, KillFailsQueuedAndInflightJobs) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, 1, 10, rec.sink());
  pod.Start();
  pod.Enqueue(Millis(100), 0);
  pod.Enqueue(Millis(100), 1);
  pod.Enqueue(Millis(100), 2);
  sim.ScheduleAt(Millis(10), [&]() { pod.Kill(); });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(rec.Count(/*ok=*/true), 0);
  EXPECT_EQ(rec.Count(/*ok=*/false), 3);
}

TEST(PodTest, KillReportsQueuedTokensAtKillAndInServiceAtCompletion) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/2, /*max_queue=*/10, rec.sink());
  pod.Start();
  // Tokens 10 and 11 enter service (done at 100 and 110 ms); 12-14 queue.
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(pod.Enqueue(Millis(100 + 10 * static_cast<int>(i)), 10 + i));
  }
  ASSERT_EQ(pod.InService(), 2);
  ASSERT_EQ(pod.QueueLength(), 3);
  sim.ScheduleAt(Millis(50), [&]() { pod.Kill(); });
  sim.RunUntil(Seconds(1));
  const auto& done = rec.reports();
  ASSERT_EQ(done.size(), 5u);
  // Queued jobs fail at Kill, in FIFO order.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(done[i].token, 12 + i);
    EXPECT_FALSE(done[i].ok);
    EXPECT_EQ(done[i].at, Millis(50));
  }
  // Jobs in service fail at their own completion events.
  EXPECT_EQ(done[3].token, 10u);
  EXPECT_FALSE(done[3].ok);
  EXPECT_EQ(done[3].at, Millis(100));
  EXPECT_EQ(done[4].token, 11u);
  EXPECT_FALSE(done[4].ok);
  EXPECT_EQ(done[4].at, Millis(110));
  EXPECT_EQ(pod.DrainWindowStats().completed, 0u);
}

TEST(PodTest, HeadOfLineWaitGrowsWhileQueued) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, 1, 10, rec.sink());
  pod.Start();
  pod.Enqueue(Millis(100), 0);
  pod.Enqueue(Millis(100), 1);
  sim.RunUntil(Millis(50));
  EXPECT_EQ(pod.HeadOfLineWait(), Millis(50));
  EXPECT_EQ(pod.QueueLength(), 1);
  EXPECT_EQ(pod.InService(), 1);
  EXPECT_EQ(pod.Outstanding(), 2);
}

TEST(PodTest, WindowStatsAccounting) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, 1, 10, rec.sink());
  pod.Start();
  pod.Enqueue(Millis(100), 0);
  pod.Enqueue(Millis(100), 1);
  sim.RunUntil(Seconds(1));
  const PodWindowStats w = pod.DrainWindowStats();
  EXPECT_EQ(w.started, 2u);
  EXPECT_EQ(w.completed, 2u);
  EXPECT_NEAR(w.busy_seconds, 0.2, 1e-9);
  EXPECT_NEAR(w.queue_delay_max_s, 0.1, 1e-9);  // second job waited 100 ms
  // Drained: next window is empty.
  EXPECT_EQ(pod.DrainWindowStats().started, 0u);
}

TEST(PodTest, IdleFastPathRecordsTheSameStatsAsTheQueuedPath) {
  // Two pods see the same jobs. On `queued`, job 1 arrives while its only
  // effective server is busy and waits in the queue until a server comes
  // back online at the same instant; on `direct`, the server is back first,
  // so job 1 finds the queue empty and enters service at once.
  des::Simulation sim;
  RecordingSink queued_rec(&sim);
  RecordingSink direct_rec(&sim);
  Pod queued(&sim, /*threads=*/2, /*max_queue=*/10, queued_rec.sink());
  Pod direct(&sim, /*threads=*/2, /*max_queue=*/10, direct_rec.sink());
  for (Pod* pod : {&queued, &direct}) {
    pod->Start();
    pod->SetOfflineThreads(1);
    ASSERT_TRUE(pod->Enqueue(Millis(30), 0));
  }
  sim.ScheduleAt(Millis(5), [&]() {
    ASSERT_TRUE(queued.Enqueue(Millis(20), 1));
    ASSERT_EQ(queued.QueueLength(), 1);
    queued.SetOfflineThreads(0);
    direct.SetOfflineThreads(0);
    ASSERT_TRUE(direct.Enqueue(Millis(20), 1));
    ASSERT_EQ(direct.QueueLength(), 0);
    EXPECT_EQ(queued.InService(), 2);
    EXPECT_EQ(direct.InService(), 2);
  });
  sim.RunUntil(Seconds(1));
  const PodWindowStats q = queued.DrainWindowStats();
  const PodWindowStats d = direct.DrainWindowStats();
  EXPECT_EQ(q.started, 2u);
  EXPECT_EQ(d.started, q.started);
  EXPECT_EQ(d.completed, q.completed);
  EXPECT_EQ(d.busy_seconds, q.busy_seconds);
  EXPECT_EQ(d.queue_delay_sum_s, q.queue_delay_sum_s);
  EXPECT_EQ(d.queue_delay_max_s, q.queue_delay_max_s);
  ASSERT_EQ(queued_rec.reports().size(), 2u);
  ASSERT_EQ(direct_rec.reports().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(direct_rec.reports()[i].token, queued_rec.reports()[i].token);
    EXPECT_EQ(direct_rec.reports()[i].at, queued_rec.reports()[i].at);
  }
}

// --- Pod in-service records ---------------------------------------------------

TEST(PodRecordTest, KillMidServiceFailsEachInFlightJobExactlyOnce) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/3, /*max_queue=*/10, rec.sink());
  pod.Start();
  std::vector<int> fails(5, 0);
  std::vector<int> oks(5, 0);
  rec.OnReport([&](std::uint32_t token, bool ok) { ++(ok ? oks : fails)[token]; });
  for (std::size_t i = 0; i < fails.size(); ++i) {
    // Three jobs enter service at once; two wait in the queue.
    pod.Enqueue(Millis(100 + 10 * static_cast<int>(i)), static_cast<std::uint32_t>(i));
  }
  ASSERT_EQ(pod.InService(), 3);
  sim.ScheduleAt(Millis(50), [&]() { pod.Kill(); });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fails, std::vector<int>(5, 1));
  EXPECT_EQ(oks, std::vector<int>(5, 0));
  // Every in-flight completion still fired and handed its record back.
  EXPECT_EQ(pod.ServiceRecordCapacity(), 3u);
  EXPECT_EQ(pod.FreeServiceRecords(), 3u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(PodRecordTest, NeverHoldsMoreRecordsThanThreads) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/4, /*max_queue=*/1000, rec.sink());
  pod.Start();
  Rng rng(7);
  std::vector<Pod::HoldHandle> holds(64);
  std::size_t next_hold = 0;
  std::vector<Pod::HoldHandle*> hold_of(400, nullptr);  // by token
  int completed = 0;
  rec.OnReport([&](std::uint32_t token, bool) {
    ++completed;
    Pod::HoldHandle* hold = hold_of[token];
    if (hold != nullptr) {
      sim.ScheduleAfter(Millis(0.5), [&pod, hold]() { pod.Release(*hold); });
    }
  });
  // A random mix of plain and held jobs, arriving faster than they are
  // served, with held slots released a little after local completion.
  for (std::uint32_t i = 0; i < 400; ++i) {
    sim.ScheduleAt(rng.UniformInt(0, Millis(200)), [&, i]() {
      const SimTime service = rng.UniformInt(100, Millis(3));  // us
      if (rng.NextDouble() < 0.3) {
        hold_of[i] = &holds[next_hold++ % holds.size()];
        pod.EnqueueHeld(service, i, hold_of[i]);
      } else {
        pod.Enqueue(service, i);
      }
    });
  }
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(completed, 400);
  EXPECT_EQ(pod.ServiceRecordCapacity(), 4u);  // a high-water mark
  EXPECT_EQ(pod.FreeServiceRecords(), 4u);
}

TEST(PodRecordTest, EnqueueFromDoneReusesTheFreedRecord) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/2, /*max_queue=*/10, rec.sink());
  pod.Start();
  int rounds = 0;
  rec.OnReport([&](std::uint32_t, bool ok) {
    ASSERT_TRUE(ok);
    // The finished job's record is already free when the sink runs.
    EXPECT_EQ(pod.FreeServiceRecords(), 1u);
    if (++rounds < 5) {
      ASSERT_TRUE(pod.Enqueue(Millis(10), static_cast<std::uint32_t>(rounds)));
    }
  });
  ASSERT_TRUE(pod.Enqueue(Millis(10), 0));
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(rounds, 5);
  // One record served all five jobs although the pod has two threads.
  EXPECT_EQ(pod.ServiceRecordCapacity(), 1u);
}

// --- Services ---------------------------------------------------------------

ServiceConfig TestServiceConfig(const char* name, double mean_ms, int threads,
                                int pods) {
  ServiceConfig config;
  config.name = name;
  config.mean_service_ms = mean_ms;
  config.service_sigma = 0.0;  // deterministic service times for tests
  config.threads = threads;
  config.initial_pods = pods;
  return config;
}

TEST(ServiceTest, CapacityRpsFormula) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Service svc(&sim, 0, TestServiceConfig("s", 10.0, 4, 2), Rng(1), rec.sink());
  // 2 pods x 4 threads / 10 ms = 800 rps.
  EXPECT_DOUBLE_EQ(svc.CapacityRps(), 800.0);
}

TEST(ServiceTest, DispatchBalancesAcrossPods) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Service svc(&sim, 0, TestServiceConfig("s", 100.0, 1, 2), Rng(1), rec.sink());
  EXPECT_TRUE(svc.Dispatch(RequestInfo{}, 1.0, 0));
  EXPECT_TRUE(svc.Dispatch(RequestInfo{}, 1.0, 1));
  // Both should be in service concurrently (one per pod).
  sim.RunUntil(Millis(101));
  EXPECT_EQ(rec.Count(/*ok=*/true), 2);
}

TEST(ServiceTest, ScaleUpAfterStartupDelay) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Service svc(&sim, 0, TestServiceConfig("s", 10.0, 1, 1), Rng(1), rec.sink());
  svc.SetPodCount(3, Seconds(5));
  EXPECT_EQ(svc.RunningPods(), 1);
  EXPECT_EQ(svc.TotalPods(), 3);
  sim.RunUntil(Seconds(6));
  EXPECT_EQ(svc.RunningPods(), 3);
}

TEST(ServiceTest, ScaleDownKillsPods) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Service svc(&sim, 0, TestServiceConfig("s", 10.0, 1, 4), Rng(1), rec.sink());
  svc.SetPodCount(1);
  EXPECT_EQ(svc.RunningPods(), 1);
}

TEST(ServiceTest, KillPodsFailureInjection) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Service svc(&sim, 0, TestServiceConfig("s", 10.0, 1, 5), Rng(1), rec.sink());
  EXPECT_EQ(svc.KillPods(3), 3);
  EXPECT_EQ(svc.RunningPods(), 2);
  EXPECT_EQ(svc.KillPods(10), 2);
  EXPECT_EQ(svc.RunningPods(), 0);
  // With no running pods, dispatch sheds.
  EXPECT_FALSE(svc.Dispatch(RequestInfo{}, 1.0, 0));
  EXPECT_TRUE(rec.reports().empty());
}

TEST(ServiceTest, UtilizationReflectsLoad) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Service svc(&sim, 0, TestServiceConfig("s", 10.0, 2, 1), Rng(1), rec.sink());
  // Capacity 200 rps; submit 100 requests over 1 s => util ~0.5.
  for (std::uint32_t i = 0; i < 100; ++i) {
    sim.ScheduleAt(Millis(10 * static_cast<int>(i)),
                   [&, i]() { svc.Dispatch(RequestInfo{}, 1.0, i); });
  }
  sim.RunUntil(Seconds(1));
  const ServiceWindowStats w = svc.CollectWindow(Seconds(1));
  EXPECT_NEAR(w.cpu_utilization, 0.5, 0.05);
  EXPECT_EQ(w.started, 100u);
}

TEST(ServiceTest, ZeroRunningPodsWithArrivalsReportsSaturation) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Service svc(&sim, 0, TestServiceConfig("s", 10.0, 1, 1), Rng(1), rec.sink());
  svc.KillPods(1);
  svc.Dispatch(RequestInfo{}, 1.0, 0);
  const ServiceWindowStats w = svc.CollectWindow(Seconds(1));
  EXPECT_EQ(w.running_pods, 0);
  EXPECT_DOUBLE_EQ(w.cpu_utilization, 0.0);  // nothing started, nothing queued
}

// --- Application -------------------------------------------------------------

std::unique_ptr<Application> TwoTierApp(double sigma = 0.0) {
  auto app = std::make_unique<Application>("test", 1);
  ServiceConfig a = TestServiceConfig("A", 10.0, 4, 1);  // 400 rps
  ServiceConfig b = TestServiceConfig("B", 10.0, 1, 1);  // 100 rps
  a.service_sigma = sigma;
  b.service_sigma = sigma;
  const ServiceId sa = app->AddService(a);
  const ServiceId sb = app->AddService(b);

  ApiSpec api1("api1", 1);  // A -> B
  api1.AddPath(ExecutionPath{Chain({sa, sb}), 1.0, {}});
  app->AddApi(std::move(api1));
  ApiSpec api2("api2", 2);  // A only
  api2.AddPath(ExecutionPath{Chain({sa}), 1.0, {}});
  app->AddApi(std::move(api2));
  app->Finalize();
  return app;
}

TEST(ApplicationTest, FindByName) {
  auto app = TwoTierApp();
  EXPECT_EQ(app->FindService("B"), 1);
  EXPECT_EQ(app->FindService("missing"), kNoService);
  EXPECT_EQ(app->FindApi("api2"), 1);
  EXPECT_EQ(app->FindApi("missing"), kNoApi);
}

TEST(ApplicationTest, CompletedRequestLatencyIsSumOfStages) {
  auto app = TwoTierApp();
  DoneClosures done(app.get());
  Outcome outcome = Outcome::kRejectedEntry;
  SimTime latency = 0;
  done.Submit(0, [&](Outcome o, SimTime l) {
    outcome = o;
    latency = l;
  });
  app->RunFor(Seconds(1));
  EXPECT_EQ(outcome, Outcome::kCompleted);
  EXPECT_EQ(latency, Millis(20));  // 10 ms at A + 10 ms at B
}

TEST(ApplicationTest, MetricsCountGoodput) {
  auto app = TwoTierApp();
  for (int i = 0; i < 50; ++i) {
    app->sim().ScheduleAt(Millis(20 * i), [&app]() { app->Submit(1); });
  }
  app->RunFor(Seconds(2));
  const auto& totals = app->metrics().Totals()[1];
  EXPECT_EQ(totals.offered, 50u);
  EXPECT_EQ(totals.completed, 50u);
  EXPECT_EQ(totals.good, 50u);
}

TEST(ApplicationTest, EntryAdmissionRejectionsAreCounted) {
  class DenyAll : public EntryAdmission {
   public:
    bool Admit(ApiId, SimTime) override { return false; }
  };
  auto app = TwoTierApp();
  DenyAll deny;
  app->SetEntryAdmission(&deny);
  DoneClosures done(app.get());
  Outcome outcome = Outcome::kCompleted;
  done.Submit(0, [&](Outcome o, SimTime) { outcome = o; });
  app->RunFor(Seconds(1));
  EXPECT_EQ(outcome, Outcome::kRejectedEntry);
  EXPECT_EQ(app->metrics().Totals()[0].rejected_entry, 1u);
  EXPECT_EQ(app->metrics().Totals()[0].admitted, 0u);
}

// The done handler runs exactly once per request: inside Submit for a
// refusal, at completion for an admitted request, with that request's data.
TEST(ApplicationTest, DoneHandlerRunsOncePerRequest) {
  class RefuseFirst : public EntryAdmission {
   public:
    bool Admit(ApiId, SimTime) override { return seen_++ > 0; }

   private:
    int seen_ = 0;
  };
  auto app = TwoTierApp();
  RefuseFirst entry;
  app->SetEntryAdmission(&entry);
  struct Call {
    Outcome outcome;
    SimTime latency;
    std::uint64_t data;
    SimTime at;
    std::size_t live_requests;
  };
  std::vector<Call> calls;
  const std::uint32_t handler =
      app->AddDoneHandler([&](Outcome o, SimTime l, std::uint64_t data) {
        calls.push_back(Call{o, l, data, app->sim().Now(), app->Arena().live_requests});
      });
  app->Submit(0, DoneRef{handler, 7});
  ASSERT_EQ(calls.size(), 1u);  // answered inside Submit
  EXPECT_EQ(calls[0].outcome, Outcome::kRejectedEntry);
  EXPECT_EQ(calls[0].latency, 0);
  EXPECT_EQ(calls[0].data, 7u);
  app->Submit(0, DoneRef{handler, 8});
  EXPECT_EQ(calls.size(), 1u);
  app->RunFor(Seconds(1));
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].outcome, Outcome::kCompleted);
  EXPECT_EQ(calls[1].latency, Millis(20));
  EXPECT_EQ(calls[1].at, Millis(20));
  EXPECT_EQ(calls[1].data, 8u);
  EXPECT_EQ(calls[1].live_requests, 0u);  // the record was freed first
  // A request without a handler completes silently.
  app->Submit(1);
  app->RunFor(Seconds(1));
  EXPECT_EQ(calls.size(), 2u);
  EXPECT_EQ(app->metrics().Totals()[1].completed, 1u);
}

// A handler that submits again gets the record its request just freed: a
// chain of five requests, one at a time, never grows the request pool.
TEST(ApplicationTest, DoneHandlerMaySubmitIntoTheFreedRecord) {
  auto app = TwoTierApp();
  struct Chain {
    Application* app;
    std::uint32_t handler = 0;
    std::vector<SimTime> done_at;
  } chain{app.get(), 0, {}};
  // One capture: a handler holds 16 bytes.
  chain.handler = app->AddDoneHandler([&chain](Outcome o, SimTime, std::uint64_t left) {
    Application& a = *chain.app;
    EXPECT_EQ(o, Outcome::kCompleted);
    EXPECT_EQ(a.Arena().live_requests, 0u);
    chain.done_at.push_back(a.sim().Now());
    if (left > 0) {
      a.Submit(0, DoneRef{chain.handler, left - 1});
      EXPECT_EQ(a.Arena().live_requests, 1u);
    }
  });
  app->Submit(0, DoneRef{chain.handler, 4});
  const std::size_t capacity = app->Arena().request_capacity;
  app->RunFor(Seconds(1));
  ASSERT_EQ(chain.done_at.size(), 5u);
  for (std::size_t i = 0; i < chain.done_at.size(); ++i) {
    EXPECT_EQ(chain.done_at[i], Millis(20) * static_cast<SimTime>(i + 1));
  }
  EXPECT_EQ(app->Arena().request_capacity, capacity);
  EXPECT_EQ(app->Arena().live_requests, 0u);
  EXPECT_EQ(app->Arena().record_bytes,
            capacity * 64 + app->Arena().attempt_capacity * 64);
}

TEST(ApplicationTest, DownstreamShedFailsWholeRequest) {
  // Saturate B far beyond its queue; api1 requests must fail as
  // kRejectedService while api2 (A only) still completes.
  auto app = TwoTierApp();
  DoneClosures done(app.get());
  int rejected = 0, completed = 0;
  for (int i = 0; i < 3000; ++i) {
    app->sim().ScheduleAt(Millis(i / 4), [&]() {
      done.Submit(0, [&](Outcome o, SimTime) {
        o == Outcome::kCompleted ? ++completed : ++rejected;
      });
    });
  }
  app->RunFor(Seconds(30));
  EXPECT_GT(rejected, 0);
  EXPECT_GT(completed, 0);
  EXPECT_EQ(rejected + completed, 3000);
  EXPECT_EQ(app->metrics().Totals()[0].rejected_service,
            static_cast<std::uint64_t>(rejected));
}

TEST(ApplicationTest, SloViolationsAreNotGoodput) {
  AppConfig config;
  config.slo = Millis(15);  // tighter than the 20 ms path latency
  auto app = std::make_unique<Application>("test", 1, config);
  const ServiceId sa = app->AddService(TestServiceConfig("A", 10.0, 4, 1));
  const ServiceId sb = app->AddService(TestServiceConfig("B", 10.0, 4, 1));
  ApiSpec api("api", 1);
  api.AddPath(ExecutionPath{Chain({sa, sb}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  app->Submit(0);
  app->RunFor(Seconds(1));
  EXPECT_EQ(app->metrics().Totals()[0].completed, 1u);
  EXPECT_EQ(app->metrics().Totals()[0].good, 0u);
}

TEST(ApplicationTest, ParallelFanOutLatencyIsMax) {
  auto app = std::make_unique<Application>("test", 1);
  const ServiceId root = app->AddService(TestServiceConfig("root", 10.0, 8, 1));
  const ServiceId fast = app->AddService(TestServiceConfig("fast", 5.0, 8, 1));
  const ServiceId slow = app->AddService(TestServiceConfig("slow", 50.0, 8, 1));
  ApiSpec api("api", 1);
  api.AddPath(ExecutionPath{FanOut(root, {fast, slow}), 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  DoneClosures done(app.get());
  SimTime latency = 0;
  done.Submit(0, [&](Outcome, SimTime l) { latency = l; });
  app->RunFor(Seconds(1));
  EXPECT_EQ(latency, Millis(60));  // 10 (root) + max(5, 50)
}

TEST(ApplicationTest, SequentialChildrenLatencyIsSum) {
  auto app = std::make_unique<Application>("test", 1);
  const ServiceId root = app->AddService(TestServiceConfig("root", 10.0, 8, 1));
  const ServiceId c1 = app->AddService(TestServiceConfig("c1", 5.0, 8, 1));
  const ServiceId c2 = app->AddService(TestServiceConfig("c2", 50.0, 8, 1));
  ApiSpec api("api", 1);
  CallNode node{root, 1.0, false, {CallNode{c1, 1.0, false, {}}, CallNode{c2, 1.0, false, {}}}};
  api.AddPath(ExecutionPath{node, 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  DoneClosures done(app.get());
  SimTime latency = 0;
  done.Submit(0, [&](Outcome, SimTime l) { latency = l; });
  app->RunFor(Seconds(1));
  EXPECT_EQ(latency, Millis(65));  // 10 + 5 + 50
}

TEST(ApplicationTest, WorkScalesServiceTime) {
  auto app = std::make_unique<Application>("test", 1);
  const ServiceId svc = app->AddService(TestServiceConfig("s", 10.0, 8, 1));
  ApiSpec api("api", 1);
  api.AddPath(ExecutionPath{CallNode{svc, 2.5, false, {}}, 1.0, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  DoneClosures done(app.get());
  SimTime latency = 0;
  done.Submit(0, [&](Outcome, SimTime l) { latency = l; });
  app->RunFor(Seconds(1));
  EXPECT_EQ(latency, Millis(25));
}

TEST(ApplicationTest, BranchingApiSamplesPaths) {
  auto app = std::make_unique<Application>("test", 1);
  const ServiceId sa = app->AddService(TestServiceConfig("A", 1.0, 8, 4));
  const ServiceId sb = app->AddService(TestServiceConfig("B", 1.0, 8, 4));
  ApiSpec api("api", 1);
  api.AddPath(ExecutionPath{Chain({sa}), 0.5, {}});
  api.AddPath(ExecutionPath{Chain({sb}), 0.5, {}});
  app->AddApi(std::move(api));
  app->Finalize();
  for (int i = 0; i < 400; ++i) {
    app->sim().ScheduleAt(Millis(2 * i), [&app]() { app->Submit(0); });
  }
  app->RunFor(Seconds(2));
  // Both services saw traffic.
  const auto& snap = app->metrics().Timeline();
  ASSERT_FALSE(snap.empty());
  double a_busy = app->service(sa).pod(0).TotalBusySeconds();
  double b_busy = app->service(sb).pod(0).TotalBusySeconds();
  EXPECT_GT(a_busy, 0.0);
  EXPECT_GT(b_busy, 0.0);
}

TEST(PodTest, HeldSlotStaysBusyUntilRelease) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, /*threads=*/1, /*max_queue=*/10, rec.sink());
  pod.Start();
  Pod::HoldHandle hold;
  bool local_done = false;
  int second_done = 0;
  rec.OnReport([&](std::uint32_t token, bool ok) {
    if (token == 0) local_done = ok;
    if (token == 1) second_done += ok ? 1 : 0;
  });
  ASSERT_TRUE(pod.EnqueueHeld(Millis(10), 0, &hold));
  ASSERT_TRUE(pod.Enqueue(Millis(10), 1));
  sim.RunUntil(Millis(100));
  EXPECT_TRUE(local_done);
  // The single worker is still held: the second job never started.
  EXPECT_EQ(second_done, 0);
  EXPECT_EQ(pod.InService(), 1);
  pod.Release(hold);
  sim.RunUntil(Millis(200));
  EXPECT_EQ(second_done, 1);
}

TEST(PodTest, ReleaseAfterKillIsNoop) {
  des::Simulation sim;
  RecordingSink rec(&sim);
  Pod pod(&sim, 1, 10, rec.sink());
  pod.Start();
  Pod::HoldHandle hold;
  pod.EnqueueHeld(Millis(10), 0, &hold);
  sim.RunUntil(Millis(20));
  ASSERT_TRUE(hold.active);
  pod.Kill();
  pod.Release(hold);  // stale epoch: must not underflow busy state
  EXPECT_EQ(pod.InService(), 0);
}

TEST(ApplicationTest, BlockingRpcHoldsUpstreamThreads) {
  // root (1 thread, blocking) -> slow leaf. With sync RPC the root can
  // only have one request in flight end-to-end, so two requests complete
  // serially even though the root's own work is trivial.
  auto make = [](bool blocking) {
    auto app = std::make_unique<Application>("sync", 1);
    ServiceConfig root_config = TestServiceConfig("root", 1.0, 1, 1);
    root_config.blocking_rpc = blocking;
    const ServiceId root = app->AddService(root_config);
    const ServiceId leaf = app->AddService(TestServiceConfig("leaf", 100.0, 2, 1));
    ApiSpec api("api", 1);
    api.AddPath(ExecutionPath{Chain({root, leaf}), 1.0, {}});
    app->AddApi(std::move(api));
    app->Finalize();
    return app;
  };
  // Async: both requests overlap at the leaf (2 threads) => both ~101 ms.
  auto async_app = make(false);
  DoneClosures async_done(async_app.get());
  std::vector<SimTime> async_latency;
  for (int i = 0; i < 2; ++i) {
    async_done.Submit(0, [&](Outcome, SimTime l) { async_latency.push_back(l); });
  }
  async_app->RunFor(Seconds(2));
  ASSERT_EQ(async_latency.size(), 2u);
  EXPECT_EQ(async_latency[1], Millis(102));  // 1 ms root wait + 1 ms root + 100 ms leaf
  // Blocking: the second request waits for the root's only thread.
  auto sync_app = make(true);
  DoneClosures sync_done(sync_app.get());
  std::vector<SimTime> sync_latency;
  for (int i = 0; i < 2; ++i) {
    sync_done.Submit(0, [&](Outcome, SimTime l) { sync_latency.push_back(l); });
  }
  sync_app->RunFor(Seconds(2));
  ASSERT_EQ(sync_latency.size(), 2u);
  EXPECT_EQ(sync_latency[1], Millis(202));  // serialised end-to-end
}

TEST(ApplicationTest, DeterministicAcrossRuns) {
  auto run = []() {
    auto app = TwoTierApp(/*sigma=*/0.3);
    for (int i = 0; i < 500; ++i) {
      app->sim().ScheduleAt(Millis(2 * i), [&app]() { app->Submit(0); });
    }
    app->RunFor(Seconds(5));
    return app->metrics().Totals()[0].good;
  };
  EXPECT_EQ(run(), run());
}

TEST(MetricsTest, WindowLatencyPercentiles) {
  MetricsCollector metrics(1, Seconds(1));
  for (int i = 1; i <= 100; ++i) {
    metrics.OnOffered(0);
    metrics.OnAdmitted(0);
    metrics.OnCompleted(0, Millis(i));
  }
  const Snapshot& snap = metrics.Collect(Seconds(1), {});
  EXPECT_NEAR(snap.apis[0].latency_p50_ms, 50.5, 1.0);
  EXPECT_NEAR(snap.apis[0].latency_p99_ms, 99.0, 1.5);
  EXPECT_EQ(snap.apis[0].good, 100u);
}

TEST(MetricsTest, CollectDigestsMatchReferenceComputation) {
  // Regression for the window-close hot path: Collect sorts each API's
  // latency buffer once and reads every digest from it; the digests must
  // match an independent reference computation.
  const std::vector<double> latencies_ms = {7.0,  3.0, 912.5, 40.0, 40.0,
                                            11.5, 2.0, 300.0, 5.25, 64.0};
  MetricsCollector metrics(1, Seconds(1));
  for (const double ms : latencies_ms) {
    metrics.OnOffered(0);
    metrics.OnAdmitted(0);
    metrics.OnCompleted(0, Millis(ms));
  }
  const Snapshot& snap = metrics.Collect(Seconds(1), {});

  double sum = 0.0;
  for (const double ms : latencies_ms) sum += ms;
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_mean_ms,
                   sum / static_cast<double>(latencies_ms.size()));
  // Reference: the copying sort-per-call Percentile.
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_p50_ms, Percentile(latencies_ms, 50.0));
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_p95_ms, Percentile(latencies_ms, 95.0));
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_p99_ms, Percentile(latencies_ms, 99.0));
}

TEST(MetricsTest, CollectDigestsSingleSampleWindow) {
  MetricsCollector metrics(1, Seconds(1));
  metrics.OnOffered(0);
  metrics.OnAdmitted(0);
  metrics.OnCompleted(0, Millis(42.0));
  const Snapshot& snap = metrics.Collect(Seconds(1), {});
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_mean_ms, 42.0);
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_p50_ms, 42.0);
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_p95_ms, 42.0);
  EXPECT_DOUBLE_EQ(snap.apis[0].latency_p99_ms, 42.0);
}

TEST(MetricsTest, AvgGoodputOverRange) {
  MetricsCollector metrics(1, Seconds(1));
  for (int second = 1; second <= 4; ++second) {
    for (int i = 0; i < second * 10; ++i) {
      metrics.OnOffered(0);
      metrics.OnAdmitted(0);
      metrics.OnCompleted(0, Millis(1));
    }
    metrics.Collect(Seconds(second), {});
  }
  // Windows hold 10, 20, 30, 40 good responses.
  EXPECT_DOUBLE_EQ(metrics.AvgGoodput(0), 25.0);
  EXPECT_DOUBLE_EQ(metrics.AvgGoodput(0, 2.0), 35.0);       // windows 3, 4
  EXPECT_DOUBLE_EQ(metrics.AvgGoodput(0, 1.0, 3.0), 25.0);  // windows 2, 3
  EXPECT_DOUBLE_EQ(metrics.AvgTotalGoodput(), 25.0);
}

}  // namespace
}  // namespace topfull::sim
