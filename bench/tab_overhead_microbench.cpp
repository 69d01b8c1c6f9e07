// §6.4 "Online deployment overhead cost" — google-benchmark micro-benchmarks
// of the two per-tick costs: building clusters and one RL inference.
//
// Paper (Xeon Platinum 8370C): clustering the Train Ticket app costs
// 1.26e6 cycles, one RL inference 2.33e6 cycles; one core can control
// ~15,000 microservices / 1,000 clusters per second. We report wall time
// and a cycle estimate at the measured clock. Also measures the metrics
// engine's in-line recording costs (counter/histogram updates, registry
// lookup, collector with the registry on vs off).
#include <benchmark/benchmark.h>

#include "apps/train_ticket.hpp"
#include "common/token_bucket.hpp"
#include "core/clustering.hpp"
#include "core/registry.hpp"
#include "exp/model_cache.hpp"
#include "obs/metrics_registry.hpp"
#include "rl/observation.hpp"
#include "sim/metrics.hpp"
#include "trace/synthetic_trace.hpp"

using namespace topfull;

namespace {

// Clustering the Train Ticket registry with a rotating overloaded set.
void BM_ClusteringTrainTicket(benchmark::State& state) {
  apps::TrainTicketOptions options;
  auto app = apps::MakeTrainTicket(options);
  core::ApiRegistry registry(*app);
  const int num_overloaded = static_cast<int>(state.range(0));
  std::vector<std::vector<sim::ServiceId>> overloaded_sets;
  Rng rng(4242);
  for (int i = 0; i < 64; ++i) {
    std::vector<sim::ServiceId> set;
    for (int k = 0; k < num_overloaded; ++k) {
      set.push_back(static_cast<sim::ServiceId>(
          rng.UniformInt(0, app->NumServices() - 1)));
    }
    overloaded_sets.push_back(std::move(set));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto clusters =
        core::BuildClusters(registry, overloaded_sets[i++ % overloaded_sets.size()]);
    benchmark::DoNotOptimize(clusters.size());
  }
}
BENCHMARK(BM_ClusteringTrainTicket)->Arg(2)->Arg(5)->Arg(10);

// Clustering at Alibaba-trace scale (68 overloaded among 23,481 services).
void BM_ClusteringTraceScale(benchmark::State& state) {
  const trace::TraceConfig config;
  const trace::SyntheticTrace synthetic = trace::GenerateTrace(config, 20210701);
  for (auto _ : state) {
    const auto analysis = trace::AnalyzeClustering(synthetic, config.util_threshold);
    benchmark::DoNotOptimize(analysis.clusters);
  }
}
BENCHMARK(BM_ClusteringTraceScale)->Unit(benchmark::kMillisecond);

// One deterministic RL inference (the per-cluster per-second decision).
void BM_RlInference(benchmark::State& state) {
  auto policy = exp::GetPretrainedPolicy();
  const std::vector<double> obs = rl::MakeObservation(800.0, 1000.0, 1.2, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->MeanAction(obs));
  }
}
BENCHMARK(BM_RlInference);

// Token-bucket admission (the per-request datapath cost at the entry).
void BM_TokenBucketAdmit(benchmark::State& state) {
  TokenBucket bucket(1e6, 1e5);
  SimTime now = 0;
  for (auto _ : state) {
    now += 10;
    benchmark::DoNotOptimize(bucket.TryAdmit(now));
  }
}
BENCHMARK(BM_TokenBucketAdmit);

// --- Metrics-registry overhead (ISSUE 4): the in-line recording costs --------

// One counter increment through a cached handle (the steady-state hot path:
// the name is resolved once, outside the loop).
void BM_MetricsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter =
      registry.GetCounter("topfull_bench_total", "Bench.", {{"api", "a"}});
  for (auto _ : state) {
    counter->Inc();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_MetricsCounterInc);

// One histogram sample (frexp bucketing + exact moment updates).
void BM_MetricsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.GetHistogram("topfull_bench_latency_ms", "Bench.");
  double v = 0.1;
  for (auto _ : state) {
    histogram->Record(v);
    v = v < 1e4 ? v * 1.1 : 0.1;  // walk the buckets
    benchmark::DoNotOptimize(histogram);
  }
}
BENCHMARK(BM_MetricsHistogramRecord);

// Name -> cell resolution (what handle caching avoids on the hot path).
void BM_MetricsRegistryLookup(benchmark::State& state) {
  obs::MetricsRegistry registry;
  registry.GetCounter("topfull_bench_total", "Bench.", {{"api", "a"}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.GetCounter("topfull_bench_total", "Bench.", {{"api", "a"}}));
  }
}
BENCHMARK(BM_MetricsRegistryLookup);

// The collector's per-completion cost with the live registry unbound vs
// bound (registry on adds one counter + one histogram update per event).
void BM_CollectorOnCompleted(benchmark::State& state) {
  const bool bind = state.range(0) != 0;
  sim::MetricsCollector collector(1, Millis(100));
  obs::MetricsRegistry registry;
  if (bind) {
    sim::ApiMetricHandles handles;
    handles.offered = registry.GetCounter("topfull_requests_offered_total", "O.");
    handles.admitted = registry.GetCounter("topfull_requests_admitted_total", "A.");
    handles.rejected_entry =
        registry.GetCounter("topfull_requests_rejected_entry_total", "R.");
    handles.rejected_service =
        registry.GetCounter("topfull_requests_rejected_service_total", "R.");
    handles.completed = registry.GetCounter("topfull_requests_completed_total", "C.");
    handles.good = registry.GetCounter("topfull_requests_good_total", "G.");
    handles.latency_ms = registry.GetHistogram("topfull_request_latency_ms", "L.");
    collector.BindRegistry({handles});
  }
  SimTime now = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    collector.OnCompleted(0, Millis(5));
    // Close the window periodically so the latency scratch buffer stays
    // small; identical in both variants, so the comparison is fair.
    if ((++i & 0xfff) == 0) {
      now += Seconds(1);
      benchmark::DoNotOptimize(&collector.Collect(now, {}));
    }
  }
  state.SetLabel(bind ? "registry on" : "registry off");
}
BENCHMARK(BM_CollectorOnCompleted)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
