// Tests for the telemetry subsystem: request span tracing, the controller
// decision log, exporters, the profiler, and the observation-only contract
// (tracing must never change simulation results).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>

#include "apps/online_boutique.hpp"
#include "core/controller.hpp"
#include "core/rate_controller.hpp"
#include "exp/csv.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb_plane.hpp"
#include "workload/generators.hpp"

namespace topfull {
namespace {

sim::ServiceConfig Svc(const char* name, double mean_ms, int threads, int pods) {
  sim::ServiceConfig config;
  config.name = name;
  config.mean_service_ms = mean_ms;
  config.service_sigma = 0.25;
  config.threads = threads;
  config.initial_pods = pods;
  return config;
}

/// Two-service app: api0 -> {A, B} (B is the 400 rps bottleneck), api1 -> {A}.
std::unique_ptr<sim::Application> MakeApp(std::uint64_t seed = 7) {
  auto app = std::make_unique<sim::Application>("obs-app", seed);
  const sim::ServiceId a = app->AddService(Svc("A", 4.0, 8, 1));   // 2000 rps
  const sim::ServiceId b = app->AddService(Svc("B", 10.0, 4, 1));  // 400 rps
  sim::ApiSpec api0("api0", 1);
  api0.AddPath(sim::ExecutionPath{sim::Chain({a, b}), 1.0, {}});
  app->AddApi(std::move(api0));
  sim::ApiSpec api1("api1", 1);
  api1.AddPath(sim::ExecutionPath{sim::Chain({a}), 1.0, {}});
  app->AddApi(std::move(api1));
  app->Finalize();
  return app;
}

/// Overloads B: api0 at 800 rps against 400 rps capacity.
void DriveOverload(workload::TrafficDriver& traffic) {
  traffic.AddOpenLoop(0, workload::Schedule::Constant(800));
  traffic.AddOpenLoop(1, workload::Schedule::Constant(400));
}

std::unique_ptr<core::TopFullController> MakeController(sim::Application& app) {
  auto controller = std::make_unique<core::TopFullController>(
      &app, std::make_unique<core::MimdRateController>(0.05, 0.01));
  controller->Start();
  return controller;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// --- Conservation invariants (cross-checked against the span stream) ---------

TEST(ObsTest, ConservationInvariantsAndSpanStreamAgree) {
  auto app = MakeApp();
  obs::RequestTracer tracer;  // sample everything
  app->SetObserver(&tracer);
  auto controller = MakeController(*app);
  workload::TrafficDriver traffic(app.get());
  DriveOverload(traffic);
  app->RunFor(Seconds(30));

  const auto& totals = app->metrics().Totals();
  ASSERT_EQ(totals.size(), 2u);
  std::uint64_t offered = 0, admitted = 0, rejected_entry = 0;
  for (sim::ApiId a = 0; a < app->NumApis(); ++a) {
    // Whole-run conservation per API.
    EXPECT_EQ(totals[a].offered, totals[a].admitted + totals[a].rejected_entry);
    EXPECT_GE(totals[a].admitted, totals[a].completed);
    offered += totals[a].offered;
    admitted += totals[a].admitted;
    rejected_entry += totals[a].rejected_entry;
    // Per-window: offered splits exactly; admissions never lag completions
    // cumulatively (a request can complete in a later window than it was
    // admitted in, so the per-window invariant is on prefix sums).
    std::uint64_t adm_prefix = 0, done_prefix = 0;
    for (const auto& snap : app->metrics().Timeline()) {
      const auto& w = snap.apis[a];
      EXPECT_EQ(w.offered, w.admitted + w.rejected_entry);
      adm_prefix += w.admitted;
      done_prefix += w.completed;
      EXPECT_GE(adm_prefix, done_prefix);
    }
  }
  EXPECT_GT(rejected_entry, 0u) << "controller should be shedding under overload";

  // The tracer saw exactly the metrics collector's request stream.
  const obs::TracerCounters& counters = tracer.counters();
  EXPECT_EQ(counters.offered, offered);
  EXPECT_EQ(counters.admitted, admitted);
  EXPECT_EQ(counters.rejected_entry, rejected_entry);
  EXPECT_EQ(counters.dropped, 0u);

  // A trace exists for every sampled admitted request: finished admitted
  // traces + still-in-flight traces == admitted.
  std::uint64_t finished_admitted = 0, completed = 0, good = 0;
  std::map<sim::ApiId, std::uint64_t> good_per_api;
  for (const obs::RequestTrace& trace : tracer.finished()) {
    if (trace.outcome == sim::Outcome::kRejectedEntry) continue;
    ++finished_admitted;
    EXPECT_GT(trace.id, 0u);
    EXPECT_FALSE(trace.spans.empty()) << "admitted request without spans";
    if (trace.outcome == sim::Outcome::kCompleted) {
      ++completed;
      if (trace.slo_ok) {
        ++good;
        ++good_per_api[trace.api];
      }
      for (const obs::HopSpan& span : trace.spans) {
        EXPECT_TRUE(span.ok);
        EXPECT_EQ(span.end - span.start, span.queue_wait + span.service_time);
      }
    }
  }
  EXPECT_EQ(finished_admitted + tracer.ActiveCount(), admitted);

  // Span SLO outcomes agree with the goodput accounting (ApiWindow::good).
  std::uint64_t metrics_completed = 0, metrics_good = 0;
  for (sim::ApiId a = 0; a < app->NumApis(); ++a) {
    metrics_completed += totals[a].completed;
    metrics_good += totals[a].good;
    EXPECT_EQ(good_per_api[a], totals[a].good);
  }
  EXPECT_EQ(completed, metrics_completed);
  EXPECT_EQ(good, metrics_good);
}

// --- Regression: zero-completion windows must report zero percentiles --------

TEST(ObsTest, ZeroCompletionWindowReportsZeroPercentiles) {
  sim::MetricsCollector collector(1, Seconds(1));
  collector.OnOffered(0);
  collector.OnAdmitted(0);
  collector.OnCompleted(0, Millis(250));
  const auto& first = collector.Collect(Seconds(1), {});
  EXPECT_GT(first.apis[0].latency_p95_ms, 0.0);

  // Next window has traffic but no completions: the latency digest must not
  // reuse the previous window's scratch buffer.
  collector.OnOffered(0);
  collector.OnAdmitted(0);
  const auto& second = collector.Collect(Seconds(2), {});
  EXPECT_EQ(second.apis[0].completed, 0u);
  EXPECT_EQ(second.apis[0].latency_p50_ms, 0.0);
  EXPECT_EQ(second.apis[0].latency_p95_ms, 0.0);
  EXPECT_EQ(second.apis[0].latency_p99_ms, 0.0);
  EXPECT_EQ(second.apis[0].latency_mean_ms, 0.0);
}

// --- Tracing is observation-only ---------------------------------------------

TEST(ObsTest, TracingIsPassThrough) {
  const auto run = [](bool traced) {
    auto app = MakeApp();
    obs::RequestTracer tracer;
    if (traced) app->SetObserver(&tracer);
    auto controller = MakeController(*app);
    workload::TrafficDriver traffic(app.get());
    DriveOverload(traffic);
    app->RunFor(Seconds(20));
    return app;
  };
  const auto plain = run(false);
  const auto traced = run(true);
  const auto& a = plain->metrics().Timeline();
  const auto& b = traced->metrics().Timeline();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].apis.size(), b[i].apis.size());
    for (std::size_t j = 0; j < a[i].apis.size(); ++j) {
      const auto& x = a[i].apis[j];
      const auto& y = b[i].apis[j];
      EXPECT_EQ(x.offered, y.offered);
      EXPECT_EQ(x.admitted, y.admitted);
      EXPECT_EQ(x.rejected_entry, y.rejected_entry);
      EXPECT_EQ(x.rejected_service, y.rejected_service);
      EXPECT_EQ(x.completed, y.completed);
      EXPECT_EQ(x.good, y.good);
      EXPECT_EQ(x.latency_p50_ms, y.latency_p50_ms);  // bit-exact
      EXPECT_EQ(x.latency_p95_ms, y.latency_p95_ms);
      EXPECT_EQ(x.latency_p99_ms, y.latency_p99_ms);
    }
  }
}

// --- Sampling ----------------------------------------------------------------

TEST(ObsTest, SamplingRateAndMemoryCapBoundTraceCount) {
  const auto run = [](obs::TraceConfig config) {
    auto app = MakeApp();
    obs::RequestTracer tracer(config);
    app->SetObserver(&tracer);
    workload::TrafficDriver traffic(app.get());
    DriveOverload(traffic);
    app->RunFor(Seconds(10));
    return std::make_pair(tracer.counters(), tracer.finished().size());
  };

  obs::TraceConfig half;
  half.sample_rate = 0.5;
  const auto [counters, finished] = run(half);
  // ~50 % of ~12k offered requests; the hash is uniform enough for 10 %.
  EXPECT_NEAR(static_cast<double>(counters.sampled),
              0.5 * static_cast<double>(counters.offered),
              0.1 * static_cast<double>(counters.offered));
  EXPECT_EQ(counters.dropped, 0u);

  obs::TraceConfig capped;
  capped.max_traces = 100;
  const auto [capped_counters, capped_finished] = run(capped);
  EXPECT_LE(capped_finished, 100u);
  EXPECT_GT(capped_counters.dropped, 0u);

  obs::TraceConfig off;
  off.sample_rate = 0.0;
  const auto [off_counters, off_finished] = run(off);
  EXPECT_EQ(off_counters.sampled, 0u);
  EXPECT_EQ(off_finished, 0u);
}

// --- Decision log ------------------------------------------------------------

TEST(ObsTest, DecisionLogTracksControllerLimits) {
  auto app = MakeApp();
  auto controller = MakeController(*app);
  obs::DecisionLog log;
  controller->SetDecisionObserver(&log);
  workload::TrafficDriver traffic(app.get());
  DriveOverload(traffic);
  app->RunFor(Seconds(30));

  ASSERT_FALSE(log.ticks().empty());
  EXPECT_EQ(log.DecisionCount(), controller->Decisions());

  // Replaying the per-tick limit deltas ends at the controller's published
  // limits, and each tick's "before" chains from the previous "after".
  std::map<sim::ApiId, double> replayed;
  for (const obs::TickRecord& tick : log.ticks()) {
    for (const obs::LimitDelta& delta : tick.limits) {
      const auto it = replayed.find(delta.api);
      if (it != replayed.end()) {
        EXPECT_DOUBLE_EQ(it->second, delta.before);
      }
      replayed[delta.api] = delta.after;
    }
  }
  EXPECT_FALSE(replayed.empty());
  for (const auto& [api, rate] : replayed) {
    const auto published = controller->RateLimit(api);
    ASSERT_TRUE(published.has_value());
    EXPECT_DOUBLE_EQ(*published, rate);
  }

  // Every logged decision happened inside a tick with a cluster, and the
  // tick time advances monotonically.
  double last_t = -1.0;
  for (const obs::TickRecord& tick : log.ticks()) {
    EXPECT_GT(tick.t_s, last_t);
    last_t = tick.t_s;
    for (const obs::TargetDecision& decision : tick.decisions) {
      EXPECT_FALSE(decision.apis.empty());
      EXPECT_GE(decision.state.rate_limit, 0.0);
    }
  }
}

// --- Exporters ---------------------------------------------------------------

TEST(ObsTest, ExportsAreDeterministicAndWellFormed) {
  const auto export_to = [](const std::string& dir) {
    exp::TelemetryOptions options;
    options.dir = dir;
    exp::Telemetry telemetry(options);
    auto app = MakeApp();
    telemetry.Attach(*app);
    auto controller = MakeController(*app);
    telemetry.Attach(*controller);
    workload::TrafficDriver traffic(app.get());
    DriveOverload(traffic);
    app->RunFor(Seconds(15));
    const exp::TelemetrySummary summary =
        telemetry.Export(*app, "demo", controller.get(), /*faults=*/nullptr);
    EXPECT_EQ(summary.paths.size(), 5u);
    EXPECT_GT(summary.sampled, 0u);
    EXPECT_GT(summary.ticks, 0u);
    return summary;
  };
  const std::string dir1 = testing::TempDir() + "obs_export_1";
  const std::string dir2 = testing::TempDir() + "obs_export_2";
  export_to(dir1);
  export_to(dir2);

  for (const char* file :
       {"/demo.trace.json", "/demo.decisions.jsonl", "/demo.metrics.prom",
        "/demo.summary.json", "/demo.report.html"}) {
    const std::string a = ReadFile(dir1 + file);
    const std::string b = ReadFile(dir2 + file);
    ASSERT_FALSE(a.empty()) << file;
    EXPECT_EQ(a, b) << file << " not byte-identical across identical runs";
  }

  const std::string trace = ReadFile(dir1 + "/demo.trace.json");
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"queue_wait_ms\""), std::string::npos);

  const std::string prom = ReadFile(dir1 + "/demo.metrics.prom");
  EXPECT_NE(prom.find("topfull_requests_offered_total{api=\"api0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("topfull_api_rate_limit_rps"), std::string::npos);
  EXPECT_NE(prom.find("topfull_trace_sampled_total"), std::string::npos);

  const std::string summary_json = ReadFile(dir1 + "/demo.summary.json");
  EXPECT_NE(summary_json.find("\"schema\":\"topfull.run_summary.v1\""),
            std::string::npos);
  EXPECT_NE(summary_json.find("\"goodput_rps\""), std::string::npos);

  const std::string html = ReadFile(dir1 + "/demo.report.html");
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  // Self-contained: no external stylesheet/script/image references.
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  EXPECT_EQ(html.find("href=\"http"), std::string::npos);
}

TEST(ObsTest, RunExecutorTelemetryIsIdenticalAcrossPoolSizes) {
  const auto sweep = [](int threads, const std::string& dir) {
    setenv("TOPFULL_TRACE_DIR", dir.c_str(), 1);
    setenv("TOPFULL_TRACE_SAMPLE", "0.25", 1);
    std::vector<exp::RunSpec> specs;
    for (int i = 0; i < 3; ++i) {
      exp::RunSpec spec;
      spec.label = "sweep seed=" + std::to_string(i);
      spec.duration_s = 8;
      spec.make_app = [i]() { return MakeApp(100 + i); };
      spec.traffic = [](workload::TrafficDriver& traffic, sim::Application&) {
        DriveOverload(traffic);
      };
      spec.attach = [](sim::Application& app) -> std::shared_ptr<void> {
        auto controller = MakeController(app);
        return std::shared_ptr<void>(std::move(controller));
      };
      specs.push_back(std::move(spec));
    }
    ThreadPool pool(threads);
    exp::RunExecutor(&pool).Execute(specs);
    unsetenv("TOPFULL_TRACE_DIR");
    unsetenv("TOPFULL_TRACE_SAMPLE");
  };
  const std::string dir1 = testing::TempDir() + "obs_pool_1";
  const std::string dir4 = testing::TempDir() + "obs_pool_4";
  sweep(1, dir1);
  sweep(4, dir4);

  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir1)) {
    ++files;
    const std::string name = entry.path().filename().string();
    const std::string a = ReadFile(entry.path().string());
    const std::string b = ReadFile(dir4 + "/" + name);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name << " differs between pool sizes 1 and 4";
  }
  // trace + prom + summary + report per run (custom attach: no jsonl).
  EXPECT_EQ(files, 3 * 4);
}

// --- Artifact bytes pinned across commits -------------------------------------

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool StrictGolden() {
  const char* env = std::getenv("TOPFULL_STRICT_GOLDEN");
  return env == nullptr || std::string(env) != "0";
}

// A short observed Online Boutique run with every exporter on: tracer,
// decision log, SLO monitor, TSDB plane with the burn-rate rules, and one
// pod crash, so the fault and SLO rows of the trace are exercised. The
// digests were minted on commit 92588d5, before the writers moved onto the
// shared append buffer; every artifact must keep those bytes.
TEST(ObsTest, ExportArtifactsMatchParent) {
  apps::BoutiqueOptions options;
  options.seed = 11;
  auto app = apps::MakeOnlineBoutique(options);
  obs::TraceConfig trace;
  trace.sample_rate = 0.02;
  obs::RequestTracer tracer(trace);
  app->SetObserver(&tracer);
  auto monitor = obs::SloMonitor::ForApp(*app);
  obs::DecisionLog log;
  monitor->SetDecisionLog(&log);
  obs::TsdbPlane plane;
  for (obs::AlertRule& rule : obs::SloBurnRules()) {
    plane.rules().AddAlert(std::move(rule));
  }
  plane.Attach(*app);
  auto controller = MakeController(*app);
  controller->SetDecisionObserver(&log);
  fault::FaultSchedule faults;
  faults.CrashPods("checkout", Seconds(6), 1, Seconds(4));
  fault::FaultInjector injector(app.get(), faults);
  injector.Arm();
  workload::TrafficDriver traffic(app.get());
  for (sim::ApiId a = 0; a < app->NumApis(); ++a) {
    traffic.AddOpenLoop(a, workload::Schedule::Constant(600));
  }
  app->RunFor(Seconds(15));
  plane.FinishRules(15.0);

  const std::string dir = testing::TempDir() + "obs_golden";
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/run";
  const std::vector<obs::SloEvent>* events = &monitor->events();
  ASSERT_FALSE(events->empty());
  ASSERT_FALSE(injector.Log().empty());
  ASSERT_TRUE(obs::WritePerfettoTrace(tracer, *app, base + ".trace.json",
                                      &injector.Log(), events));
  ASSERT_TRUE(obs::WriteDecisionLogJsonl(log, *app, base + ".decisions.jsonl",
                                         events, &plane.rules().transitions()));
  ASSERT_TRUE(obs::WritePrometheusText(*app, &tracer, base + ".metrics.prom"));
  ASSERT_TRUE(obs::WriteTsdbJson(plane.tsdb(), base + ".tsdb.json"));
  ASSERT_TRUE(obs::WriteAlertsJson(plane.rules(), base + ".alerts.json"));
  obs::ReportInputs inputs;
  inputs.app = app.get();
  inputs.label = "run";
  inputs.controller = controller.get();
  inputs.monitor = monitor.get();
  inputs.decisions = &log;
  inputs.faults = &injector.Log();
  ASSERT_TRUE(obs::WriteRunSummaryJson(inputs, base + ".summary.json"));
  ASSERT_TRUE(obs::WriteHtmlReport(inputs, base + ".report.html"));

  // .metrics.prom and .tsdb.json carry the engine gauge
  // topfull_engine_timer_slots_free, which moves whenever a producer
  // switches between slot and handler events; nothing else in them does.
  const std::pair<const char*, std::uint64_t> golden[] = {
      {".trace.json", 0xf48f236665cf52cfull},
      {".decisions.jsonl", 0x9693e557299f0e32ull},
      {".metrics.prom", 0xaa4b2ac54b2be312ull},
      {".tsdb.json", 0x5637e45000cccfbcull},
      {".alerts.json", 0x0d6c6afc586625fdull},
      {".summary.json", 0xeeadc2e42b0c39ccull},
      {".report.html", 0x8cc1f7066ade0019ull},
  };
  for (const auto& [suffix, digest] : golden) {
    const std::string bytes = ReadFile(base + suffix);
    ASSERT_FALSE(bytes.empty()) << suffix;
    if (StrictGolden()) {
      EXPECT_EQ(Fnv1a(bytes), digest)
          << suffix << " bytes diverged from the pinned artifact "
          << "(set TOPFULL_STRICT_GOLDEN=0 on a foreign libm)";
    }
  }
}

// A full disk must fail the write. Small artifacts reach the file only in
// the final flush or at close, so every writer has to check those too, not
// just the open.
TEST(ObsTest, WritersReturnFalseWhenTheDiskIsFull) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << "no " << full;
  auto app = MakeApp();
  obs::RequestTracer tracer;
  app->SetObserver(&tracer);
  auto monitor = obs::SloMonitor::ForApp(*app);
  obs::DecisionLog log;
  obs::TsdbPlane plane;
  plane.Attach(*app);
  auto controller = MakeController(*app);
  controller->SetDecisionObserver(&log);
  workload::TrafficDriver traffic(app.get());
  DriveOverload(traffic);
  app->RunFor(Seconds(3));
  plane.FinishRules(3.0);
  obs::ReportInputs inputs;
  inputs.app = app.get();
  inputs.label = "full";
  inputs.controller = controller.get();
  inputs.monitor = monitor.get();
  inputs.decisions = &log;

  EXPECT_FALSE(obs::WritePerfettoTrace(tracer, *app, full));
  EXPECT_FALSE(obs::WriteDecisionLogJsonl(log, *app, full));
  EXPECT_FALSE(obs::WritePrometheusText(*app, &tracer, full));
  EXPECT_FALSE(obs::WriteTsdbJson(plane.tsdb(), full));
  EXPECT_FALSE(obs::WriteAlertsJson(plane.rules(), full));
  EXPECT_FALSE(obs::WriteRunSummaryJson(inputs, full));
  EXPECT_FALSE(obs::WriteHtmlReport(inputs, full));
  EXPECT_FALSE(exp::WriteTimelineCsv(*app, full));
}

// --- Satellite: CSV export creates its directory -----------------------------

TEST(ObsTest, CsvExportCreatesMissingDirectory) {
  const std::string dir = testing::TempDir() + "obs_csv/nested/deep";
  std::filesystem::remove_all(testing::TempDir() + "obs_csv");
  setenv("TOPFULL_CSV_DIR", dir.c_str(), 1);
  auto app = MakeApp();
  workload::TrafficDriver traffic(app.get());
  DriveOverload(traffic);
  app->RunFor(Seconds(3));
  exp::MaybeExportTimeline(*app, "conservation");
  unsetenv("TOPFULL_CSV_DIR");
  EXPECT_TRUE(std::filesystem::exists(dir + "/conservation.csv"));
}

// --- Profiler ----------------------------------------------------------------

TEST(ObsTest, ProfilerRecordsScopesWhenEnabled) {
  obs::Profiler& profiler = obs::Profiler::Global();
  const bool was_enabled = profiler.enabled();
  profiler.Reset();
  profiler.SetEnabled(false);
  { obs::ScopedTimer timer("test/disabled"); }
  EXPECT_TRUE(profiler.Snapshot().empty());
  profiler.SetEnabled(true);
  { obs::ScopedTimer timer("test/enabled"); }
  { obs::ScopedTimer timer("test/enabled"); }
  const auto snapshot = profiler.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "test/enabled");
  EXPECT_EQ(snapshot[0].second.count, 2u);
  EXPECT_GE(snapshot[0].second.total_s, 0.0);
  profiler.SetEnabled(was_enabled);
  profiler.Reset();
}

TEST(ObsTest, ProfilerAggregatesNestedScopesAndSortsSnapshot) {
  obs::Profiler& profiler = obs::Profiler::Global();
  const bool was_enabled = profiler.enabled();
  profiler.Reset();
  profiler.SetEnabled(true);
  // Nested scopes: the outer phase's time includes the inner ones, each
  // phase aggregates independently by name.
  for (int i = 0; i < 3; ++i) {
    obs::ScopedTimer outer("zeta/outer");
    {
      obs::ScopedTimer inner("alpha/inner");
      { obs::ScopedTimer leaf("mid/leaf"); }
    }
  }
  { obs::ScopedTimer again("alpha/inner"); }
  const auto snapshot = profiler.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  // Sorted by phase name regardless of first-recorded order.
  EXPECT_EQ(snapshot[0].first, "alpha/inner");
  EXPECT_EQ(snapshot[1].first, "mid/leaf");
  EXPECT_EQ(snapshot[2].first, "zeta/outer");
  EXPECT_EQ(snapshot[0].second.count, 4u);
  EXPECT_EQ(snapshot[1].second.count, 3u);
  EXPECT_EQ(snapshot[2].second.count, 3u);
  // Wall time of an enclosing scope covers its nested scopes.
  EXPECT_GE(snapshot[2].second.total_s, snapshot[1].second.total_s);
  EXPECT_GE(snapshot[0].second.max_s, 0.0);
  EXPECT_LE(snapshot[0].second.max_s, snapshot[0].second.total_s + 1e-12);
  profiler.SetEnabled(was_enabled);
  profiler.Reset();
}

// --- JSON escaping -----------------------------------------------------------

TEST(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::JsonEscape("plain-name_1.2"), "plain-name_1.2");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::JsonEscape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(obs::JsonEscape("\r\t\xc3\xa9"), "\\r\\t\xc3\xa9");
  // Every other control character takes printf's \u%04x form.
  for (int c = 1; c < 0x20; ++c) {
    if (c == '\n' || c == '\r' || c == '\t') continue;
    char want[8];
    std::snprintf(want, sizeof(want), "\\u%04x", c);
    EXPECT_EQ(obs::JsonEscape(std::string(1, static_cast<char>(c))), want) << c;
  }
}

TEST(ObsTest, SanitizeFileNameReplacesHostileChars) {
  EXPECT_EQ(exp::SanitizeFileName("sweep seed=3"), "sweep_seed_3");
  EXPECT_EQ(exp::SanitizeFileName("a/b:c"), "a_b_c");
  EXPECT_EQ(exp::SanitizeFileName(""), "run");
}

}  // namespace
}  // namespace topfull
