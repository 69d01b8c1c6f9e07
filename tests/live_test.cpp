// Tests for the live telemetry plane: the HTTP request parser and server,
// immutable metric snapshots and their renderers, the LivePlane publisher,
// and the observer contract (live publishing must never change results).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "obs/export.hpp"
#include "obs/http_server.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/prom_parser.hpp"
#include "obs/rules.hpp"
#include "obs/snapshot.hpp"
#include "obs/tsdb_plane.hpp"
#include "workload/generators.hpp"

namespace topfull {
namespace {

/// True when `text` is a well-formed exposition to the strict parser.
bool ParsesAsProm(const std::string& text, std::string* error = nullptr) {
  obs::PromScrape scrape;
  return obs::ParsePromText(text, &scrape, error);
}

// --- Request parsing ---------------------------------------------------------

TEST(HttpParseTest, ParsesACompleteRequestHead) {
  obs::HttpRequest request;
  std::size_t consumed = 0;
  const std::string head =
      "GET /metrics?x=1 HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
  ASSERT_EQ(obs::ParseHttpRequest(head + "extra", &request, &consumed),
            obs::HttpParse::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics?x=1");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(consumed, head.size());
  ASSERT_EQ(request.headers.size(), 2u);
  EXPECT_EQ(request.headers[0].first, "Host");
  EXPECT_EQ(request.headers[0].second, "localhost");
}

TEST(HttpParseTest, ToleratesBareLfLineEndings) {
  obs::HttpRequest request;
  EXPECT_EQ(obs::ParseHttpRequest("GET / HTTP/1.0\nHost: x\n\n", &request),
            obs::HttpParse::kOk);
  EXPECT_EQ(request.target, "/");
}

TEST(HttpParseTest, IncompleteUntilTheBlankLine) {
  obs::HttpRequest request;
  EXPECT_EQ(obs::ParseHttpRequest("GET / HTTP/1.1\r\nHost:", &request),
            obs::HttpParse::kIncomplete);
  EXPECT_EQ(obs::ParseHttpRequest("GET", &request), obs::HttpParse::kIncomplete);
  EXPECT_EQ(obs::ParseHttpRequest("", &request), obs::HttpParse::kIncomplete);
}

TEST(HttpParseTest, RejectsMalformedRequestLines) {
  obs::HttpRequest request;
  const char* bad[] = {
      "garbage\r\n\r\n",
      "get / HTTP/1.1\r\n\r\n",        // lowercase method
      "GET  / HTTP/1.1\r\n\r\n",       // double space
      "GET metrics HTTP/1.1\r\n\r\n",  // target must start with '/'
      "GET / FTP/1.1\r\n\r\n",         // not an HTTP version
      "GET /\r\n\r\n",                 // missing version
  };
  for (const char* input : bad) {
    EXPECT_EQ(obs::ParseHttpRequest(input, &request), obs::HttpParse::kBad)
        << input;
  }
}

TEST(HttpParseTest, SerializeCarriesStatusHeadersAndLength) {
  obs::HttpResponse response;
  response.status = 405;
  response.body = "nope\n";
  response.headers.push_back({"Allow", "GET"});
  const std::string wire = obs::SerializeHttpResponse(response);
  EXPECT_NE(wire.find("HTTP/1.1 405 Method Not Allowed\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Allow: GET\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 5), "nope\n");
}

// --- Server behavior over real sockets ---------------------------------------

/// Connects to 127.0.0.1:`port`, sends `request` in `parts` pieces with a
/// small pause between them, and returns everything read until EOF.
std::string RawRequest(int port, const std::string& request, int parts = 1) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::size_t piece = request.size() / static_cast<std::size_t>(parts) + 1;
  for (std::size_t at = 0; at < request.size(); at += piece) {
    const std::size_t n = std::min(piece, request.size() - at);
    if (::send(fd, request.data() + at, n, 0) != static_cast<ssize_t>(n)) {
      ::close(fd);
      return "";
    }
    if (parts > 1) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string out;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return out;
}

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<obs::HttpServer>([](const obs::HttpRequest& r) {
      obs::HttpResponse response;
      if (r.target == "/hello") {
        response.body = "hi\n";
      } else {
        response.status = 404;
        response.body = "not found\n";
      }
      return response;
    });
    std::string error;
    ASSERT_TRUE(server_->Start(0, &error)) << error;
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<obs::HttpServer> server_;
};

TEST_F(HttpServerTest, ServesAndCounts) {
  const std::string reply =
      RawRequest(server_->port(), "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(reply.substr(reply.size() - 3), "hi\n");
  EXPECT_GE(server_->requests_served(), 1u);
}

TEST_F(HttpServerTest, UnknownTargetIs404) {
  const std::string reply =
      RawRequest(server_->port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 404 Not Found"), std::string::npos);
}

TEST_F(HttpServerTest, NonGetIs405WithAllowHeader) {
  const std::string reply = RawRequest(
      server_->port(), "POST /hello HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(reply.find("Allow: GET"), std::string::npos);
}

TEST_F(HttpServerTest, PartialSendsStillParse) {
  const std::string reply = RawRequest(
      server_->port(), "GET /hello HTTP/1.1\r\nHost: split\r\n\r\n", 4);
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST_F(HttpServerTest, GarbageIs400) {
  const std::string reply =
      RawRequest(server_->port(), "THIS IS NOT HTTP AT ALL\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 400 Bad Request"), std::string::npos);
}

TEST_F(HttpServerTest, StopIsIdempotentAndJoins) {
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

// --- Snapshots ---------------------------------------------------------------

TEST(SnapshotTest, BuilderSortsFamiliesAndCells) {
  obs::SnapshotBuilder builder;
  builder.AddGauge("zzz_gauge", "z.", {}, 3.0);
  builder.AddCounter("aaa_total", "a.", {{"api", "b"}}, 2);
  builder.AddCounter("aaa_total", "a.", {{"api", "a"}}, 1);
  builder.AddCounter("aaa_total", "a.", {{"api", "a"}}, 7);  // overwrite
  const auto snapshot = builder.Finish();
  ASSERT_EQ(snapshot->families.size(), 2u);
  EXPECT_EQ(snapshot->families[0].name, "aaa_total");
  EXPECT_EQ(snapshot->families[1].name, "zzz_gauge");
  ASSERT_EQ(snapshot->families[0].cells.size(), 2u);
  EXPECT_EQ(snapshot->families[0].cells[0].labels[0].second, "a");
  EXPECT_EQ(snapshot->families[0].cells[0].counter, 7u);
  const auto* cell = snapshot->FindCell("aaa_total", {{"api", "b"}});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->counter, 2u);
  EXPECT_EQ(snapshot->FindFamily("nope"), nullptr);
}

TEST(SnapshotTest, BoardStartsEmptyAndKeepsOldSnapshotsAlive) {
  obs::SnapshotBoard board;
  const auto empty = board.Read();
  ASSERT_NE(empty, nullptr);
  EXPECT_TRUE(empty->families.empty());

  obs::SnapshotBuilder builder;
  builder.AddCounter("x_total", "x.", {}, 1);
  board.Publish(builder.Finish({}, 1));
  const auto first = board.Read();
  ASSERT_EQ(first->version, 1u);

  obs::SnapshotBuilder builder2;
  builder2.AddCounter("x_total", "x.", {}, 2);
  board.Publish(builder2.Finish({}, 2));
  // The old snapshot a reader holds stays valid after the swap.
  EXPECT_EQ(first->version, 1u);
  ASSERT_EQ(first->families.size(), 1u);
  EXPECT_EQ(first->families[0].cells[0].counter, 1u);
  EXPECT_EQ(board.Read()->version, 2u);
}

TEST(SnapshotTest, RegistryAndSnapshotRenderingsAgree) {
  obs::MetricsRegistry registry;
  registry.GetCounter("live_requests_total", "Requests.", {{"api", "a"}})->Inc(3);
  registry.GetGauge("live_depth", "Depth.", {})->Set(2.5);
  auto* histogram = registry.GetHistogram("live_latency_ms", "Latency.", {},
                                          obs::HistogramConfig{0.1, 1e4, 8});
  histogram->Record(1.0);
  histogram->Record(50.0);

  const std::string direct = obs::PromTextFromRegistry(registry);
  obs::SnapshotBuilder builder;
  builder.AddRegistry(registry);
  const std::string via_snapshot =
      obs::PromTextFromSnapshot(*builder.Finish());
  EXPECT_EQ(direct, via_snapshot);
  std::string error;
  EXPECT_TRUE(ParsesAsProm(direct, &error)) << error;
  EXPECT_NE(direct.find("live_latency_ms_bucket"), std::string::npos);
}

TEST(SnapshotTest, ExtraLabelsAppendToEveryCell) {
  obs::MetricsRegistry registry;
  registry.GetCounter("s_total", "S.", {{"api", "a"}})->Inc(1);
  obs::SnapshotBuilder builder;
  builder.AddRegistry(registry, {{"shard", "3"}});
  const auto snapshot = builder.Finish();
  const auto* cell =
      snapshot->FindCell("s_total", {{"api", "a"}, {"shard", "3"}});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->counter, 1u);
}

TEST(SnapshotTest, JsonRenderersProduceParsableJson) {
  obs::SnapshotBuilder builder;
  builder.AddCounter("j_total", "J \"quoted\".", {{"api", "x\n"}}, 5);
  obs::RunState run;
  run.label = "json-run";
  run.sim_time_s = 1.5;
  run.duration_s = 3.0;
  run.shards.resize(2);
  const auto snapshot = builder.Finish(std::move(run), 9);

  for (const std::string& text :
       {obs::SnapshotJson(*snapshot), obs::RunStateJson(*snapshot)}) {
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(text, &doc, &error)) << error << "\n" << text;
  }
  EXPECT_NE(obs::RunStateJson(*snapshot).find("\"label\":\"json-run\""),
            std::string::npos);
}

TEST(SnapshotTest, ValidatePromTextRejectsMalformedExpositions) {
  std::string error;
  EXPECT_FALSE(ParsesAsProm("x_total 1\n", &error));  // no # TYPE
  EXPECT_NE(error.find("sample before # TYPE"), std::string::npos) << error;
  EXPECT_FALSE(ParsesAsProm("# TYPE x_total counter\nx_total{api=\"a\" 1\n"));
  EXPECT_FALSE(ParsesAsProm("# TYPE x_total counter\nx_total one\n"));
  EXPECT_FALSE(ParsesAsProm("# TYPE x_total banana\n"));
  error.clear();
  EXPECT_TRUE(ParsesAsProm(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
      &error))
      << error;
}

TEST(SnapshotTest, CountsActiveSloEvents) {
  using obs::SloEvent;
  using obs::SloEventType;
  std::vector<SloEvent> events;
  events.push_back({1.0, SloEventType::kOverloadOnset, "svc-a", 0, 0});
  events.push_back({2.0, SloEventType::kOverloadClear, "svc-a", 0, 0});
  events.push_back({3.0, SloEventType::kOverloadOnset, "svc-b", 0, 0});
  events.push_back({3.5, SloEventType::kSloBurnStart, "total", 0, 0});
  events.push_back({4.0, SloEventType::kOscillation, "api0", 0, 0});
  std::vector<std::string> subjects;
  EXPECT_EQ(obs::CountActiveSloEvents(events, &subjects), 2u);
  ASSERT_EQ(subjects.size(), 2u);
  EXPECT_EQ(subjects[0], "overload:svc-b");
  EXPECT_EQ(subjects[1], "slo_burn:total");
}

// --- Routing -----------------------------------------------------------------

TEST(RouteTest, ServesEveryEndpointFromTheBoard) {
  obs::SnapshotBoard board;
  obs::SnapshotBuilder builder;
  builder.AddCounter("r_total", "R.", {}, 4);
  obs::RunState run;
  run.label = "route-run";
  board.Publish(builder.Finish(std::move(run), 1));

  auto get = [&board](const std::string& target) {
    obs::HttpRequest request;
    request.method = "GET";
    request.target = target;
    return obs::RouteSnapshotRequest(request, board);
  };
  EXPECT_EQ(get("/healthz").body, "ok\n");
  const obs::HttpResponse metrics = get("/metrics?ignored=1");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("r_total 4"), std::string::npos);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(get("/runs").body.find("\"label\":\"route-run\""),
            std::string::npos);
  EXPECT_NE(get("/snapshot.json").body.find("\"version\":1"),
            std::string::npos);
  EXPECT_EQ(get("/").status, 200);
  EXPECT_EQ(get("/bogus").status, 404);
}

// --- Live publishing end to end ----------------------------------------------

sim::ServiceConfig Svc(const char* name, double mean_ms, int threads, int pods) {
  sim::ServiceConfig config;
  config.name = name;
  config.mean_service_ms = mean_ms;
  config.service_sigma = 0.25;
  config.threads = threads;
  config.initial_pods = pods;
  return config;
}

/// Two independent 2-service chains (two clusters, so 2 shards align).
std::unique_ptr<sim::Application> MakeLiveApp(std::uint64_t seed = 7) {
  auto app = std::make_unique<sim::Application>("live-app", seed);
  const sim::ServiceId a = app->AddService(Svc("A", 4.0, 8, 1));
  const sim::ServiceId b = app->AddService(Svc("B", 10.0, 4, 1));
  const sim::ServiceId c = app->AddService(Svc("C", 5.0, 4, 1));
  const sim::ServiceId d = app->AddService(Svc("D", 6.0, 4, 1));
  sim::ApiSpec api0("api0", 1);
  api0.AddPath(sim::ExecutionPath{sim::Chain({a, b}), 1.0, {}});
  app->AddApi(std::move(api0));
  sim::ApiSpec api1("api1", 1);
  api1.AddPath(sim::ExecutionPath{sim::Chain({c, d}), 1.0, {}});
  app->AddApi(std::move(api1));
  app->Finalize();
  return app;
}

exp::RunSpec LiveSpec(const std::string& label, double duration_s = 6.0) {
  exp::RunSpec spec;
  spec.label = label;
  spec.duration_s = duration_s;
  spec.make_app = [] { return MakeLiveApp(); };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application&) {
    traffic.AddOpenLoop(0, workload::Schedule::Constant(500));
    traffic.AddOpenLoop(1, workload::Schedule::Constant(200));
  };
  return spec;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(LivePlaneTest, FinalSnapshotEqualsTheOfflinePrometheusDump) {
  const std::string dir = testing::TempDir() + "live_golden";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("TOPFULL_TRACE_DIR", dir.c_str(), 1), 0);

  obs::LiveOptions options;
  options.port = -1;  // publisher only, no server
  options.publish_interval_s = 0.0;
  obs::LivePlane live(options);
  exp::RunSpec spec = LiveSpec("golden");
  spec.live = &live;
  exp::Run(spec);
  unsetenv("TOPFULL_TRACE_DIR");

  const auto snapshot = live.board().Read();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->run.finished);
  EXPECT_GE(live.publishes(), 2u);  // several chunks + the final publish

  const std::string offline = ReadFile(dir + "/golden.metrics.prom");
  ASSERT_FALSE(offline.empty());
  EXPECT_EQ(obs::PromTextFromSnapshot(*snapshot), offline)
      << "live /metrics at end of run must equal the offline dump";
  std::string error;
  EXPECT_TRUE(ParsesAsProm(offline, &error)) << error;
}

TEST(LivePlaneTest, PublishingIsAPureObserver) {
  // Identical spec with and without the live plane: per-API totals match.
  exp::RunResult plain = exp::Run(LiveSpec("observer"));

  obs::LiveOptions options;
  options.port = -1;
  obs::LivePlane live(options);
  exp::RunSpec spec = LiveSpec("observer");
  spec.live = &live;
  exp::RunResult observed = exp::Run(spec);

  const auto& a = plain.app().metrics().Totals();
  const auto& b = observed.app().metrics().Totals();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offered, b[i].offered) << "api " << i;
    EXPECT_EQ(a[i].admitted, b[i].admitted) << "api " << i;
    EXPECT_EQ(a[i].completed, b[i].completed) << "api " << i;
    EXPECT_EQ(a[i].good, b[i].good) << "api " << i;
  }
}

TEST(LivePlaneTest, ConcurrentScrapesDuringARunningSimulation) {
  obs::LiveOptions options;
  options.port = 0;
  options.publish_interval_s = 0.0;  // publish every chunk
  obs::LivePlane live(options);
  std::string error;
  ASSERT_TRUE(live.StartServer(&error)) << error;
  const int port = live.port();
  ASSERT_GT(port, 0);

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  // Mid-run /metrics scrapes that carried every family a dashboard of the
  // run needs (requests, engine, latency histogram).
  std::atomic<int> complete_scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([port, &done, &bad, &complete_scrapes, t] {
      const char* targets[] = {"/metrics", "/runs", "/snapshot.json"};
      while (!done.load(std::memory_order_relaxed)) {
        const std::string target = targets[t % 3];
        const std::string reply = RawRequest(
            port, "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n");
        if (reply.find("HTTP/1.1 200 OK") == std::string::npos) {
          ++bad;
          continue;
        }
        const std::string body = reply.substr(reply.find("\r\n\r\n") + 4);
        if (target == std::string("/metrics")) {
          obs::PromScrape scrape;
          if (!obs::ParsePromText(body, &scrape)) {
            ++bad;
            continue;
          }
          if (scrape.families.empty()) continue;  // before the first publish
          bool complete = true;
          for (const char* family :
               {"topfull_requests_offered_total", "topfull_engine_pending_events",
                "topfull_request_latency_ms"}) {
            if (scrape.FindFamily(family) == nullptr) complete = false;
          }
          ++(complete ? complete_scrapes : bad);
        } else {
          obs::JsonValue doc;
          std::string parse_error;
          if (!obs::ParseJson(body, &doc, &parse_error)) ++bad;
        }
      }
    });
  }

  exp::RunSpec spec = LiveSpec("scraped", /*duration_s=*/10.0);
  spec.live = &live;
  exp::Run(spec);
  done.store(true, std::memory_order_relaxed);
  for (std::thread& thread : scrapers) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(complete_scrapes.load(), 0);
  EXPECT_GE(live.publishes(), 2u);
  EXPECT_TRUE(live.board().Read()->run.finished);
}

TEST(LivePlaneTest, ShardedRunExposesSchedulerMetricsPerShard) {
  obs::LiveOptions options;
  options.port = -1;
  options.publish_interval_s = 0.0;
  obs::LivePlane live(options);
  exp::RunSpec spec = LiveSpec("sharded-live");
  spec.live = &live;
  spec.shards = 2;
  spec.net_latency = Millis(1);
  const exp::RunResult result = exp::Run(spec);

  const auto snapshot = live.board().Read();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->run.finished);
  EXPECT_GT(snapshot->run.rounds, 0u);
  ASSERT_EQ(snapshot->run.shards.size(), 2u);
  EXPECT_GT(snapshot->run.shards[0].events_processed, 0u);
  EXPECT_GT(snapshot->run.shards[1].events_processed, 0u);

  // Scheduler families exist and per-shard cells carry shard labels.
  EXPECT_NE(snapshot->FindFamily("topfull_shard_rounds_total"), nullptr);
  EXPECT_NE(snapshot->FindFamily("topfull_shard_round_wall_ms"), nullptr);
  EXPECT_NE(snapshot->FindCell("topfull_shard_busy_seconds", {{"shard", "1"}}),
            nullptr);
  EXPECT_NE(
      snapshot->FindCell("topfull_shard_messages_sent_total", {{"shard", "0"}}),
      nullptr);
  // App registries are shard-labeled too.
  bool saw_shard1_app_cell = false;
  const auto* family = snapshot->FindFamily("topfull_requests_offered_total");
  if (family == nullptr) family = snapshot->FindFamily("topfull_engine_pending_events");
  ASSERT_NE(family, nullptr);
  for (const auto& cell : family->cells) {
    for (const auto& [key, value] : cell.labels) {
      if (key == "shard" && value == "1") saw_shard1_app_cell = true;
    }
  }
  EXPECT_TRUE(saw_shard1_app_cell);

  // /runs carries the per-shard scheduler stats.
  const std::string runs = obs::RunStateJson(*snapshot);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(runs, &doc, &error)) << error;
  EXPECT_NE(runs.find("\"rounds\":"), std::string::npos);
  EXPECT_NE(runs.find("\"mailbox_depth_hwm\":"), std::string::npos);

  std::string prom_error;
  EXPECT_TRUE(ParsesAsProm(obs::PromTextFromSnapshot(*snapshot), &prom_error))
      << prom_error;
  (void)result;
}

TEST(LivePlaneTest, ProfilerPercentilesAppearInLiveSnapshots) {
  obs::Profiler& profiler = obs::Profiler::Global();
  profiler.Reset();
  profiler.SetEnabled(true);
  for (int i = 1; i <= 100; ++i) {
    profiler.Record("live-test/phase", 1e-3 * i);  // 1 ms .. 100 ms
  }
  const auto phases = profiler.Snapshot();
  const auto it =
      std::find_if(phases.begin(), phases.end(), [](const auto& entry) {
        return entry.first == "live-test/phase";
      });
  ASSERT_NE(it, phases.end());
  EXPECT_GT(it->second.p50_s, 0.02);
  EXPECT_LT(it->second.p50_s, 0.08);
  EXPECT_GE(it->second.p99_s, it->second.p50_s);
  EXPECT_LE(it->second.p99_s, it->second.max_s * 1.0001);

  obs::LivePlane live(obs::LiveOptions{-1, 0.0});
  live.Publish(obs::LiveSources{}, /*finished=*/true);
  const auto snapshot = live.board().Read();
  EXPECT_NE(snapshot->FindFamily("topfull_profile_p50_ms"), nullptr);
  EXPECT_NE(snapshot->FindFamily("topfull_profile_p99_ms"), nullptr);
  const auto* cell = snapshot->FindCell("topfull_profile_count",
                                        {{"phase", "live-test/phase"}});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->gauge, 100.0);
  profiler.SetEnabled(false);
  profiler.Reset();
}

// --- Time-series plane -------------------------------------------------------

TEST_F(HttpServerTest, ResponsesForbidCaching) {
  // Live telemetry is point-in-time: any response a proxy replays is a
  // stale lie, so every response carries Cache-Control: no-store.
  const std::string ok =
      RawRequest(server_->port(), "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("Cache-Control: no-store\r\n"), std::string::npos);
  const std::string missing =
      RawRequest(server_->port(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(missing.find("Cache-Control: no-store\r\n"), std::string::npos);
}

TEST(RouteTest, QueryAndAlertsServeJsonWhenATsdbIsWired) {
  obs::SnapshotBoard board;
  obs::TsdbPlane plane;
  plane.tsdb().Append("m", {{"api", "a"}}, obs::MetricType::kGauge, 1.0, 2.0);
  obs::AlertRule rule;
  rule.name = "m_high";
  rule.exprs = {"m > 1"};
  rule.for_s = 0.0;
  plane.rules().AddAlert(std::move(rule));
  plane.rules().Evaluate(1.0);

  auto get = [&board, &plane](const std::string& target) {
    obs::HttpRequest request;
    request.method = "GET";
    request.target = target;
    return obs::RouteSnapshotRequest(request, board, &plane);
  };
  const obs::HttpResponse query = get("/query?expr=m");
  EXPECT_EQ(query.status, 200);
  EXPECT_EQ(query.content_type, "application/json");
  EXPECT_NE(query.body.find("\"2\""), std::string::npos);

  const obs::HttpResponse alerts = get("/alerts");
  EXPECT_EQ(alerts.status, 200);
  EXPECT_EQ(alerts.content_type, "application/json");
  EXPECT_NE(alerts.body.find("\"m_high\""), std::string::npos);
  EXPECT_NE(alerts.body.find("\"firing\""), std::string::npos);

  // Without a store the endpoints don't exist.
  obs::HttpRequest request;
  request.method = "GET";
  request.target = "/query?expr=m";
  EXPECT_EQ(obs::RouteSnapshotRequest(request, board).status, 404);
  request.target = "/alerts";
  EXPECT_EQ(obs::RouteSnapshotRequest(request, board).status, 404);
}

TEST(LivePlaneTest, TsdbPlaneIsAPureObserver) {
  // Identical spec with and without the TSDB plane: per-API totals match
  // sample for sample, while the plane itself captured real series.
  exp::RunResult plain = exp::Run(LiveSpec("tsdb-observer"));

  obs::TsdbPlane plane;
  for (obs::AlertRule& rule : obs::SloBurnRules()) {
    plane.rules().AddAlert(std::move(rule));
  }
  exp::RunSpec spec = LiveSpec("tsdb-observer");
  spec.tsdb = &plane;
  exp::RunResult observed = exp::Run(spec);

  const auto& a = plain.app().metrics().Totals();
  const auto& b = observed.app().metrics().Totals();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offered, b[i].offered) << "api " << i;
    EXPECT_EQ(a[i].admitted, b[i].admitted) << "api " << i;
    EXPECT_EQ(a[i].completed, b[i].completed) << "api " << i;
    EXPECT_EQ(a[i].good, b[i].good) << "api " << i;
  }
  EXPECT_GT(plane.tsdb().stats().series, 0u);
  EXPECT_GT(plane.tsdb().stats().appended, 0u);
  EXPECT_GT(plane.tsdb().LatestTime(), 0.0);
  EXPECT_GT(plane.rules().last_eval_s(), 0.0);
}

TEST(LivePlaneTest, ReplayedStoreAnswersQueriesByteIdentically) {
  obs::TsdbPlane plane;
  exp::RunSpec spec = LiveSpec("tsdb-replay");
  spec.tsdb = &plane;
  exp::Run(spec);
  ASSERT_GT(plane.tsdb().stats().appended, 0u);

  // The artifact reload (what `topfull serve --dir` and `topfull query
  // --dir` do) must answer every query byte-identically to the live store.
  std::string error;
  const auto reloaded = obs::TsdbFromJson(obs::TsdbJson(plane.tsdb()), &error);
  ASSERT_NE(reloaded, nullptr) << error;

  const char* targets[] = {
      "/query?expr=sum%20by(api)%20(topfull_requests_good_total)",
      "/query?expr=sum(rate(topfull_requests_completed_total[5s]))",
      "/query?expr=topfull_requests_offered_total&start=1&end=5&step=1",
      "/query?expr=histogram_quantile(0.99,%20topfull_request_latency_ms_bucket)",
  };
  for (const char* target : targets) {
    obs::HttpRequest request;
    request.method = "GET";
    request.target = target;
    const obs::HttpResponse live_response =
        obs::HandleQueryRequest(request, plane.tsdb());
    const obs::HttpResponse replayed =
        obs::HandleQueryRequest(request, *reloaded);
    EXPECT_EQ(live_response.status, 200) << target;
    EXPECT_EQ(live_response.body, replayed.body) << target;
  }
}

}  // namespace
}  // namespace topfull
