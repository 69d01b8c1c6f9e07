// topfull — command-line driver for the simulator and controller. Run it
// without arguments for the full usage.
//
// Examples:
//   topfull run --app boutique --controller topfull --users 2600 --duration 120
//   topfull run --app trainticket --controller dagor --users 800 --surge 40:3500
//   topfull run --app boutique --users 2600 --duration 60 --serve-port 9090
//   topfull run --app alibaba --replicas 4 --shards 4 --controller mimd
//   topfull inspect --app alibaba
//   topfull report --app boutique --users 2600 --surge 30:5200 --duration 90
//   topfull compare baseline.summary.json candidate.summary.json
//   topfull serve --dir topfull-report --port 9090
//   topfull scenario run --smoke
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "exp/csv.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "fault/profile.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/tsdb_plane.hpp"
#include "scenario/library.hpp"
#include "scenario/profile.hpp"
#include "scenario/runner.hpp"

using namespace topfull;

namespace {

/// `text` as a finite number, or exit 2 naming `flag`: atof would read
/// "abc" as 0 and "10x" as 10 without a word.
double NumOrExit(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(value)) {
    std::fprintf(stderr, "bad --%s '%s': expected a finite number\n",
                 flag.c_str(), text.c_str());
    std::exit(2);
  }
  return value;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double Num(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : NumOrExit(key, it->second);
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      args.positional.push_back(key);
      continue;
    }
    key = key.substr(2);
    std::string value = "1";
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    args.options[key] = value;
  }
  return args;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  topfull run --app <boutique|trainticket|alibaba>\n"
      "              [--controller <topfull|topfull-bw|mimd|dagor|breakwater|\n"
      "                             wisp|static|none>]\n"
      "              [--users N | --rps R] [--duration S] [--surge T:N]\n"
      "              [--priorities] [--probe-failures] [--hpa] [--seed S] [--csv FILE]\n"
      "              [--trace-dir DIR] [--trace-sample R]\n"
      "  topfull inspect --app <boutique|trainticket|alibaba>\n"
      "  topfull train [--episodes N] [--out FILE]\n"
      "  topfull report [run options] [--out DIR]\n"
      "                   run + self-contained HTML report, run summary JSON,\n"
      "                   Perfetto trace, decision log and Prometheus dump in DIR\n"
      "  topfull compare BASELINE.json CANDIDATE.json [--rel-tol R] [--abs-tol A]\n"
      "                   per-metric regression diff of two run summaries;\n"
      "                   exit 0 = no regression, 1 = regression, 2 = bad input\n"
      "  topfull serve --dir DIR [--name NAME] [--port N] [--linger S]\n"
      "                   serve a finished run's exported artifacts (the\n"
      "                   .metrics.prom / .summary.json written by report or\n"
      "                   --trace-dir) over HTTP; when the run wrote a\n"
      "                   .tsdb.json / .alerts.json it also answers /query\n"
      "                   and /alerts; --linger S exits after S s\n"
      "  topfull query EXPR (--url http://HOST:PORT | --dir DIR [--name NAME])\n"
      "                     [--time T | --start A --end B --step S]\n"
      "                   evaluate a PromQL-subset expression against a live\n"
      "                   run's /query endpoint or a saved .tsdb.json; prints\n"
      "                   the JSON result, exit 0 = ok, 1 = query error\n"
      "  topfull alerts (--url http://HOST:PORT | --dir DIR [--name NAME])\n"
      "                   print alert states + transitions (live /alerts\n"
      "                   endpoint, or the saved .alerts.json)\n"
      "  topfull scenario list [--profile FILE]\n"
      "                   print the workload-pathology scenario library\n"
      "  topfull scenario run [--controllers a,b,c] [--scenario NAME]\n"
      "                       [--profile FILE] [--json FILE] [--smoke]\n"
      "                   run the scenario x controller conformance matrix;\n"
      "                   exit 0 = every cell conforms to its invariants\n"
      "\n"
      "  --static-rate R  (run) per-API entry rate for --controller static\n"
      "  --serve-port N   (run) embedded observability server on 127.0.0.1:N\n"
      "                   while the run executes: /metrics /healthz /runs\n"
      "                   /snapshot.json (N = 0 picks an ephemeral port)\n"
      "  --publish-ms M   (run) min wall-clock ms between live snapshots\n"
      "                   (default 10)\n"
      "  --tsdb           (run) attach the time-series plane: in-memory TSDB\n"
      "                   fed at every metrics window close, SLO burn-rate\n"
      "                   alert rules, .tsdb.json/.alerts.json artifacts with\n"
      "                   --trace-dir, /query + /alerts with --serve-port\n"
      "                   (TOPFULL_TSDB=1 does the same)\n"
      "  --alert-floor F  (run) implies --tsdb; adds a goodput_floor_burn\n"
      "                   alert that fires while cluster-wide goodput < F rps\n"
      "  --threads N      worker-pool size for parallel rollouts/sweeps\n"
      "                   (overrides TOPFULL_THREADS; default: all cores)\n"
      "  --trace-dir DIR  export request spans (Perfetto JSON), the controller\n"
      "                   decision log (JSONL) and a Prometheus metrics dump to\n"
      "                   DIR (overrides TOPFULL_TRACE_DIR)\n"
      "  --trace-sample R fraction of requests traced, 0..1 (default 1;\n"
      "                   overrides TOPFULL_TRACE_SAMPLE)\n"
      "  --fault-profile  ';'-separated fault events, e.g.\n"
      "                   'crash:svc=ts-station,at=50,pods=25,restart=60;\n"
      "                    degrade:svc=frontend,at=30,for=40,factor=0.5' or\n"
      "                   'chaos:seed=7,events=6,horizon=120' (seeded random)\n"
      "  --fault-seed S   RNG seed for the fault engine's own stream\n"
      "  --hop-timeout S  per-hop RPC timeout in seconds (default 0 = none)\n"
      "  --retries N      bounded retries per hop (default 0)\n"
      "  --retry-backoff S delay before each retry (default 0)\n"
      "  --shards N       run one simulation across N engine shards\n"
      "                   (conservative-lookahead parallel DES; merged results)\n"
      "  --net-latency-ms L  one-way cross-shard RPC latency (def 1); the sync\n"
      "                   window only when the shard plan splits a cluster\n"
      "  --sequential     run the sharded protocol without worker threads\n"
      "  --replicas K     alibaba only: K independent 127-service copies\n");
  return 2;
}

std::unique_ptr<sim::Application> MakeApp(const Args& args) {
  const std::string app_name = args.Get("app", "boutique");
  const auto seed = static_cast<std::uint64_t>(args.Num("seed", 42));
  if (app_name == "boutique") {
    apps::BoutiqueOptions options;
    options.seed = seed;
    options.distinct_priorities = args.Has("priorities");
    options.probe_failures = args.Has("probe-failures");
    return apps::MakeOnlineBoutique(options);
  }
  if (app_name == "trainticket") {
    apps::TrainTicketOptions options;
    options.seed = seed;
    options.distinct_priorities = args.Has("priorities");
    options.probe_failures = args.Has("probe-failures");
    return apps::MakeTrainTicket(options);
  }
  if (app_name == "alibaba") {
    apps::AlibabaDemoOptions options;
    options.seed = seed == 42 ? 2021 : seed;
    options.replicas = static_cast<int>(args.Num("replicas", 1));
    return apps::MakeAlibabaDemo(options).app;
  }
  return nullptr;
}

/// Builds and starts the live observability plane when --serve-port was
/// given; returns null (and *rc untouched) when the flag is absent, or null
/// with *rc = 1 when the server failed to bind. `tsdb` (may be null) is
/// exposed through /query and /alerts.
std::unique_ptr<obs::LivePlane> MakeLivePlane(const Args& args,
                                              const obs::TsdbPlane* tsdb,
                                              int* rc) {
  if (!args.Has("serve-port")) return nullptr;
  obs::LiveOptions options;
  options.port = static_cast<int>(args.Num("serve-port", 0));
  options.publish_interval_s = args.Num("publish-ms", 10.0) / 1e3;
  auto live = std::make_unique<obs::LivePlane>(options);
  live->SetTsdb(tsdb);
  std::string error;
  if (!live->StartServer(&error)) {
    std::fprintf(stderr, "cannot start observability server: %s\n", error.c_str());
    *rc = 1;
    return nullptr;
  }
  std::printf("observability server on http://127.0.0.1:%d/ "
              "(/metrics /healthz /runs /snapshot.json%s)\n",
              live->port(), tsdb != nullptr ? " /query /alerts" : "");
  std::fflush(stdout);
  return live;
}

/// Minimal HTTP GET against the embedded observability server (numeric
/// IPv4 hosts only — the server binds 127.0.0.1). Fills the status code
/// and response body; false on connect/transport errors.
bool HttpGet(const std::string& host, int port, const std::string& target,
             int* status, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos ||
      std::sscanf(response.c_str(), "HTTP/1.1 %d", status) != 1) {
    return false;
  }
  *body = response.substr(header_end + 4);
  return true;
}

/// Splits "http://HOST:PORT" (or "HOST:PORT") for HttpGet.
bool ParseServerUrl(std::string url, std::string* host, int* port) {
  const std::string scheme = "http://";
  if (url.rfind(scheme, 0) == 0) url = url.substr(scheme.size());
  while (!url.empty() && url.back() == '/') url.pop_back();
  const std::size_t colon = url.rfind(':');
  if (colon == std::string::npos) return false;
  *host = url.substr(0, colon);
  *port = std::atoi(url.substr(colon + 1).c_str());
  return !host->empty() && *port > 0;
}

/// Percent-encodes a query-string value (the expression may carry spaces,
/// '+', '&', brackets...).
std::string PercentEncode(const std::string& text) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    const bool safe = (u >= 'a' && u <= 'z') || (u >= 'A' && u <= 'Z') ||
                      (u >= '0' && u <= '9') || u == '-' || u == '_' ||
                      u == '.' || u == '~';
    if (safe) {
      out += c;
    } else {
      out += '%';
      out += hex[u >> 4];
      out += hex[u & 0xf];
    }
  }
  return out;
}

int CmdInspect(const Args& args) {
  auto app = MakeApp(args);
  if (!app) return Usage();
  std::printf("application: %s — %d microservices, %d external APIs\n\n",
              app->name().c_str(), app->NumServices(), app->NumApis());
  Table services("microservices");
  services.SetHeader({"service", "pods", "threads", "mean svc (ms)", "capacity (rps)"});
  for (int s = 0; s < app->NumServices(); ++s) {
    const auto& config = app->service(s).config();
    services.AddRow({config.name, std::to_string(app->service(s).RunningPods()),
                     std::to_string(config.threads), Fmt(config.mean_service_ms, 1),
                     Fmt(app->service(s).CapacityRps(), 0)});
  }
  services.Print();
  std::printf("\n");
  Table apis("APIs");
  apis.SetHeader({"API", "priority", "paths", "services on path(s)"});
  for (sim::ApiId a = 0; a < app->NumApis(); ++a) {
    std::string involved;
    for (const sim::ServiceId s : app->api(a).involved_services()) {
      if (!involved.empty()) involved += " ";
      involved += app->service(s).name();
    }
    if (involved.size() > 70) involved = involved.substr(0, 67) + "...";
    apis.AddRow({app->api(a).name(), std::to_string(app->api(a).business_priority()),
                 std::to_string(app->api(a).paths().size()), involved});
  }
  apis.Print();
  return 0;
}

/// Prints what the fault injectors did (nothing when no fault ran).
void PrintFaultLog(const std::vector<fault::FaultRecord>& log,
                   std::size_t scheduled) {
  if (log.empty()) return;
  int injected = 0;
  for (const auto& r : log) {
    if (r.action != fault::FaultRecord::Action::kSkipped) ++injected;
  }
  std::printf("faults: %d state changes from %zu scheduled events\n", injected,
              scheduled);
  for (const auto& r : log) {
    std::printf("  t=%7.2fs %-20s %-8s %s%s%s severity=%.2f count=%d\n",
                ToSeconds(r.at), fault::FaultTypeName(r.type),
                fault::FaultActionName(r.action), r.service.empty() ? "" : "svc=",
                r.service.c_str(), r.service.empty() ? "(cluster)" : "",
                r.severity, r.count);
  }
}

/// The shard plan, the sync lookahead and per-shard engine stats.
void PrintShardStats(const sim::ShardedApp& app) {
  const auto& plan = app.plan();
  std::printf("shard plan: %d clusters over %d shards (%s)\n",
              plan.num_clusters, app.num_shards(),
              plan.cluster_aligned ? "cluster-aligned"
                                   : "split clusters: cross-shard RPC in play");
  const SimTime lookahead = app.engine().lookahead();
  if (lookahead == des::ShardedSimulation::kUnboundedLookahead) {
    std::printf("sync lookahead: unbounded (cluster-aligned)\n");
  } else {
    std::printf("sync lookahead: %.1f ms\n", ToMillis(lookahead));
  }
  std::printf("cross-shard RPCs: %llu, sync rounds: %llu\n",
              static_cast<unsigned long long>(app.RemoteCalls()),
              static_cast<unsigned long long>(app.engine().Rounds()));
  Table table("per-shard engine stats");
  table.SetHeader({"shard", "events", "busy (s)", "blocked (s)", "msgs out",
                   "msgs in"});
  const auto& stats = app.engine().Stats();
  for (int i = 0; i < app.num_shards(); ++i) {
    const auto& s = stats[static_cast<std::size_t>(i)];
    table.AddRow({std::to_string(i),
                  std::to_string(app.app(i).sim().EventsProcessed()),
                  Fmt(s.busy_s, 2), Fmt(s.blocked_s, 2),
                  std::to_string(s.messages_sent),
                  std::to_string(s.messages_delivered)});
  }
  table.Print();
}

/// `run`: maps the flags onto an exp::RunSpec, runs it with exp::Run and
/// prints the result. `--shards N` (N > 1) runs one simulation across N
/// engine shards with merged results.
int CmdRun(const Args& args) {
  obs::ScopedTimer run_timer("cli/run");
  // A probe app validates --app, names the run and parses the faults.
  const auto probe = MakeApp(args);
  if (!probe) return Usage();
  exp::RunSpec spec;
  spec.label = probe->name();
  spec.duration_s = args.Num("duration", 120);
  if (spec.duration_s <= 0) {
    std::fprintf(stderr, "bad --duration '%s': must be > 0\n",
                 args.Get("duration").c_str());
    return 2;
  }
  // Unknown names are an error rather than a silently uncontrolled run.
  const std::string controller = args.Get("controller", "topfull");
  const auto variant = exp::VariantFromName(controller);
  if (!variant.has_value()) {
    std::fprintf(stderr, "unknown --controller '%s'\n", controller.c_str());
    return 2;
  }
  spec.variant = *variant;
  spec.static_rate = args.Num("static-rate", 0.0);
  if (args.Has("hpa")) spec.hpa = autoscale::ClusterConfig{};
  spec.shards = std::max(1, static_cast<int>(args.Num("shards", 1)));
  spec.net_latency = Millis(args.Num("net-latency-ms", 1.0));
  spec.threaded = !args.Has("sequential");
  if (spec.hpa && spec.shards > 1) {
    std::fprintf(stderr, "--hpa is not supported with --shards\n");
    return 2;
  }
  // Every numeric flag is read here, before the run, so a bad value exits
  // before any simulation starts.
  const bool rpc = args.Has("hop-timeout") || args.Has("retries") ||
                   args.Has("retry-backoff");
  const SimTime hop_timeout = Seconds(args.Num("hop-timeout", 0));
  const int retries = static_cast<int>(args.Num("retries", 0));
  const SimTime retry_backoff = Seconds(args.Num("retry-backoff", 0));
  spec.make_app = [args, rpc, hop_timeout, retries, retry_backoff] {
    auto app = MakeApp(args);
    if (rpc) app->ConfigureRpc(hop_timeout, retries, retry_backoff);
    return app;
  };

  // --surge T:N switches the user count / rate to N at time T.
  double surge_t = -1, surge_value = 0;
  if (args.Has("surge")) {
    const std::string surge = args.Get("surge");
    const auto colon = surge.find(':');
    if (colon == std::string::npos) return Usage();
    surge_t = NumOrExit("surge", surge.substr(0, colon));
    surge_value = NumOrExit("surge", surge.substr(colon + 1));
  }
  const bool open_loop = args.Has("rps");
  const double rate = open_loop ? args.Num("rps", 1000) : args.Num("users", 1000);
  spec.traffic = [open_loop, rate, surge_t, surge_value](
                     workload::TrafficDriver& traffic, sim::Application& app) {
    if (open_loop) {
      const double per_api = rate / app.NumApis();
      for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
        workload::Schedule schedule = workload::Schedule::Constant(per_api);
        if (surge_t >= 0) {
          schedule.Then(Seconds(surge_t), surge_value / app.NumApis());
        }
        traffic.AddOpenLoop(a, std::move(schedule));
      }
    } else {
      workload::Schedule schedule = workload::Schedule::Constant(rate);
      if (surge_t >= 0) schedule.Then(Seconds(surge_t), surge_value);
      traffic.AddClosedLoop(exp::UniformUsers(app), std::move(schedule));
    }
  };

  if (args.Has("fault-profile")) {
    std::string error;
    const auto parsed =
        fault::ParseFaultProfile(args.Get("fault-profile"), *probe, &error);
    if (!parsed) {
      std::fprintf(stderr, "bad --fault-profile: %s\n", error.c_str());
      return 2;
    }
    spec.faults = *parsed;
  }
  if (args.Has("fault-seed")) {
    spec.fault_seed = static_cast<std::uint64_t>(args.Num("fault-seed", 0));
  }
  if (args.Has("trace-dir")) spec.telemetry.dir = args.Get("trace-dir");
  if (args.Has("trace-sample")) {
    spec.telemetry.sample_rate = args.Num("trace-sample", 1.0);
  }

  std::shared_ptr<rl::GaussianPolicy> policy;
  if (exp::VariantNeedsPolicy(spec.variant)) {
    policy = exp::GetPretrainedPolicy();
    spec.policy = policy.get();
  }
  // --tsdb, --alert-floor F or TOPFULL_TSDB: the SLO burn pair, plus
  // goodput_floor_burn for a positive floor.
  std::unique_ptr<obs::TsdbPlane> tsdb;
  if (args.Has("tsdb") || args.Has("alert-floor") || exp::TsdbFromEnv()) {
    tsdb = exp::MakeSloTsdbPlane(args.Num("alert-floor", 0.0));
  }
  spec.tsdb = tsdb.get();
  int live_rc = 0;
  std::unique_ptr<obs::LivePlane> live = MakeLivePlane(args, tsdb.get(), &live_rc);
  if (live_rc != 0) return live_rc;
  spec.live = live.get();

  const int shards = spec.shards;
  std::printf("running %s with %s for %.0f s", spec.label.c_str(),
              exp::VariantName(spec.variant).c_str(), spec.duration_s);
  if (shards > 1) {
    std::printf(" across %d shards (net latency %.1f ms, %s)", shards,
                ToMillis(spec.net_latency),
                spec.threaded ? "threaded" : "sequential");
  }
  std::printf("...\n");
  exp::RunResult result = exp::Run(spec);
  const sim::ShardedApp& app = *result.sharded;

  PrintFaultLog(result.fault_log, spec.faults.size());

  // Each API row comes from the API's origin shard.
  Table table(shards > 1 ? "per-API results (whole run, merged across shards)"
                         : "per-API results (whole run)");
  std::vector<std::string> header = {"API", "avg offered", "avg goodput",
                                     "final p95 (ms)", "rate limit"};
  if (shards > 1) header.insert(header.begin() + 1, "shard");
  table.SetHeader(header);
  for (sim::ApiId a = 0; a < app.app(0).NumApis(); ++a) {
    const int origin = app.plan().OriginOf(a);
    const sim::Application& owner = app.app(origin);
    std::string limit = "-";
    if (core::TopFullController* controller =
            result.controllers[static_cast<std::size_t>(origin)].topfull()) {
      const auto value = controller->RateLimit(a);
      limit = value ? Fmt(*value, 0) : "uncapped";
    }
    std::vector<std::string> row = {
        owner.api(a).name(),
        Fmt(static_cast<double>(owner.metrics().Totals()[a].offered) /
                spec.duration_s, 0),
        Fmt(owner.metrics().AvgGoodput(a), 0),
        Fmt(owner.metrics().Latest().apis[a].latency_p95_ms, 0), limit};
    if (shards > 1) row.insert(row.begin() + 1, std::to_string(origin));
    table.AddRow(row);
  }
  table.Print();
  std::printf("total avg goodput: %.0f rps\n", app.MergedAvgTotalGoodput());
  if (tsdb != nullptr) {
    std::printf("alerts: %zu rules, %zu transitions\n",
                tsdb->rules().rule_count(),
                tsdb->rules().transitions().size());
  }
  if (shards > 1) PrintShardStats(app);

  for (const exp::TelemetrySummary& summary : result.telemetry) {
    std::string paths;
    for (const std::string& path : summary.paths) {
      if (!paths.empty()) paths += " ";
      paths += path;
    }
    std::printf(
        "telemetry: %llu traces sampled (%llu dropped), %llu decision ticks / "
        "%llu decisions -> %s\n",
        static_cast<unsigned long long>(summary.sampled),
        static_cast<unsigned long long>(summary.dropped),
        static_cast<unsigned long long>(summary.ticks),
        static_cast<unsigned long long>(summary.decisions), paths.c_str());
  }

  if (args.Has("csv")) {
    const std::string path = args.Get("csv");
    if (exp::WriteTimelineCsv(app.app(0), app.MergedTimeline(), path)) {
      std::printf("timeline written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

int CmdTrain(const Args& args) {
  const int episodes = static_cast<int>(args.Num("episodes", exp::PretrainEpisodes()));
  std::printf("training PPO policy on the graph simulator (%d episodes)...\n",
              episodes);
  rl::TrainResult result;
  auto policy = exp::TrainBasePolicy(episodes, /*seed=*/1234, &result);
  std::printf("episodes=%d best-validation=%.3f\n", result.episodes_trained,
              result.best_validation_score);
  const std::string out = args.Get("out", exp::ModelDir() + "/base_policy.txt");
  if (!policy->SaveFile(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("saved %s\n", out.c_str());
  return 0;
}

// `report` is `run` with telemetry forced into --out: the exporters already
// write the HTML report and run summary alongside the trace artifacts.
int CmdReport(const Args& args) {
  const std::string out_dir = args.Get("out", "topfull-report");
  Args forwarded = args;
  forwarded.options["trace-dir"] = out_dir;
  forwarded.options.erase("out");
  const int rc = CmdRun(forwarded);
  if (rc == 0) std::printf("report written under %s/\n", out_dir.c_str());
  return rc;
}

/// Reads a whole file; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

/// The run whose artifacts `dir` holds: --name, or else the
/// lexicographically first `*<suffix>` file. Empty, with a message on
/// stderr, when there is none.
std::string RunName(const Args& args, const std::string& dir,
                    const std::string& suffix) {
  if (args.Has("name")) return args.Get("name");
  std::vector<std::string> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.size() > suffix.size() &&
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) == 0) {
      found.push_back(file.substr(0, file.size() - suffix.size()));
    }
  }
  if (found.empty()) {
    std::fprintf(stderr, "no *%s under %s\n", suffix.c_str(), dir.c_str());
    return "";
  }
  return *std::min_element(found.begin(), found.end());
}

// `serve` replays a finished run's exported artifacts over HTTP so the same
// scrape targets work after the simulation has exited. `--name` picks a run
// inside the directory (default: lexicographically first *.metrics.prom).
int CmdServe(const Args& args) {
  const std::string dir =
      args.Get("dir", args.positional.empty() ? "topfull-report"
                                              : args.positional[0]);
  const std::string name = RunName(args, dir, ".metrics.prom");
  if (name.empty()) return 2;
  std::string metrics, summary, alerts;
  if (!ReadFile(dir + "/" + name + ".metrics.prom", &metrics)) {
    std::fprintf(stderr, "cannot read %s/%s.metrics.prom\n", dir.c_str(),
                 name.c_str());
    return 2;
  }
  const bool have_summary = ReadFile(dir + "/" + name + ".summary.json", &summary);
  // Replay the time-series artifacts when the run wrote them: /query
  // evaluates against the reloaded store (samples are %.17g, so responses
  // match the live server byte for byte); /alerts serves the saved body.
  const bool have_alerts = ReadFile(dir + "/" + name + ".alerts.json", &alerts);
  std::unique_ptr<obs::Tsdb> tsdb;
  std::string tsdb_text;
  if (ReadFile(dir + "/" + name + ".tsdb.json", &tsdb_text)) {
    std::string error;
    tsdb = obs::TsdbFromJson(tsdb_text, &error);
    if (tsdb == nullptr) {
      std::fprintf(stderr, "ignoring %s/%s.tsdb.json: %s\n", dir.c_str(),
                   name.c_str(), error.c_str());
    }
  }

  obs::HttpServer server([&](const obs::HttpRequest& request) {
    const std::string path = request.target.substr(0, request.target.find('?'));
    obs::HttpResponse response;
    if (path == "/healthz") {
      response.body = "ok\n";
    } else if (path == "/metrics") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = metrics;
    } else if (path == "/summary.json" && have_summary) {
      response.content_type = "application/json";
      response.body = summary;
    } else if (path == "/query" && tsdb != nullptr) {
      response = obs::HandleQueryRequest(request, *tsdb);
    } else if (path == "/alerts" && have_alerts) {
      response.content_type = "application/json";
      response.body = alerts;
    } else if (path == "/") {
      response.body = "topfull serve — finished run \"" + name +
                      "\"\n"
                      "  /metrics       Prometheus dump\n"
                      "  /healthz       liveness probe\n"
                      "  /summary.json  run summary JSON\n";
      if (tsdb != nullptr) response.body += "  /query         PromQL-subset query over the saved TSDB\n";
      if (have_alerts) response.body += "  /alerts        saved alert states + transitions\n";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  });
  std::string error;
  if (!server.Start(static_cast<int>(args.Num("port", 0)), &error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    return 1;
  }
  std::printf("serving %s/%s.* on http://127.0.0.1:%d/\n", dir.c_str(),
              name.c_str(), server.port());
  std::fflush(stdout);
  const double linger = args.Num("linger", -1.0);
  if (linger >= 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(linger));
  } else {
    while (true) {
      std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
  }
  server.Stop();
  return 0;
}

/// Shared --dir plumbing for `query`/`alerts`: reads
/// `<dir>/<name><suffix>`. False with a message on stderr.
bool LoadRunArtifact(const Args& args, const std::string& suffix,
                     std::string* out) {
  const std::string dir = args.Get("dir");
  const std::string name = RunName(args, dir, suffix);
  if (name.empty()) return false;
  const std::string path = dir + "/" + name + suffix;
  if (!ReadFile(path, out)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Shared --url plumbing for `query`/`alerts`: prints the body of GET
/// `target` on the live server; 0 on HTTP 200.
int PrintFromServer(const Args& args, const std::string& target) {
  std::string host;
  int port = 0;
  if (!ParseServerUrl(args.Get("url"), &host, &port)) {
    std::fprintf(stderr, "bad --url '%s' (want http://HOST:PORT)\n",
                 args.Get("url").c_str());
    return 2;
  }
  int status = 0;
  std::string body;
  if (!HttpGet(host, port, target, &status, &body)) {
    std::fprintf(stderr, "cannot reach %s:%d\n", host.c_str(), port);
    return 1;
  }
  std::fputs(body.c_str(), stdout);
  return status == 200 ? 0 : 1;
}

// `topfull query EXPR` evaluates a PromQL-subset expression against a live
// run (--url, over the embedded server's /query endpoint) or a finished
// run's .tsdb.json artifact (--dir). The --dir path builds the identical
// /query target and routes it through the same HandleQueryRequest the
// servers use, so both paths print byte-identical bodies.
int CmdQuery(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: topfull query EXPR (--url http://HOST:PORT | "
                         "--dir DIR [--name NAME])\n"
                         "                     [--time T | --start A --end B --step S]\n");
    return 2;
  }
  std::string target = "/query?expr=" + PercentEncode(args.positional[0]);
  if (args.Has("start") || args.Has("end") || args.Has("step")) {
    target += "&start=" + args.Get("start") + "&end=" + args.Get("end") +
              "&step=" + args.Get("step");
  } else if (args.Has("time")) {
    target += "&time=" + args.Get("time");
  }

  if (args.Has("url")) return PrintFromServer(args, target);

  if (!args.Has("dir")) {
    std::fprintf(stderr, "query needs --url or --dir\n");
    return 2;
  }
  std::string text;
  if (!LoadRunArtifact(args, ".tsdb.json", &text)) return 2;
  std::string error;
  const std::unique_ptr<obs::Tsdb> tsdb = obs::TsdbFromJson(text, &error);
  if (tsdb == nullptr) {
    std::fprintf(stderr, "bad .tsdb.json: %s\n", error.c_str());
    return 2;
  }
  obs::HttpRequest request;
  request.method = "GET";
  request.target = target;
  request.version = "HTTP/1.1";
  const obs::HttpResponse response = obs::HandleQueryRequest(request, *tsdb);
  std::fputs(response.body.c_str(), stdout);
  return response.status == 200 ? 0 : 1;
}

// `topfull alerts` prints a run's alert states + transitions: --url asks a
// live server's /alerts endpoint, --dir prints the saved .alerts.json.
int CmdAlerts(const Args& args) {
  if (args.Has("url")) return PrintFromServer(args, "/alerts");
  if (!args.Has("dir")) {
    std::fprintf(stderr, "alerts needs --url or --dir\n");
    return 2;
  }
  std::string body;
  if (!LoadRunArtifact(args, ".alerts.json", &body)) return 2;
  std::fputs(body.c_str(), stdout);
  return 0;
}

// `scenario list` prints the built-in pathology library; `scenario run`
// executes the scenario x controller conformance matrix (same engine as
// bench/scenario_matrix) and exits non-zero when a cell does not conform.
int CmdScenario(const Args& args) {
  const std::string sub =
      args.positional.empty() ? "list" : args.positional.front();

  std::vector<scenario::ScenarioSpec> specs;
  if (args.Has("profile")) {
    std::string error;
    const auto parsed = scenario::LoadScenarioProfile(args.Get("profile"), &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    specs = *parsed;
  } else {
    specs = scenario::BuiltinScenarios();
  }
  if (args.Has("scenario")) {
    const std::string name = args.Get("scenario");
    std::vector<scenario::ScenarioSpec> filtered;
    for (scenario::ScenarioSpec& spec : specs) {
      if (spec.name == name) filtered.push_back(std::move(spec));
    }
    if (filtered.empty()) {
      std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
      return 2;
    }
    specs = std::move(filtered);
  }

  if (sub == "list") {
    Table table("scenario library");
    table.SetHeader({"name", "app", "duration", "invariants", "description"});
    for (const scenario::ScenarioSpec& spec : specs) {
      std::string kinds;
      for (const scenario::Invariant& inv : spec.invariants) {
        if (!kinds.empty()) kinds += "+";
        kinds += scenario::InvariantKindName(inv.kind);
      }
      table.AddRow({spec.name, spec.app, Fmt(spec.duration_s, 0) + " s", kinds,
                    spec.description});
    }
    table.Print();
    return 0;
  }
  if (sub != "run") {
    std::fprintf(stderr, "unknown scenario subcommand '%s'\n", sub.c_str());
    return Usage();
  }

  const bool smoke = args.Has("smoke");
  if (smoke) {
    for (scenario::ScenarioSpec& spec : specs) spec = spec.TimeScaled(0.25);
  }
  scenario::MatrixOptions options;
  if (args.Has("controllers")) {
    options.controllers.clear();
    std::stringstream stream(args.Get("controllers"));
    std::string item;
    while (std::getline(stream, item, ',')) {
      if (!item.empty()) options.controllers.push_back(item);
    }
  }
  const std::vector<scenario::CellVerdict> verdicts =
      scenario::RunScenarioMatrix(specs, options);
  scenario::PrintMatrixReport(verdicts);
  if (args.Has("json")) {
    std::ofstream out(args.Get("json"));
    out << scenario::MatrixReportJson(verdicts);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.Get("json").c_str());
      return 2;
    }
  }
  for (const scenario::CellVerdict& cell : verdicts) {
    if (!cell.error.empty()) return 2;
  }
  if (smoke) return 0;
  return scenario::AllConform(verdicts) ? 0 : 1;
}

int CmdCompare(const Args& args) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr, "compare needs exactly two summary files\n");
    return Usage();
  }
  obs::JsonValue docs[2];
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(args.positional[i]);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", args.positional[i].c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!obs::ParseJson(text.str(), &docs[i], &error)) {
      std::fprintf(stderr, "%s: %s\n", args.positional[i].c_str(), error.c_str());
      return 2;
    }
  }
  obs::CompareOptions options;
  options.rel_tol = args.Num("rel-tol", options.rel_tol);
  options.abs_tol = args.Num("abs-tol", options.abs_tol);
  const obs::CompareResult result =
      obs::CompareRunSummaries(docs[0], docs[1], options);
  std::printf("baseline:  %s\ncandidate: %s\n", args.positional[0].c_str(),
              args.positional[1].c_str());
  std::fputs(obs::FormatCompareResult(result, options).c_str(), stdout);
  if (result.HasRegression()) {
    std::printf("RESULT: regression\n");
    return 1;
  }
  std::printf("RESULT: ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.Has("threads")) {
    ThreadPool::SetGlobalThreads(static_cast<int>(args.Num("threads", 0)));
  }
  if (args.command == "run") return CmdRun(args);
  if (args.command == "inspect") return CmdInspect(args);
  if (args.command == "train") return CmdTrain(args);
  if (args.command == "report") return CmdReport(args);
  if (args.command == "compare") return CmdCompare(args);
  if (args.command == "serve") return CmdServe(args);
  if (args.command == "query") return CmdQuery(args);
  if (args.command == "alerts") return CmdAlerts(args);
  if (args.command == "scenario") return CmdScenario(args);
  return Usage();
}
