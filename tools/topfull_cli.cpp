// topfull — command-line driver for the simulator and controller. Run it
// without arguments for the full usage.
//
// Examples:
//   topfull run --app boutique --controller topfull --users 2600 --duration 120
//   topfull run --app trainticket --controller dagor --users 800 --surge 40:3500
//   topfull run --app boutique --users 2600 --duration 60 --serve-port 9090
//   topfull run --app alibaba --replicas 4 --controller mimd
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
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "exp/csv.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/tsdb_plane.hpp"
#include "scenario/library.hpp"
#include "scenario/profile.hpp"
#include "scenario/runner.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

/// What a numeric flag must be: any finite number, a value that describes
/// the run (the scenario grammar's number rule: >= 0), or a time of the run
/// (its time rule: also at most kMaxConfigSeconds, so it converts to
/// SimTime). A flag accepts exactly what the matching directive key
/// accepts. Flags read as an int are whole numbers in a range (Whole).
constexpr int kIntMax = std::numeric_limits<int>::max();

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
  bool Has(const std::string& key) const { return options.count(key) > 0; }
  /// The flag's value, or `fallback` when it is absent.
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// Get as a finite number from `lo` to `hi`; exits 2 on anything else.
  double Num(const std::string& key, double fallback,
             double lo = std::numeric_limits<double>::lowest(),
             double hi = std::numeric_limits<double>::max()) const {
    return Has(key) ? FiniteOrExit("--" + key, Get(key), lo, hi) : fallback;
  }
  /// Get as a whole number from `lo` to `hi`; exits 2 on anything else.
  template <typename T>
  T Whole(const std::string& key, T fallback, T lo = std::numeric_limits<T>::min(),
          T hi = std::numeric_limits<T>::max()) const {
    return Has(key) ? WholeOrExit("--" + key, Get(key), lo, hi) : fallback;
  }
  /// Get as a count: a whole number from 1 to INT_MAX.
  int Count(const std::string& key, int fallback) const {
    return Whole(key, fallback, 1, kIntMax);
  }
};

/// The flags one verb reads. A value flag takes the next argument; a switch
/// is presence-only and never takes one.
struct Flags {
  std::set<std::string> values;
  std::set<std::string> switches;
  Flags With(const Flags& more) const {
    Flags out = *this;
    out.values.insert(more.values.begin(), more.values.end());
    out.switches.insert(more.switches.begin(), more.switches.end());
    return out;
  }
};

/// `--threads N` sizes the worker pool for every verb.
constexpr const char* kGlobalFlag = "threads";

/// Exits 2 on a flag `flags` does not declare ("unknown flag --x") and on a
/// value flag given without a value ("missing value for --x"), so a typo
/// never runs with a default in its place.
Args Parse(int argc, char** argv, const Flags& flags) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      args.positional.push_back(key);
      continue;
    }
    key = key.substr(2);
    if (flags.switches.count(key) > 0) {
      args.options[key] = "";
      continue;
    }
    if (flags.values.count(key) == 0 && key != kGlobalFlag) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      std::exit(2);
    }
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      std::exit(2);
    }
    args.options[key] = argv[++i];
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
      "  topfull bench --list | NAME [--smoke] | --all\n"
      "                   the paper-reproduction suite: list its entries, run\n"
      "                   one (--smoke: abl_chaos_matrix, scenario_matrix), or\n"
      "                   run them all in table order\n"
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
      "  --fault-profile  ';'-separated fault directives of the scenario grammar,\n"
      "                   keys in [] optional: crash:svc,at,pods[,restart,stagger]\n"
      "                   degrade|inflate:svc,at,factor[,for] blackhole:svc,at[,for]\n"
      "                   errors:svc,at,p[,for] vmout:at,vms[,for]\n"
      "                   chaos:[seed,events,horizon,start,blackhole], e.g.\n"
      "                   'crash:svc=ts-station,at=50,pods=25,restart=60;\n"
      "                    degrade:svc=frontend,at=30,for=40,factor=0.5' or\n"
      "                   'chaos:seed=7,events=6,horizon=120' (seeded random)\n"
      "  --fault-seed S   RNG seed for the fault engine's own stream\n"
      "  --hop-timeout S  per-hop RPC timeout in seconds (default 0 = none)\n"
      "  --retries N      bounded retries per hop (default 0)\n"
      "  --retry-backoff S delay before each retry (default 0)\n"
      "  --replicas K     alibaba only: K independent 127-service copies in\n"
      "                   one simulation\n");
  return 2;
}

/// The app part of a run description, shared by `run` and `inspect`.
/// Alibaba's default seed is its own 2021, so --seed 42 maps to it.
scenario::ScenarioSpec AppFromFlags(const Args& args) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::Make("", args.Get("app", "boutique"));
  spec.seed = args.Whole<std::uint64_t>("seed", 42);
  if (spec.app == "alibaba" && spec.seed == 42) spec.seed = 2021;
  spec.distinct_priorities = args.Has("priorities");
  spec.probe_failures = args.Has("probe-failures");
  spec.replicas = args.Count("replicas", 1);
  return spec;
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
  options.port = args.Whole("serve-port", 0, 0, 65535);
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
  if (header_end == std::string::npos || response.rfind("HTTP/1.1 ", 0) != 0) return false;
  const std::optional<int> code = ParseWhole(std::string_view(response).substr(9, 3), 100, 599);
  if (!code.has_value()) return false;
  *status = *code;
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
  const std::optional<int> parsed = ParseWhole(url.substr(colon + 1), 1, 65535);
  *port = parsed.value_or(0);
  return !host->empty() && parsed.has_value();
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
  std::string error;
  const auto app = scenario::MakeApp(AppFromFlags(args), &error);
  if (!app) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return Usage();
  }
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

/// `run`: fills a scenario::ScenarioSpec from the flags that describe the
/// run, translates it with scenario::MakeScenarioRun, sets the flags that
/// say how to execute and observe it, runs it with exp::Run and prints the
/// result.
int CmdRun(const Args& args) {
  obs::ScopedTimer run_timer("cli/run");
  // Every numeric flag is read here, before the run, so a bad value exits
  // before any simulation starts.
  scenario::ScenarioSpec scenario = AppFromFlags(args);
  scenario.duration_s = args.Num("duration", 120, 0, kMaxConfigSeconds);
  scenario.static_rate = args.Num("static-rate", 0.0, 0);
  scenario.hpa = args.Has("hpa");
  scenario.Rpc(args.Num("hop-timeout", 0, 0, kMaxConfigSeconds),
               args.Whole("retries", 0, 0, kIntMax),
               args.Num("retry-backoff", 0, 0, kMaxConfigSeconds));
  // --users N (or --rps R) from t = 0; --surge T:N switches to N at T.
  scenario.open_loop = args.Has("rps");
  scenario.Phase(0, scenario.open_loop ? args.Num("rps", 1000, 0)
                                       : args.Num("users", 1000, 0));
  if (args.Has("surge")) {
    const std::string surge = args.Get("surge");
    const auto colon = surge.find(':');
    if (colon == std::string::npos) return Usage();
    scenario.Phase(FiniteOrExit("--surge", surge.substr(0, colon), 0, kMaxConfigSeconds),
                   FiniteOrExit("--surge", surge.substr(colon + 1), 0));
  }
  if (args.Has("fault-profile")) {
    std::string error;
    const auto faults = scenario::ParseFaultProfile(args.Get("fault-profile"), &error);
    if (!faults) {
      std::fprintf(stderr, "bad --fault-profile: %s\n", error.c_str());
      return 2;
    }
    scenario.faults = *faults;
  }
  scenario.fault_seed = args.Whole("fault-seed", scenario.fault_seed);
  // Unknown names are an error rather than a silently uncontrolled run.
  const std::string controller = args.Get("controller", "topfull");
  const auto variant = exp::VariantFromName(controller);
  if (!variant.has_value()) {
    std::fprintf(stderr, "unknown --controller '%s'\n", controller.c_str());
    return 2;
  }
  std::string error;
  std::optional<scenario::ScenarioRun> scenario_run =
      scenario::MakeScenarioRun(scenario, *variant, &error);
  if (!scenario_run.has_value()) {
    std::fprintf(stderr, "bad run: %s\n", error.c_str());
    return 2;
  }
  exp::RunSpec& spec = scenario_run->spec;
  if (args.Has("trace-dir")) spec.telemetry.dir = args.Get("trace-dir");
  if (args.Has("trace-sample")) {
    spec.telemetry.sample_rate = args.Num("trace-sample", 1.0);
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

  std::printf("running %s with %s for %.0f s...\n", spec.label.c_str(),
              exp::VariantName(spec.variant).c_str(), spec.duration_s);
  exp::RunResult result = exp::Run(spec);
  const sim::Application& app = result.app();

  PrintFaultLog(result.fault_log, spec.faults.size());

  Table table("per-API results (whole run)");
  table.SetHeader({"API", "avg offered", "avg goodput", "final p95 (ms)", "rate limit"});
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    std::string limit = "-";
    if (core::TopFullController* controller = result.controllers.topfull()) {
      const auto value = controller->RateLimit(a);
      limit = value ? Fmt(*value, 0) : "uncapped";
    }
    table.AddRow({app.api(a).name(),
                  Fmt(static_cast<double>(app.metrics().Totals()[a].offered) /
                          spec.duration_s, 0),
                  Fmt(app.metrics().AvgGoodput(a), 0),
                  Fmt(app.metrics().Latest().apis[a].latency_p95_ms, 0), limit});
  }
  table.Print();
  std::printf("total avg goodput: %.0f rps\n", app.metrics().AvgTotalGoodput());
  if (tsdb != nullptr) {
    std::printf("alerts: %zu rules, %zu transitions\n",
                tsdb->rules().rule_count(),
                tsdb->rules().transitions().size());
  }
  if (result.telemetry.has_value()) {
    const exp::TelemetrySummary& summary = *result.telemetry;
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
    if (exp::WriteTimelineCsv(app, path)) {
      std::printf("timeline written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

int CmdTrain(const Args& args) {
  const int episodes = args.Count("episodes", exp::PretrainEpisodes());
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
  const int port = args.Whole("port", 0, 0, 65535);
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
  if (!server.Start(port, &error)) {
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
    target += "&start=" + PercentEncode(args.Get("start")) +
              "&end=" + PercentEncode(args.Get("end")) +
              "&step=" + PercentEncode(args.Get("step"));
  } else if (args.Has("time")) {
    target += "&time=" + PercentEncode(args.Get("time"));
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
// executes the scenario x controller conformance matrix (the suite's
// scenario_matrix entry runs the same function) and exits non-zero when a
// cell does not conform.
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

  scenario::MatrixOptions options;
  if (args.Has("controllers")) {
    options.controllers.clear();
    std::stringstream stream(args.Get("controllers"));
    std::string item;
    while (std::getline(stream, item, ',')) {
      if (!item.empty()) options.controllers.push_back(item);
    }
  }
  return scenario::RunConformanceMatrix(std::move(specs), options,
                                        args.Has("smoke"), args.Get("json"));
}

int CmdCompare(const Args& args) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr, "compare needs exactly two summary files\n");
    return Usage();
  }
  obs::JsonValue docs[2];
  for (int i = 0; i < 2; ++i) {
    std::string text, error;
    if (!ReadFile(args.positional[i], &text)) {
      std::fprintf(stderr, "cannot read %s\n", args.positional[i].c_str());
      return 2;
    }
    if (!obs::ParseJson(text, &docs[i], &error)) {
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

// `bench` runs the paper-reproduction suite: one entry per figure, section
// analysis or ablation, each printing what the paper reports.
// bench/manifest.sha256 pins every entry's stdout.
int CmdBench(const Args& args) {
  const std::span<const bench::BenchEntry> suite = bench::Suite();
  if (args.Has("list")) {
    for (const bench::BenchEntry& entry : suite) {
      std::printf("%-30s %s\n", entry.name, entry.summary);
    }
    return 0;
  }
  if (args.Has("all")) {
    if (args.Has("smoke") || !args.positional.empty()) {
      std::fprintf(stderr, "bench --all takes no entry name and no --smoke\n");
      return 2;
    }
    if (exp::TelemetryOptions::FromEnv().enabled()) {
      std::fprintf(stderr,
                   "bench --all with TOPFULL_TRACE_DIR set: every entry names "
                   "its runs from 000_, so later entries would overwrite "
                   "earlier ones' artifacts; export one entry at a time\n");
      return 2;
    }
    // One entry after another; each frees its runs before the next starts.
    int rc = 0;
    for (const bench::BenchEntry& entry : suite) {
      rc = std::max(rc, entry.run({}));
      std::fflush(stdout);
    }
    return rc;
  }
  if (args.positional.size() != 1) return Usage();
  const std::string& name = args.positional.front();
  const auto entry = std::find_if(
      suite.begin(), suite.end(),
      [&name](const bench::BenchEntry& e) { return name == e.name; });
  if (entry == suite.end()) {
    std::fprintf(stderr, "unknown bench '%s' (topfull bench --list names them)\n",
                 name.c_str());
    return 2;
  }
  if (args.Has("smoke") && !entry->smoke) {
    std::fprintf(stderr, "unknown flag --smoke (bench %s has no smoke scale)\n",
                 entry->name);
    return 2;
  }
  return entry->run({.smoke = args.Has("smoke")});
}

/// A verb and the flags it reads. `scenario list` and `scenario run` are
/// separate verbs; a bare `scenario` is `scenario list`.
struct Verb {
  const char* name;
  int (*run)(const Args&);
  Flags flags;
};

std::vector<Verb> Verbs() {
  const Flags app = {{"app", "seed", "replicas"}, {"priorities", "probe-failures"}};
  const Flags run = app.With(
      {{"duration", "controller", "static-rate", "hop-timeout", "retries",
        "retry-backoff", "surge", "rps", "users", "fault-profile", "fault-seed",
        "trace-dir", "trace-sample", "alert-floor", "serve-port", "publish-ms",
        "csv"},
       {"hpa", "tsdb"}});
  const Flags scenarios = {{"profile", "scenario"}, {}};
  return {
      {"run", CmdRun, run},
      {"inspect", CmdInspect, app},
      {"train", CmdTrain, {{"episodes", "out"}, {}}},
      {"report", CmdReport, run.With({{"out"}, {}})},
      {"compare", CmdCompare, {{"rel-tol", "abs-tol"}, {}}},
      {"serve", CmdServe, {{"dir", "name", "port", "linger"}, {}}},
      {"query", CmdQuery, {{"url", "dir", "name", "time", "start", "end", "step"}, {}}},
      {"alerts", CmdAlerts, {{"url", "dir", "name"}, {}}},
      {"scenario list", CmdScenario, scenarios},
      {"scenario run", CmdScenario,
       scenarios.With({{"controllers", "json"}, {"smoke"}})},
      {"bench", CmdBench, {{}, {"list", "all", "smoke"}}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = argc >= 2 ? argv[1] : "";
  if (name == "scenario") {
    name += argc >= 3 && std::strncmp(argv[2], "--", 2) != 0
                ? std::string(" ") + argv[2]
                : std::string(" list");
  }
  const std::vector<Verb> verbs = Verbs();
  const auto verb = std::find_if(verbs.begin(), verbs.end(),
                                 [&name](const Verb& v) { return name == v.name; });
  if (verb == verbs.end()) {
    if (name.rfind("scenario ", 0) == 0) {
      std::fprintf(stderr, "unknown scenario subcommand '%s'\n", argv[2]);
    }
    return Usage();
  }
  const Args args = Parse(argc, argv, verb->flags);
  if (args.Has(kGlobalFlag)) {
    ThreadPool::SetGlobalThreads(args.Whole(kGlobalFlag, 0, 0, kIntMax));
  } else {
    ThreadPool::EnvThreads();  // junk in TOPFULL_THREADS exits 2 before any verb runs
  }
  try {
    return verb->run(args);
  } catch (const std::runtime_error& e) {
    // E.g. a model file that is present but malformed (exp::LoadOrTrainPolicy).
    std::fprintf(stderr, "topfull: %s\n", e.what());
    return 2;
  }
}
