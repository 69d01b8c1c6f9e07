// Benchmark driver: one repetition of one workload, in its own process.
//
//   perfbench_driver --workload NAME --seed N --root DIR --out-dir DIR
//                    [--traced]
//
// The driver builds the workload through the modules' public APIs (apps::
// factories, workload::TrafficDriver, core::TopFullController or
// baselines::DagorAdmission, obs:: observers, fault::FaultInjector,
// sim::ShardedApp), runs it for the workload's fixed simulated duration,
// times further set-ups, and prints one JSON line: host timings, simulated
// results, per-layer counts, output checks, and digests of the simulated
// outputs. With --traced it wraps each layer's public interface in a
// timing decorator, steps the DES one event at a time, and adds the
// per-layer ledger; the simulated outputs (and so the digests) must equal
// the untraced run's. perfbench/run.py drives it.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "baselines/dagor.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "des/simulation.hpp"
#include "fault/fault.hpp"
#include "ledger.hpp"
#include "obs/decision_log.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/rules.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb_plane.hpp"
#include "rl/policy.hpp"
#include "sim/app.hpp"
#include "sim/sharded_app.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using namespace topfull;

// --- Workloads ---------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  double duration_s;  ///< simulated run length
  double warmup_s;    ///< windows closing at or before this are not measured
};

// Durations keep one repetition at a few host seconds, so run.py fits
// several repetitions (and their pooled >= 100 measured windows) into one
// benchmark run.
constexpr WorkloadDef kWorkloads[] = {
    {"alibaba_closed", 60.0, 20.0},
    {"boutique_observed", 120.0, 20.0},
    {"trainticket_dagor_retry", 90.0, 10.0},
    {"alibaba_sharded", 40.0, 10.0},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The inputs generated from the benchmark seed. The program sees only
/// these, through the apps' and injector's public options.
struct Seeds {
  std::uint64_t app = 0;       ///< service-time and gateway streams
  std::uint64_t workload = 0;  ///< Alibaba gateway/traffic stream
  std::uint64_t fault = 0;     ///< fault injector stream
};

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Seeds DeriveSeeds(std::uint64_t seed) {
  return {SplitMix(seed ^ 0xA99ULL), SplitMix(seed ^ 0x3012ULL),
          SplitMix(seed ^ 0xFA17ULL)};
}

/// The canonical Alibaba topology (ROADMAP's canonical run). The seed of
/// the benchmark varies the traffic through the gateway stream instead, so
/// every seed runs the same 127-service graph.
constexpr std::uint64_t kAlibabaTopologySeed = 2021;

// --- One set-up of a workload --------------------------------------------------

/// The benchmark-owned control loop: exactly what TopFullController::Start
/// schedules (a periodic Tick at Now()+period), so the tick can be timed.
struct TickLoop {
  core::TopFullController* controller = nullptr;
  SpanRecorder* rec = nullptr;
  std::uint64_t ticks = 0;
  std::uint64_t clusters = 0;

  void Fire() {
    if (rec != nullptr) {
      rec->MarkEvent(EventKind::kTick);
      rec->Begin(Span::kTick);
    }
    controller->Tick();
    ++ticks;
    clusters += controller->LastClusters().size();
    if (rec != nullptr) rec->End();
  }
};

/// Everything attached to one Application (the sharded workload has one
/// replica per shard).
struct Replica {
  sim::Application* app = nullptr;
  std::unique_ptr<SpanRecorder> rec;  ///< traced run only
  std::uint64_t rl_calls = 0;
  std::unique_ptr<obs::RequestTracer> tracer;
  std::unique_ptr<obs::DecisionLog> decision_log;
  std::unique_ptr<obs::SloMonitor> monitor;
  std::unique_ptr<obs::TsdbPlane> tsdb;
  std::unique_ptr<BenchWindowObserver> window;
  std::unique_ptr<core::TopFullController> topfull;
  std::unique_ptr<TickLoop> tick;
  std::unique_ptr<baselines::DagorAdmission> dagor;
  std::unique_ptr<workload::TrafficDriver> traffic;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<TimedEntryAdmission> timed_entry;
  std::unique_ptr<TimedServiceAdmission> timed_hop;
  std::unique_ptr<TimedRequestObserver> timed_tracer;
  std::unique_ptr<TimedDecisionObserver> timed_decisions;
};

struct Bench {
  std::unique_ptr<sim::Application> app;     ///< unsharded workloads
  std::unique_ptr<sim::ShardedApp> sharded;  ///< alibaba_sharded
  std::unique_ptr<rl::GaussianPolicy> policy;
  std::vector<std::unique_ptr<Replica>> replicas;
  double build_s = 0.0;
  double policy_load_s = 0.0;
  bool stop = false;  ///< set by the traced run's end-of-run sentinel
};

double NsToS(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Peak resident memory of this process image. VmHWM starts afresh at
/// exec, unlike getrusage's ru_maxrss, which keeps the launching process's
/// peak; ru_maxrss is the fallback where /proc is missing.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Attaches the TopFull controller with the RL policy. The controller
/// installs itself as the entry admission hook; the traced run puts the
/// timing decorators in front of it.
void AttachTopFull(Bench& bench, Replica& r) {
  std::unique_ptr<core::RateController> prototype =
      std::make_unique<core::RlRateController>(bench.policy.get());
  if (r.rec) {
    prototype = std::make_unique<TimedRateController>(std::move(prototype),
                                                      r.rec.get(), &r.rl_calls);
  }
  r.topfull = std::make_unique<core::TopFullController>(r.app, std::move(prototype));
  r.tick = std::make_unique<TickLoop>();
  r.tick->controller = r.topfull.get();
  r.tick->rec = r.rec.get();
  const SimTime period = r.topfull->config().period;
  r.app->sim().SchedulePeriodic(r.app->sim().Now() + period, period,
                                [t = r.tick.get()]() { t->Fire(); });
  if (r.decision_log) r.topfull->SetDecisionObserver(r.decision_log.get());
  if (r.rec) {
    r.timed_entry = std::make_unique<TimedEntryAdmission>(r.topfull.get(), r.rec.get());
    r.app->SetEntryAdmission(r.timed_entry.get());
    r.timed_decisions =
        std::make_unique<TimedDecisionObserver>(r.decision_log.get(), r.rec.get());
    r.topfull->SetDecisionObserver(r.timed_decisions.get());
  }
}

std::unique_ptr<Replica> NewReplica(sim::Application* app, bool traced) {
  auto r = std::make_unique<Replica>();
  r->app = app;
  if (traced) r->rec = std::make_unique<SpanRecorder>();
  return r;
}

workload::ClosedLoopConfig UniformUsers(const sim::Application& app) {
  workload::ClosedLoopConfig config;  // 1 s think +-10 %, 5 s client timeout
  config.mix.weights.assign(static_cast<std::size_t>(app.NumApis()), 1.0);
  return config;
}

void AddOpenLoop(Replica& r, double total_rps) {
  r.traffic = std::make_unique<workload::TrafficDriver>(r.app);
  const double per_api = total_rps / r.app->NumApis();
  for (sim::ApiId a = 0; a < r.app->NumApis(); ++a) {
    r.traffic->AddOpenLoop(a, workload::Schedule::Constant(per_api));
  }
}

/// Builds, attaches and installs one workload. Set-up order follows the
/// repository's run path: observers, controller, traffic, faults.
std::unique_ptr<Bench> Setup(const WorkloadDef& def, const Seeds& seeds,
                             const std::string& root, bool traced) {
  auto bench = std::make_unique<Bench>();
  const std::string name = def.name;

  std::int64_t t = NowNs();
  if (name == "alibaba_closed") {
    apps::AlibabaDemoOptions options;
    options.seed = kAlibabaTopologySeed;
    bench->app = apps::MakeAlibabaDemo(options).app;
    bench->app->rng() = Rng(seeds.workload);
  } else if (name == "boutique_observed") {
    apps::BoutiqueOptions options;
    options.seed = seeds.app;
    bench->app = apps::MakeOnlineBoutique(options);
  } else if (name == "trainticket_dagor_retry") {
    apps::TrainTicketOptions options;
    options.seed = seeds.app;
    bench->app = apps::MakeTrainTicket(options);
  } else {
    sim::ShardedApp::Options options;
    options.shards = 2;
    options.net_latency = Millis(1);
    const std::uint64_t workload_seed = seeds.workload;
    bench->sharded = std::make_unique<sim::ShardedApp>(
        [workload_seed]() {
          apps::AlibabaDemoOptions demo;
          demo.seed = kAlibabaTopologySeed;
          demo.replicas = 2;
          std::unique_ptr<sim::Application> app = apps::MakeAlibabaDemo(demo).app;
          app->rng() = Rng(workload_seed);
          return app;
        },
        options);
  }
  bench->build_s = NsToS(NowNs() - t);

  if (name != "trainticket_dagor_retry") {
    t = NowNs();
    Rng init(1);
    bench->policy = std::make_unique<rl::GaussianPolicy>(rl::PolicyConfig{}, init);
    const std::string path = root + "/models/base_policy.txt";
    if (!bench->policy->LoadFile(path)) {
      std::fprintf(stderr, "perfbench: cannot load %s\n", path.c_str());
      return nullptr;
    }
    bench->policy_load_s = NsToS(NowNs() - t);
  }

  if (name == "alibaba_closed") {
    Replica& r = *bench->replicas.emplace_back(NewReplica(bench->app.get(), traced));
    r.window = std::make_unique<BenchWindowObserver>(r.app, r.rec.get());
    AttachTopFull(*bench, r);
    r.traffic = std::make_unique<workload::TrafficDriver>(r.app);
    r.traffic->AddClosedLoop(UniformUsers(*r.app), workload::Schedule::Constant(20000));
  } else if (name == "boutique_observed") {
    Replica& r = *bench->replicas.emplace_back(NewReplica(bench->app.get(), traced));
    obs::TraceConfig trace;
    trace.sample_rate = 0.05;
    r.tracer = std::make_unique<obs::RequestTracer>(trace);
    r.app->SetObserver(r.tracer.get());
    if (r.rec) {
      r.timed_tracer = std::make_unique<TimedRequestObserver>(r.tracer.get(), r.rec.get());
      r.app->SetObserver(r.timed_tracer.get());
    }
    r.monitor = obs::SloMonitor::ForApp(*r.app);
    r.decision_log = std::make_unique<obs::DecisionLog>();
    r.monitor->SetDecisionLog(r.decision_log.get());
    r.tsdb = std::make_unique<obs::TsdbPlane>();
    for (obs::AlertRule& rule : obs::SloBurnRules()) r.tsdb->rules().AddAlert(std::move(rule));
    r.tsdb->Attach(*r.app);
    r.window = std::make_unique<BenchWindowObserver>(r.app, r.rec.get());
    AttachTopFull(*bench, r);
    AddOpenLoop(r, 3000.0);
  } else if (name == "trainticket_dagor_retry") {
    Replica& r = *bench->replicas.emplace_back(NewReplica(bench->app.get(), traced));
    r.app->ConfigureRpc(Millis(500), 2, Millis(50));
    r.window = std::make_unique<BenchWindowObserver>(r.app, r.rec.get());
    r.dagor = std::make_unique<baselines::DagorAdmission>(r.app);
    r.dagor->Install();
    if (r.rec) {
      r.timed_hop = std::make_unique<TimedServiceAdmission>(r.dagor.get(), r.rec.get());
      for (int s = 0; s < r.app->NumServices(); ++s) {
        r.app->service(s).SetAdmission(r.timed_hop.get());
      }
    }
    AddOpenLoop(r, 2000.0);
    fault::FaultSchedule faults;
    faults.CrashPods("ts-station", topfull::Seconds(20), 30, topfull::Seconds(20));
    r.injector = std::make_unique<fault::FaultInjector>(r.app, faults, seeds.fault);
    r.injector->Arm();
  } else {
    sim::ShardedApp& sharded = *bench->sharded;
    for (int i = 0; i < sharded.num_shards(); ++i) {
      Replica& r = *bench->replicas.emplace_back(NewReplica(&sharded.app(i), traced));
      r.window = std::make_unique<BenchWindowObserver>(r.app, r.rec.get());
      AttachTopFull(*bench, r);
      r.traffic = std::make_unique<workload::TrafficDriver>(r.app);
      r.traffic->SetShardScope(
          workload::TrafficDriver::ShardScope{&sharded.plan().api_origin, i});
      r.traffic->AddClosedLoop(UniformUsers(*r.app), workload::Schedule::Constant(40000));
    }
  }
  return bench;
}

// --- Outputs -------------------------------------------------------------------

/// FNV-1a over the bytes of every simulated output.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void DigestTimeline(Digest& d, const std::vector<sim::Snapshot>& timeline) {
  for (const sim::Snapshot& s : timeline) {
    d.Value(s.t_end_s);
    for (const sim::ApiWindow& a : s.apis) {
      d.Value(a.offered);
      d.Value(a.admitted);
      d.Value(a.rejected_entry);
      d.Value(a.rejected_service);
      d.Value(a.completed);
      d.Value(a.good);
      d.Value(a.latency_p50_ms);
      d.Value(a.latency_p95_ms);
      d.Value(a.latency_p99_ms);
      d.Value(a.latency_mean_ms);
    }
    for (const sim::ServiceWindow& v : s.services) {
      d.Value(v.cpu_utilization);
      d.Value(v.avg_queue_delay_s);
      d.Value(v.max_queue_delay_s);
      d.Value(v.running_pods);
      d.Value(v.outstanding);
    }
  }
}

/// Minimal JSON object writer (one line, numbers with all their digits).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Str(const std::string& key, const std::string& v) { return Raw(key, Quote(v)); }
  Json& Nums(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    char buf[40];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", vs[i]);
      out += (i ? "," : "") + std::string(buf);
    }
    return Raw(key, out + "]");
  }
  Json& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return quoted + "\"";
  }

 private:
  std::string body_;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median of (value, weight) pairs: the smallest value at which the
/// cumulative weight reaches half the total.
double WeightedMedian(std::vector<std::pair<double, double>> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double total = 0.0;
  for (const auto& [value, weight] : v) total += weight;
  double acc = 0.0;
  for (const auto& [value, weight] : v) {
    acc += weight;
    if (acc >= 0.5 * total) return value;
  }
  return v.back().first;
}

std::vector<double> ToDoubles(const std::vector<std::int64_t>& ns, double scale) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const std::int64_t v : ns) out.push_back(static_cast<double>(v) * scale);
  return out;
}

/// Hold model: a fresh engine holding `n` self-rescheduling no-op timers
/// (exponential increments, mean 1 s, like think timers). Returns host ns
/// per ScheduleAt + Step at that queue depth.
double HoldProbeNs(std::size_t n, std::uint64_t seed) {
  struct Ctx {
    des::Simulation sim;
    Rng rng;
    void Arm() {
      sim.ScheduleAt(sim.Now() + std::max<SimTime>(1, topfull::Seconds(rng.Exponential(1.0))),
                     [this]() { Arm(); });
    }
  };
  Ctx ctx{des::Simulation{}, Rng(seed)};
  n = std::max<std::size_t>(n, 1);
  for (std::size_t i = 0; i < n; ++i) ctx.Arm();
  for (std::size_t i = 0; i < n; ++i) ctx.sim.Step();  // warm the slots
  const std::size_t ops = std::max<std::size_t>(1'000'000, 4 * n);
  const std::int64_t t0 = NowNs();
  for (std::size_t i = 0; i < ops; ++i) ctx.sim.Step();
  return static_cast<double>(NowNs() - t0) / static_cast<double>(ops);
}

struct ExportResult {
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  std::vector<std::string> paths;
};

/// End of an observed run: the last rule evaluations, then every artifact
/// the observability layer writes (the set the repository's telemetry
/// export produces). The files depend on simulated state only, so the
/// caller folds their contents into the digest.
ExportResult Export(Replica& r, const std::string& dir, double end_s,
                    std::vector<std::string>& errors) {
  ExportResult out;
  const std::int64_t t0 = NowNs();
  if (r.rec) r.rec->BeginAt(Span::kExport, t0);
  r.tsdb->FinishRules(end_s);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string base = dir + "/run";
  const std::vector<obs::SloEvent>* events = &r.monitor->events();
  const std::vector<std::string> paths = {
      base + ".trace.json",   base + ".decisions.jsonl", base + ".metrics.prom",
      base + ".tsdb.json",    base + ".alerts.json",     base + ".summary.json",
      base + ".report.html"};
  bool ok = obs::WritePerfettoTrace(*r.tracer, *r.app, paths[0], nullptr, events);
  ok = obs::WriteDecisionLogJsonl(*r.decision_log, *r.app, paths[1], events,
                                  &r.tsdb->rules().transitions()) && ok;
  ok = obs::WritePrometheusText(*r.app, r.tracer.get(), paths[2]) && ok;
  ok = obs::WriteTsdbJson(r.tsdb->tsdb(), paths[3]) && ok;
  ok = obs::WriteAlertsJson(r.tsdb->rules(), paths[4]) && ok;
  obs::ReportInputs inputs;
  inputs.app = r.app;
  inputs.label = "run";
  inputs.controller = r.topfull.get();
  inputs.monitor = r.monitor.get();
  inputs.decisions = r.decision_log.get();
  ok = obs::WriteRunSummaryJson(inputs, paths[5]) && ok;
  ok = obs::WriteHtmlReport(inputs, paths[6]) && ok;
  const std::int64_t t1 = NowNs();
  if (r.rec) r.rec->EndAt(t1);
  out.seconds = NsToS(t1 - t0);
  out.paths = paths;
  if (!ok) errors.push_back("export: a writer failed");
  return out;
}

/// Per-replica conservation: every offered request was admitted or refused
/// at the entry, and every admitted one completed, failed, or is in flight.
void CheckConservation(const sim::Application& app, std::vector<std::string>& errors) {
  std::uint64_t admitted = 0, settled = 0;
  const auto& totals = app.metrics().Totals();
  for (std::size_t a = 0; a < totals.size(); ++a) {
    const sim::ApiTotals& t = totals[a];
    if (t.offered != t.admitted + t.rejected_entry) {
      errors.push_back(app.name() + ": api " + std::to_string(a) +
                       " offered != admitted + entry-refused");
    }
    admitted += t.admitted;
    settled += t.completed + t.rejected_service;
  }
  if (admitted != settled + static_cast<std::uint64_t>(app.Inflight())) {
    errors.push_back(app.name() + ": admitted != completed + failed + in-flight");
  }
}

int Run(const std::string& workload, std::uint64_t seed, const std::string& root,
        const std::string& out_dir, bool traced) {
  const WorkloadDef* def = FindWorkload(workload);
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  const Seeds seeds = DeriveSeeds(seed);

  // The first set-up is the one that runs. More set-ups follow the run
  // (so they cannot inflate its peak memory) until there are at least
  // kMinSetups of them and they took at least kSetupBudgetS; setup_s is
  // their median, so cheap set-ups rest on enough samples to be steady.
  constexpr int kMinSetups = 5;
  constexpr double kSetupBudgetS = 0.2;
  constexpr int kMaxSetups = 200;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  const auto timed_setup = [&]() {
    const std::int64_t t0 = NowNs();
    std::unique_ptr<Bench> b = Setup(*def, seeds, root, traced);
    setup_s.push_back(NsToS(NowNs() - t0));
    setup_total_s += setup_s.back();
    return b;
  };
  std::unique_ptr<Bench> bench = timed_setup();
  if (!bench) return 2;
  const SimTime end = topfull::Seconds(def->duration_s);
  Replica& r0 = *bench->replicas[0];
  if (!bench->sharded) {
    // End-of-run sentinel: the first event at the end time, so the traced
    // step loop stops exactly where RunUntil(end) would stop after the
    // events at `end`. It shifts later sequence numbers by one, which keeps
    // every other event's order; the untraced run schedules it too, so both
    // runs hold the same events and their outputs can be compared byte for
    // byte.
    bench->app->sim().ScheduleAt(end, [b = bench.get()]() { b->stop = true; });
  }

  // The ledger covers the run only.
  for (const auto& r : bench->replicas) {
    if (r->rec) r->rec->Clear();
  }
  std::vector<std::string> errors;
  ExportResult exported;
  const double cpu0 = CpuSeconds();
  const std::int64_t t0 = NowNs();
  if (bench->sharded) {
    bench->sharded->RunUntil(end);
  } else if (!traced) {
    bench->app->RunUntil(end);
  } else {
    SpanRecorder& rec = *r0.rec;
    des::Simulation& sim = bench->app->sim();
    std::int64_t ts = t0;
    while (!bench->stop) {
      rec.BeginAt(Span::kEvent, ts);
      const bool stepped = sim.Step();
      ts = NowNs();
      rec.EndAt(ts);
      if (!stepped) break;
    }
    rec.BeginAt(Span::kTail, ts);
    bench->app->RunUntil(end);
    rec.End();
  }
  if (r0.tracer) exported = Export(r0, out_dir, ToSeconds(end), errors);
  const std::int64_t t1 = NowNs();
  const double cpu1 = CpuSeconds();
  // The exported files hold engine-state gauges (queue depth, slot counts)
  // that an engine change may legitimately move, so they get a digest of
  // their own: it must match between the traced and untraced runs of one
  // build, while the timeline digest must also match across builds.
  Digest artifacts;
  for (const std::string& path : exported.paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    const std::string bytes = content.str();
    exported.bytes += bytes.size();
    artifacts.Bytes(bytes.data(), bytes.size());
  }

  // --- Simulated outputs ------------------------------------------------------
  std::vector<const sim::Application*> apps;
  for (const auto& r : bench->replicas) apps.push_back(r->app);
  const std::vector<sim::Snapshot> timeline =
      bench->sharded ? bench->sharded->MergedTimeline() : bench->app->metrics().Timeline();
  const std::vector<sim::ApiTotals> totals =
      bench->sharded ? bench->sharded->MergedTotals() : bench->app->metrics().Totals();
  Digest digest;
  DigestTimeline(digest, timeline);
  std::uint64_t offered = 0, failed = 0, good_total = 0;
  for (const sim::ApiTotals& t : totals) {
    digest.Value(t);
    offered += t.offered;
    failed += t.rejected_entry + t.rejected_service;
    good_total += t.good;
  }
  double w_offered = 0.0, w_good = 0.0;
  int windows = 0;
  for (const sim::Snapshot& s : timeline) {
    if (s.t_end_s <= def->warmup_s + 1e-9) continue;
    ++windows;
    for (const sim::ApiWindow& a : s.apis) {
      w_offered += static_cast<double>(a.offered);
      w_good += static_cast<double>(a.good);
    }
  }
  const double window_s = ToSeconds(apps[0]->config().metrics_period);
  const double goodput = windows > 0 ? w_good / (windows * window_s) : 0.0;
  const double slo_miss = w_offered > 0 ? std::max(0.0, w_offered - w_good) / w_offered : 0.0;

  // Latency of completed requests, from the per-window, per-API
  // percentiles the collector computes exactly: for each API the median of
  // its windows' percentiles (weighted by their completions, so a few
  // windows of a transient queue build-up do not swing it), then the mean
  // over APIs weighted by their completions.
  const std::size_t num_apis = timeline.empty() ? 0 : timeline.front().apis.size();
  std::vector<std::vector<std::pair<double, double>>> p50s(num_apis), p99s(num_apis);
  for (const sim::Snapshot& s : timeline) {
    if (s.t_end_s <= def->warmup_s + 1e-9) continue;
    for (std::size_t a = 0; a < s.apis.size() && a < num_apis; ++a) {
      const sim::ApiWindow& w = s.apis[a];
      if (w.completed == 0) continue;
      p50s[a].emplace_back(w.latency_p50_ms, static_cast<double>(w.completed));
      p99s[a].emplace_back(w.latency_p99_ms, static_cast<double>(w.completed));
    }
  }
  double lat_weight = 0.0, p50_sum = 0.0, p99_sum = 0.0;
  for (std::size_t a = 0; a < num_apis; ++a) {
    double completed = 0.0;
    for (const auto& [value, weight] : p50s[a]) completed += weight;
    lat_weight += completed;
    p50_sum += completed * WeightedMedian(p50s[a]);
    p99_sum += completed * WeightedMedian(p99s[a]);
  }
  const double p50 = lat_weight > 0 ? p50_sum / lat_weight : 0.0;
  const double p99 = lat_weight > 0 ? p99_sum / lat_weight : 0.0;
  digest.Value(p50);
  digest.Value(p99);

  // --- Checks ------------------------------------------------------------------
  for (const sim::Application* app : apps) CheckConservation(*app, errors);
  if (r0.tracer && r0.tracer->counters().offered != offered) {
    errors.push_back("tracer OnOffered count != collector offered");
  }
  if (r0.injector && r0.injector->InjectionCount() == 0) {
    errors.push_back("fault schedule injected nothing");
  }
  if (windows * window_s + def->warmup_s + 1e-9 < def->duration_s) {
    errors.push_back("timeline is missing windows");
  }

  // --- Per-layer counts (public accessors) -------------------------------------
  std::uint64_t events = 0, scheduled = 0, cancelled = 0, slots = 0;
  std::uint64_t hop_attempts = 0, retries = 0, hop_timeouts = 0, attempt_capacity = 0;
  std::uint64_t users = 0, ticks = 0, clusters = 0, decisions = 0, rl_calls = 0;
  std::uint64_t entry_calls = 0, entry_rejects = 0, hop_calls = 0, hop_rejects = 0;
  std::uint64_t rate_changes = 0;
  for (const auto& r : bench->replicas) {
    const des::Simulation& sim = r->app->sim();
    events += sim.EventsProcessed();
    scheduled += sim.EventsScheduled();
    cancelled += sim.EventsCancelled();
    slots += sim.SlotCapacity();
    hop_attempts += r->app->HopAttempts();
    retries += r->app->Retries();
    hop_timeouts += r->app->HopTimeouts();
    attempt_capacity += r->app->Arena().attempt_capacity;
    if (r->traffic) {
      for (const auto& pool : r->traffic->pools()) users += pool->LiveUsers();
    }
    if (r->tick) {
      ticks += r->tick->ticks;
      clusters += r->tick->clusters;
      decisions += r->topfull->Decisions();
      for (const sim::ApiTotals& t : r->app->metrics().Totals()) {
        entry_calls += t.offered;
        entry_rejects += t.rejected_entry;
      }
    }
    rl_calls += r->rl_calls;
    if (r->timed_hop) {
      hop_calls += r->timed_hop->calls;
      hop_rejects += r->timed_hop->rejects;
    }
    if (r->timed_decisions) rate_changes += r->timed_decisions->rate_changes;
  }
  std::vector<double> pending;
  std::vector<double> window_ms;
  {
    const BenchWindowObserver& w = *r0.window;
    for (std::size_t i = 0; i < w.close_t_s.size(); ++i) {
      if (w.close_t_s[i] <= def->warmup_s + 1e-9) continue;
      pending.push_back(static_cast<double>(w.pending[i]));
      if (i > 0) {
        window_ms.push_back(static_cast<double>(w.close_ns[i] - w.close_ns[i - 1]) * 1e-6 /
                            (w.close_t_s[i] - w.close_t_s[i - 1]));
      }
    }
  }
  const double run_wall_s = NsToS(t1 - t0);
  const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  Json counts;
  counts.Int("des.events", events)
      .Int("des.events_scheduled", scheduled)
      .Int("des.events_cancelled", cancelled)
      .Int("des.timer_slots", slots)
      .Num("des.pending_p50", Quantile(pending, 0.5))
      .Num("des.host_ns_per_event", frac(run_wall_s * 1e9, static_cast<double>(events)))
      .Int("sim.hop_attempts", hop_attempts)
      .Int("sim.retries", retries)
      .Int("sim.hop_timeouts", hop_timeouts)
      .Int("sim.arena_attempt_capacity", attempt_capacity)
      .Num("sim.good_per_hop", frac(static_cast<double>(good_total),
                                    static_cast<double>(hop_attempts)))
      .Int("workload.offered", offered)
      .Int("workload.users", users)
      .Int("admit.entry_calls", entry_calls)
      .Num("admit.entry_reject_frac", frac(static_cast<double>(entry_rejects),
                                           static_cast<double>(entry_calls)))
      .Int("core.ticks", ticks)
      .Num("core.clusters_per_tick", frac(static_cast<double>(clusters),
                                          static_cast<double>(ticks)))
      .Int("core.decisions", decisions)
      .Int("fault.injected", r0.injector ? r0.injector->InjectionCount() : 0)
      .Int("obs.spans_sampled", r0.tracer ? r0.tracer->counters().sampled : 0)
      .Int("obs.export_bytes", exported.bytes);
  if (bench->sharded) {
    const des::ShardedSimulation& engine = bench->sharded->engine();
    double busy = 0, blocked = 0, busy_max = 0;
    for (const auto& s : engine.Stats()) {
      busy += s.busy_s;
      blocked += s.blocked_s;
      busy_max = std::max(busy_max, s.busy_s);
    }
    const double busy_mean = busy / static_cast<double>(engine.Stats().size());
    counts.Num("des.shard.rounds_per_sim_s",
               static_cast<double>(engine.Rounds()) / def->duration_s)
        .Num("des.shard.blocked_frac", frac(blocked, busy + blocked))
        .Num("des.shard.busy_imbalance", frac(busy_max, busy_mean))
        .Int("des.shard.messages", engine.TotalMessages());
  } else {
    counts.Num("des.shard.rounds_per_sim_s", 0).Num("des.shard.blocked_frac", 0)
        .Num("des.shard.busy_imbalance", 0).Int("des.shard.messages", 0);
  }

  // --- Ledger (traced run) -------------------------------------------------------
  Json ledger;
  if (traced) {
    const SpanRecorder& rec = *r0.rec;
    const double wall_ns = static_cast<double>(t1 - t0);
    const auto self = [&rec](Span s) { return static_cast<double>(rec.totals(s).self_ns); };
    const auto total = [&rec](Span s) { return static_cast<double>(rec.totals(s).total_ns); };
    const auto mean_ns = [&rec](Span s) {
      const SpanTotals& t = rec.totals(s);
      return t.count ? static_cast<double>(t.total_ns) / static_cast<double>(t.count) : 0.0;
    };
    std::map<std::string, double> layer;  // self ns on this thread
    const double roots = total(Span::kTick) + total(Span::kAdmitEntry) +
                         total(Span::kAdmitHop) + total(Span::kWindowObserver);
    if (bench->sharded) {
      // Shard 0 runs on this thread. Its busy time holds its events (with
      // the decorated calls inside); the rest of the wall is the window
      // protocol: barrier waits (measured as blocked time) plus the
      // per-round hand-off and round bookkeeping around them.
      const auto& stats = bench->sharded->engine().Stats()[0];
      layer["des_sim"] = stats.busy_s * 1e9 - roots;
      layer["shard_sync"] = wall_ns - stats.busy_s * 1e9;
      layer["sim_window_close"] = 0;  // not separable without stepping
      ledger.Num("des.shard.barrier_frac", frac(stats.blocked_s * 1e9, wall_ns));
    } else {
      layer["des_sim"] = static_cast<double>(rec.event_totals(EventKind::kOrdinary).self_ns +
                                             rec.event_totals(EventKind::kTick).self_ns) +
                         self(Span::kTail);
      layer["sim_window_close"] =
          static_cast<double>(rec.event_totals(EventKind::kWindowClose).self_ns);
      layer["shard_sync"] = 0;
      ledger.Num("des.shard.barrier_frac", 0);
    }
    layer["admit"] = self(Span::kAdmitEntry) + self(Span::kAdmitHop);
    layer["core"] = self(Span::kTick);
    layer["rl"] = self(Span::kRlDecide);
    layer["obs"] = self(Span::kTracerHook) + self(Span::kDecisionHook) +
                   self(Span::kWindowObserver) + self(Span::kExport);
    double covered = 0;
    for (const auto& [name, ns] : layer) {
      covered += ns;
      ledger.Num("self_frac." + name, frac(ns, wall_ns));
    }
    ledger.Num("ledger.coverage", frac(covered, wall_ns));
    ledger.Num("traced_wall_s", wall_ns * 1e-9);

    // Self time already excludes the admission and tracer child spans.
    const SpanTotals& ordinary = rec.event_totals(EventKind::kOrdinary);
    ledger.Num("sim.event_self_ns",
               frac(static_cast<double>(ordinary.self_ns), static_cast<double>(ordinary.count)));
    ledger.Num("sim.window_close_ms",
               Quantile(ToDoubles(rec.window_close_self(), 1e-6), 0.5));
    ledger.Num("admit.entry_ns", mean_ns(Span::kAdmitEntry));
    ledger.Num("admit.hop_ns", mean_ns(Span::kAdmitHop));
    ledger.Int("admit.hop_calls", hop_calls);
    ledger.Num("admit.hop_reject_frac", frac(static_cast<double>(hop_rejects),
                                             static_cast<double>(hop_calls)));
    const std::vector<double> tick_ms = ToDoubles(rec.Durations(Span::kTick), 1e-6);
    ledger.Num("core.tick_ms_p50", Quantile(tick_ms, 0.5));
    ledger.Num("core.tick_ms_p90", Quantile(tick_ms, 0.9));
    ledger.Num("core.tick_share", frac(total(Span::kTick), wall_ns));
    ledger.Num("core.detect_cluster_ms_p50",
               r0.timed_decisions
                   ? Quantile(ToDoubles(r0.timed_decisions->detect_cluster_ns, 1e-6), 0.5)
                   : 0.0);
    ledger.Int("core.rate_changes", rate_changes);
    ledger.Int("rl.decide_calls", rl_calls);
    ledger.Num("rl.decide_us_p50",
               Quantile(ToDoubles(rec.Durations(Span::kRlDecide), 1e-3), 0.5));
    ledger.Num("obs.window_observer_ms_p50",
               Quantile(ToDoubles(rec.Durations(Span::kWindowObserver), 1e-6), 0.5));
    ledger.Num("obs.tracer_hook_ns", mean_ns(Span::kTracerHook));
    ledger.Num("obs.decision_log_us",
               ticks ? total(Span::kDecisionHook) * 1e-3 / static_cast<double>(ticks) : 0.0);
    ledger.Num("obs.export_s", exported.seconds);
    const double hold = HoldProbeNs(static_cast<std::size_t>(Quantile(pending, 0.5)),
                                    seeds.workload);
    ledger.Num("des.hold_ns", hold);

    // Spans stay in memory during the run and are written here, at the end.
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    for (std::size_t i = 0; i < bench->replicas.size(); ++i) {
      const SpanRecorder& sr = *bench->replicas[i]->rec;
      std::ofstream out(out_dir + "/spans.shard" + std::to_string(i) + ".jsonl");
      for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
        const SpanTotals& t = sr.totals(static_cast<Span>(s));
        out << "{\"totals\":\"" << SpanName(static_cast<Span>(s)) << "\",\"count\":"
            << t.count << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns
            << "}\n";
      }
      for (const SpanRecord& sp : sr.records()) {
        out << "{\"span\":\"" << SpanName(sp.name) << "\",\"start_ns\":" << sp.start_ns - t0
            << ",\"end_ns\":" << sp.end_ns - t0 << ",\"self_ns\":" << sp.self_ns
            << ",\"parent\":" << sp.parent << "}\n";
      }
    }
  }

  const double peak_rss_mb = PeakRssMb();
  const double build_s = bench->build_s;
  const double policy_load_s = bench->policy_load_s;
  bench.reset();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total_s < kSetupBudgetS && static_cast<int>(setup_s.size()) < kMaxSetups)) {
    if (!timed_setup()) return 2;
  }

  std::string error_list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    error_list += (i ? "," : "") + Json::Quote(errors[i]);
  }
  error_list += "]";

  Json result;
  result.Str("workload", def->name)
      .Int("seed", seed)
      .Bool("traced", traced)
      .Num("setup_s", Quantile(setup_s, 0.5))
      .Nums("setup_samples_s", setup_s)
      .Num("apps.build_s", build_s)
      .Num("exp.policy_load_s", policy_load_s)
      .Num("run_wall_s", run_wall_s)
      .Num("run_cpu_s", cpu1 - cpu0)
      .Nums("window_ms", window_ms)
      .Num("peak_rss_mb", peak_rss_mb)
      .Num("goodput_rps", goodput)
      .Num("slo_miss_frac", slo_miss)
      .Num("latency_p50_ms", p50)
      .Num("latency_p99_ms", p99)
      .Int("requests_offered", offered)
      .Int("requests_failed", failed)
      .Str("timeline_digest", digest.Hex())
      .Str("artifacts_digest", artifacts.Hex())
      .Raw("errors", error_list)
      .Raw("counts", counts.str());
  if (traced) result.Raw("ledger", ledger.str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, root = ".", out_dir = ".";
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      errno = 0;
      seed = std::strtoull(argv[++i], &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0') {
        std::fprintf(stderr, "perfbench: bad --seed\n");
        return 2;
      }
    } else if (arg == "--root" && has_value) {
      root = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  return perfbench::Run(workload, seed, root, out_dir, traced);
}
