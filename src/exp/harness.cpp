#include "exp/harness.hpp"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/parse.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull::exp {

std::string VariantName(Variant variant) {
  switch (variant) {
    case Variant::kNoControl: return "no-control";
    case Variant::kTopFull: return "TopFull";
    case Variant::kTopFullMimd: return "TopFull(MIMD)";
    case Variant::kTopFullNoCluster: return "TopFull(w/o cluster)";
    case Variant::kTopFullBw: return "TopFull(BW)";
    case Variant::kDagor: return "DAGOR";
    case Variant::kBreakwater: return "Breakwater";
    case Variant::kWisp: return "WISP";
    case Variant::kStaticLimit: return "static";
  }
  return "unknown";
}

std::optional<Variant> VariantFromName(const std::string& name) {
  if (name == "topfull" || name == "TopFull") return Variant::kTopFull;
  if (name == "mimd" || name == "topfull-mimd" || name == "TopFull(MIMD)") {
    return Variant::kTopFullMimd;
  }
  if (name == "topfull-nocluster" || name == "TopFull(w/o cluster)") {
    return Variant::kTopFullNoCluster;
  }
  if (name == "topfull-bw" || name == "TopFull(BW)") return Variant::kTopFullBw;
  if (name == "dagor" || name == "DAGOR") return Variant::kDagor;
  if (name == "breakwater" || name == "Breakwater") return Variant::kBreakwater;
  if (name == "wisp" || name == "WISP") return Variant::kWisp;
  if (name == "static") return Variant::kStaticLimit;
  if (name == "none" || name == "no-control") return Variant::kNoControl;
  return std::nullopt;
}

bool VariantNeedsPolicy(Variant variant) {
  return variant == Variant::kTopFull || variant == Variant::kTopFullNoCluster;
}

void Controllers::Attach(Variant variant, sim::Application& app,
                         const rl::GaussianPolicy* policy,
                         core::TopFullConfig config, double static_rate) {
  switch (variant) {
    case Variant::kNoControl:
      break;
    case Variant::kTopFull: {
      assert(policy != nullptr);
      topfull_ = std::make_unique<core::TopFullController>(
          &app, std::make_unique<core::RlRateController>(policy), config);
      topfull_->Start();
      break;
    }
    case Variant::kTopFullMimd: {
      topfull_ = std::make_unique<core::TopFullController>(
          &app, std::make_unique<core::MimdRateController>(), config);
      topfull_->Start();
      break;
    }
    case Variant::kTopFullNoCluster: {
      assert(policy != nullptr);
      config.enable_clustering = false;
      topfull_ = std::make_unique<core::TopFullController>(
          &app, std::make_unique<core::RlRateController>(policy), config);
      topfull_->Start();
      break;
    }
    case Variant::kTopFullBw: {
      topfull_ = std::make_unique<core::TopFullController>(
          &app, std::make_unique<core::AimdRateController>(), config);
      topfull_->Start();
      break;
    }
    case Variant::kDagor: {
      dagor_ = std::make_unique<baselines::DagorAdmission>(&app);
      dagor_->Install();
      break;
    }
    case Variant::kBreakwater: {
      breakwater_ = std::make_unique<baselines::BreakwaterAdmission>(&app);
      breakwater_->Install();
      break;
    }
    case Variant::kWisp: {
      wisp_ = std::make_unique<baselines::WispAdmission>(&app);
      wisp_->Install();
      break;
    }
    case Variant::kStaticLimit: {
      static_ = std::make_unique<baselines::StaticLimitAdmission>(
          &app, static_rate, config.burst_fraction, config.min_burst);
      static_->Install();
      break;
    }
  }
}

workload::ClosedLoopConfig UniformUsers(const sim::Application& app) {
  workload::ClosedLoopConfig config;
  config.mix.weights.assign(static_cast<std::size_t>(app.NumApis()), 1.0);
  return config;
}

double TotalGoodput(const sim::Application& app, double from_s, double to_s) {
  return app.metrics().AvgTotalGoodput(from_s, to_s);
}

TelemetryOptions TelemetryOptions::FromEnv() {
  TelemetryOptions options;
  const char* dir = std::getenv("TOPFULL_TRACE_DIR");
  if (dir != nullptr) options.dir = dir;
  const char* sample = std::getenv("TOPFULL_TRACE_SAMPLE");
  if (sample != nullptr && *sample != '\0') {
    options.sample_rate = FiniteOrExit("TOPFULL_TRACE_SAMPLE", sample);
  }
  return options;
}

Telemetry::Telemetry(TelemetryOptions options) : options_(std::move(options)) {}

void Telemetry::Attach(sim::Application& app) {
  if (enabled()) {
    if (!tracer_) {
      obs::TraceConfig config;
      config.sample_rate = options_.sample_rate;
      config.max_traces = options_.max_traces;
      tracer_ = std::make_unique<obs::RequestTracer>(config);
    }
    app.SetObserver(tracer_.get());
  }
  monitor_ = obs::SloMonitor::ForApp(app);
  if (decision_log_) monitor_->SetDecisionLog(decision_log_.get());
}

void Telemetry::Attach(core::TopFullController& controller) {
  if (!decision_log_) decision_log_ = std::make_unique<obs::DecisionLog>();
  controller.SetDecisionObserver(decision_log_.get());
  if (monitor_) monitor_->SetDecisionLog(decision_log_.get());
}

namespace {

/// Records one artifact write: the path on success, a FAILED line if not.
void ReportWrite(TelemetrySummary* summary, const std::string& path, bool ok) {
  if (!ok) {
    std::fprintf(stderr, "[obs] FAILED to write %s\n", path.c_str());
    return;
  }
  summary->paths.push_back(path);
  std::fprintf(stderr, "[obs] wrote %s\n", path.c_str());
}

}  // namespace

TelemetrySummary Telemetry::Export(const sim::Application& app,
                                   const std::string& name,
                                   const core::TopFullController* controller,
                                   const std::vector<fault::FaultRecord>* faults) {
  TelemetrySummary summary;
  if (!enabled()) return summary;
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    std::fprintf(stderr, "[obs] cannot create %s: %s\n", options_.dir.c_str(),
                 ec.message().c_str());
    return summary;
  }
  const std::string base = options_.dir + "/" + name;
  const std::vector<obs::SloEvent>* events =
      monitor_ ? &monitor_->events() : nullptr;
  if (tracer_) {
    summary.sampled = tracer_->counters().sampled;
    summary.dropped = tracer_->counters().dropped;
    const std::string path = base + ".trace.json";
    ReportWrite(&summary, path,
                obs::WritePerfettoTrace(*tracer_, app, path, faults, events));
  }
  const std::vector<obs::AlertTransition>* alerts =
      tsdb_ != nullptr ? &tsdb_->rules().transitions() : nullptr;
  if (decision_log_) {
    summary.ticks = decision_log_->ticks().size();
    summary.decisions = decision_log_->DecisionCount();
    const std::string path = base + ".decisions.jsonl";
    ReportWrite(&summary, path,
                obs::WriteDecisionLogJsonl(*decision_log_, app, path, events,
                                           alerts));
  }
  const std::string prom = base + ".metrics.prom";
  ReportWrite(&summary, prom, obs::WritePrometheusText(app, tracer_.get(), prom));
  if (tsdb_ != nullptr) ExportTsdb(*tsdb_, name, &summary);

  if (events != nullptr) summary.slo_events = events->size();
  obs::ReportInputs inputs;
  inputs.app = &app;
  inputs.label = name;
  inputs.controller = controller;
  inputs.monitor = monitor_.get();
  inputs.decisions = decision_log_.get();
  inputs.faults = faults;
  const std::string summary_path = base + ".summary.json";
  ReportWrite(&summary, summary_path, obs::WriteRunSummaryJson(inputs, summary_path));
  const std::string html_path = base + ".report.html";
  ReportWrite(&summary, html_path, obs::WriteHtmlReport(inputs, html_path));
  return summary;
}

void Telemetry::ExportTsdb(const obs::TsdbPlane& tsdb, const std::string& name,
                           TelemetrySummary* summary) const {
  if (!enabled()) return;
  const std::string base = options_.dir + "/" + name;
  const std::string tsdb_path = base + ".tsdb.json";
  ReportWrite(summary, tsdb_path, obs::WriteTsdbJson(tsdb.tsdb(), tsdb_path));
  const std::string alerts_path = base + ".alerts.json";
  ReportWrite(summary, alerts_path, obs::WriteAlertsJson(tsdb.rules(), alerts_path));
}

std::string SanitizeFileName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.')
               ? c
               : '_';
  }
  return out.empty() ? "run" : out;
}

std::vector<double> PerApiGoodputRow(const sim::Application& app, double from_s,
                                     double to_s) {
  std::vector<double> row;
  double total = 0.0;
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    const double g = app.metrics().AvgGoodput(a, from_s, to_s);
    row.push_back(g);
    total += g;
  }
  row.push_back(total);
  return row;
}

}  // namespace topfull::exp
