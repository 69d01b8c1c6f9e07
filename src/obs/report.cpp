#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/controller.hpp"
#include "obs/export.hpp"
#include "obs/text_buffer.hpp"

namespace topfull::obs {

namespace {

std::string Quote(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

/// Latency/delay digest of a registry histogram as a JSON object.
std::string HistogramJson(const Histogram* h) {
  if (h == nullptr) {
    return "{\"count\":0,\"mean\":0,\"p50\":0,\"p95\":0,\"p99\":0,\"max\":0}";
  }
  return "{\"count\":" + U64(h->count()) + ",\"mean\":" + Num(h->Mean()) +
         ",\"p50\":" + Num(h->Percentile(50)) + ",\"p95\":" + Num(h->Percentile(95)) +
         ",\"p99\":" + Num(h->Percentile(99)) + ",\"max\":" + Num(h->max()) + "}";
}

const Histogram* FindHistogram(const MetricsRegistry& registry,
                               const std::string& name, const Labels& labels) {
  const MetricsRegistry::Cell* cell = registry.Find(name, labels);
  return cell != nullptr ? cell->histogram.get() : nullptr;
}

double FindGauge(const MetricsRegistry& registry, const std::string& name,
                 const Labels& labels) {
  const MetricsRegistry::Cell* cell = registry.Find(name, labels);
  return cell != nullptr ? cell->gauge.value() : 0.0;
}

std::uint64_t FindCounter(const MetricsRegistry& registry, const std::string& name,
                          const Labels& labels = {}) {
  const MetricsRegistry::Cell* cell = registry.Find(name, labels);
  return cell != nullptr ? cell->counter.value() : 0;
}

std::string CounterFields(const sim::ApiTotals& t) {
  return "\"offered\":" + U64(t.offered) + ",\"admitted\":" + U64(t.admitted) +
         ",\"rejected_entry\":" + U64(t.rejected_entry) + ",\"rejected_service\":" +
         U64(t.rejected_service) + ",\"completed\":" + U64(t.completed) +
         ",\"good\":" + U64(t.good);
}

// --- HTML helpers ------------------------------------------------------------

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

constexpr const char* kPalette[] = {"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                                    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
                                    "#bcbd22", "#17becf"};
constexpr int kPaletteSize = 10;

const char* EventColor(SloEventType type) {
  switch (type) {
    case SloEventType::kSloBurnStart: return "#d62728";
    case SloEventType::kSloBurnEnd: return "#2ca02c";
    case SloEventType::kOverloadOnset: return "#ff7f0e";
    case SloEventType::kOverloadClear: return "#1f77b4";
    case SloEventType::kStarvationStart: return "#9467bd";
    case SloEventType::kStarvationEnd: return "#8c564b";
    case SloEventType::kOscillation: return "#e377c2";
  }
  return "#7f7f7f";
}

struct Series {
  std::string name;
  std::string color;
  std::vector<double> ys;
};

/// One inline SVG line chart: series over a shared x axis, optional SLO
/// event annotation lines, optional horizontal threshold line.
std::string SvgChart(const std::string& title, const std::string& y_label,
                     const std::vector<double>& xs, const std::vector<Series>& series,
                     const std::vector<SloEvent>* events, double threshold = -1.0) {
  constexpr double kW = 940, kH = 240;
  constexpr double kLeft = 56, kRight = 12, kTop = 14, kBottom = 26;
  const double plot_w = kW - kLeft - kRight;
  const double plot_h = kH - kTop - kBottom;

  double y_max = threshold > 0 ? threshold : 0.0;
  for (const Series& s : series) {
    for (const double y : s.ys) y_max = std::max(y_max, y);
  }
  if (y_max <= 0.0) y_max = 1.0;
  y_max *= 1.05;
  const double x_min = xs.empty() ? 0.0 : xs.front();
  const double x_max = xs.empty() || xs.back() <= x_min ? x_min + 1.0 : xs.back();

  const auto px = [&](double x) {
    return kLeft + (x - x_min) / (x_max - x_min) * plot_w;
  };
  const auto py = [&](double y) { return kTop + (1.0 - y / y_max) * plot_h; };

  std::string svg = "<h3>" + HtmlEscape(title) + "</h3>\n<div class=\"legend\">";
  for (const Series& s : series) {
    svg += "<span><i style=\"background:" + s.color + "\"></i>" +
           HtmlEscape(s.name) + "</span> ";
  }
  svg += "</div>\n<svg viewBox=\"0 0 " + Num(kW) + " " + Num(kH) +
         "\" class=\"chart\">\n";
  // Axes + gridlines at 0, 1/2 and max.
  for (const double frac : {0.0, 0.5, 1.0}) {
    const double y = py(frac * y_max / 1.05);
    svg += "<line x1=\"" + Num(kLeft) + "\" y1=\"" + Num(y) + "\" x2=\"" +
           Num(kW - kRight) + "\" y2=\"" + Num(y) +
           "\" stroke=\"#ddd\" stroke-width=\"1\"/>\n";
    svg += "<text x=\"" + Num(kLeft - 6) + "\" y=\"" + Num(y + 4) +
           "\" text-anchor=\"end\" class=\"tick\">" + Num(frac * y_max / 1.05) +
           "</text>\n";
  }
  svg += "<text x=\"" + Num(kLeft) + "\" y=\"" + Num(kH - 6) +
         "\" class=\"tick\">" + Num(x_min) + "s</text>\n";
  svg += "<text x=\"" + Num(kW - kRight) + "\" y=\"" + Num(kH - 6) +
         "\" text-anchor=\"end\" class=\"tick\">" + Num(x_max) + "s</text>\n";
  svg += "<text x=\"12\" y=\"" + Num(kTop + 10) + "\" class=\"tick\">" +
         HtmlEscape(y_label) + "</text>\n";

  if (threshold > 0) {
    svg += "<line x1=\"" + Num(kLeft) + "\" y1=\"" + Num(py(threshold)) +
           "\" x2=\"" + Num(kW - kRight) + "\" y2=\"" + Num(py(threshold)) +
           "\" stroke=\"#d62728\" stroke-width=\"1\" stroke-dasharray=\"6,4\"/>\n";
  }

  // Event annotation lines behind the series.
  if (events != nullptr) {
    for (const SloEvent& e : *events) {
      if (e.t_s < x_min || e.t_s > x_max) continue;
      svg += "<line x1=\"" + Num(px(e.t_s)) + "\" y1=\"" + Num(kTop) + "\" x2=\"" +
             Num(px(e.t_s)) + "\" y2=\"" + Num(kTop + plot_h) + "\" stroke=\"" +
             EventColor(e.type) +
             "\" stroke-width=\"1.5\" stroke-dasharray=\"2,3\" opacity=\"0.8\">"
             "<title>" +
             HtmlEscape(std::string(SloEventTypeName(e.type)) + " " + e.subject +
                        " @ " + Num(e.t_s) + "s (value " + Num(e.value) + ")") +
             "</title></line>\n";
    }
  }

  for (const Series& s : series) {
    if (s.ys.empty()) continue;
    std::string points;
    for (std::size_t i = 0; i < s.ys.size() && i < xs.size(); ++i) {
      points += Num(px(xs[i])) + "," + Num(py(s.ys[i])) + " ";
    }
    svg += "<polyline fill=\"none\" stroke=\"" + s.color +
           "\" stroke-width=\"1.5\" points=\"" + points + "\"/>\n";
  }
  svg += "</svg>\n";
  return svg;
}

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> segments;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    if (dot == std::string::npos) {
      segments.push_back(path.substr(start));
      return segments;
    }
    segments.push_back(path.substr(start, dot - start));
    start = dot + 1;
  }
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

}  // namespace

std::string BuildRunSummaryJson(const ReportInputs& inputs) {
  const sim::Application& app = *inputs.app;
  const MetricsRegistry& registry = app.metrics_registry();
  const auto& totals = app.metrics().Totals();

  std::string out = "{\n";
  out += "\"schema\":\"topfull.run_summary.v1\",\n";
  out += "\"label\":" + Quote(inputs.label) + ",\n";
  out += "\"app\":" + Quote(app.name()) + ",\n";
  out += "\"sim_end_s\":" + Num(app.metrics().Latest().t_end_s) + ",\n";
  out += "\"slo_s\":" + Num(ToSeconds(app.metrics().slo())) + ",\n";
  out += "\"windows\":" + U64(app.metrics().Timeline().size()) + ",\n";

  // Whole-run totals; latency digest merged across the per-API histograms
  // (all share one bucket layout, taken from the first one found).
  sim::ApiTotals sum;
  const Histogram* first_latency = nullptr;
  for (sim::ApiId a = 0; a < app.NumApis() && first_latency == nullptr; ++a) {
    first_latency = FindHistogram(registry, "topfull_request_latency_ms",
                                  {{"api", app.api(a).name()}});
  }
  Histogram merged_latency{first_latency != nullptr ? first_latency->config()
                                                    : HistogramConfig{}};
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    const sim::ApiTotals& t = totals[a];
    sum.offered += t.offered;
    sum.admitted += t.admitted;
    sum.rejected_entry += t.rejected_entry;
    sum.rejected_service += t.rejected_service;
    sum.completed += t.completed;
    sum.good += t.good;
    const Histogram* h = FindHistogram(registry, "topfull_request_latency_ms",
                                       {{"api", app.api(a).name()}});
    if (h != nullptr) merged_latency.Merge(*h);
  }
  out += "\"total\":{" + CounterFields(sum) +
         ",\"goodput_rps\":" + Num(app.metrics().AvgTotalGoodput(0.0)) +
         ",\"latency_ms\":" + HistogramJson(&merged_latency) + "},\n";

  out += "\"apis\":{";
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    if (a > 0) out += ",";
    const std::string& name = app.api(a).name();
    out += "\n" + Quote(name) + ":{" + CounterFields(totals[a]) +
           ",\"goodput_rps\":" + Num(app.metrics().AvgGoodput(a, 0.0)) +
           ",\"latency_ms\":" +
           HistogramJson(FindHistogram(registry, "topfull_request_latency_ms",
                                       {{"api", name}})) +
           "}";
  }
  out += "},\n";

  out += "\"services\":{";
  for (int s = 0; s < app.NumServices(); ++s) {
    if (s > 0) out += ",";
    const std::string& name = app.service(s).name();
    const Labels labels{{"service", name}};
    out += "\n" + Quote(name) + ":{\"running_pods\":" +
           Num(FindGauge(registry, "topfull_service_running_pods", labels)) +
           ",\"cpu_utilization\":" +
           Num(FindGauge(registry, "topfull_service_cpu_utilization", labels)) +
           ",\"capacity_rps\":" +
           Num(FindGauge(registry, "topfull_service_capacity_rps", labels)) +
           ",\"queue_delay_ms\":" +
           HistogramJson(
               FindHistogram(registry, "topfull_service_queue_delay_ms", labels)) +
           "}";
  }
  out += "},\n";

  if (inputs.controller != nullptr) {
    out += "\"controller\":{\"ticks\":" +
           U64(FindCounter(registry, "topfull_controller_ticks_total")) +
           ",\"decisions\":" + U64(inputs.controller->Decisions()) +
           ",\"rate_limits\":{";
    for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
      if (a > 0) out += ",";
      const auto limit = inputs.controller->RateLimit(a);
      out += Quote(app.api(a).name()) + ":" + (limit ? Num(*limit) : "null");
    }
    out += "}},\n";
  }

  if (inputs.monitor != nullptr) {
    out += "\"events\":{\"total\":" +
           U64(static_cast<std::uint64_t>(inputs.monitor->events().size())) +
           ",\"by_type\":{";
    constexpr SloEventType kAllTypes[] = {
        SloEventType::kSloBurnStart,    SloEventType::kSloBurnEnd,
        SloEventType::kOverloadOnset,   SloEventType::kOverloadClear,
        SloEventType::kStarvationStart, SloEventType::kStarvationEnd,
        SloEventType::kOscillation};
    bool first = true;
    for (const SloEventType type : kAllTypes) {
      if (!first) out += ",";
      first = false;
      out += Quote(SloEventTypeName(type)) + ":" + U64(inputs.monitor->CountOf(type));
    }
    out += "},\"list\":[";
    for (std::size_t i = 0; i < inputs.monitor->events().size(); ++i) {
      const SloEvent& e = inputs.monitor->events()[i];
      if (i > 0) out += ",";
      out += "\n{\"t_s\":" + Num(e.t_s) + ",\"event\":" +
             Quote(SloEventTypeName(e.type)) + ",\"subject\":" + Quote(e.subject) +
             ",\"value\":" + Num(e.value) + ",\"threshold\":" + Num(e.threshold) +
             "}";
    }
    out += "]},\n";
  }

  if (inputs.faults != nullptr) {
    std::uint64_t applied = 0, reverted = 0, restarts = 0;
    for (const fault::FaultRecord& r : *inputs.faults) {
      switch (r.action) {
        case fault::FaultRecord::Action::kApply: ++applied; break;
        case fault::FaultRecord::Action::kRevert: ++reverted; break;
        case fault::FaultRecord::Action::kRestart: ++restarts; break;
        case fault::FaultRecord::Action::kSkipped: break;
      }
    }
    out += "\"faults\":{\"applied\":" + U64(applied) + ",\"reverted\":" +
           U64(reverted) + ",\"restarts\":" + U64(restarts) + ",\"records\":" +
           U64(static_cast<std::uint64_t>(inputs.faults->size())) + "},\n";
  }

  out += "\"registry_families\":" +
         U64(static_cast<std::uint64_t>(registry.FamilyCount())) + "\n}\n";
  return out;
}

std::string BuildHtmlReport(const ReportInputs& inputs) {
  const sim::Application& app = *inputs.app;
  const MetricsRegistry& registry = app.metrics_registry();
  const auto& timeline = app.metrics().Timeline();
  const std::vector<SloEvent>* events =
      inputs.monitor != nullptr ? &inputs.monitor->events() : nullptr;

  std::string html =
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>" +
      HtmlEscape(inputs.label.empty() ? app.name() : inputs.label) +
      " — TopFull run report</title>\n<style>\n"
      "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:980px;"
      "color:#222}\n"
      "h1{font-size:22px}h2{font-size:18px;margin-top:28px;border-bottom:1px solid "
      "#ddd;padding-bottom:4px}h3{font-size:15px;margin-bottom:2px}\n"
      "table{border-collapse:collapse;margin:8px 0}td,th{border:1px solid "
      "#ccc;padding:3px 9px;text-align:right}th{background:#f3f3f3}\n"
      "td:first-child,th:first-child{text-align:left}\n"
      ".chart{width:100%;height:auto;background:#fff;border:1px solid #eee}\n"
      ".tick{font-size:11px;fill:#666}\n"
      ".legend span{margin-right:14px;font-size:12px}.legend "
      "i{display:inline-block;width:10px;height:10px;margin-right:4px}\n"
      ".meta{color:#555}\n</style></head><body>\n";

  html += "<h1>TopFull run report — " +
          HtmlEscape(inputs.label.empty() ? app.name() : inputs.label) + "</h1>\n";
  html += "<p class=\"meta\">app <b>" + HtmlEscape(app.name()) + "</b> · " +
          U64(static_cast<std::uint64_t>(app.NumApis())) + " APIs · " +
          U64(static_cast<std::uint64_t>(app.NumServices())) + " services · " +
          Num(app.metrics().Latest().t_end_s) + "s simulated · SLO " +
          Num(ToSeconds(app.metrics().slo())) + "s</p>\n";

  // --- Goodput timeline with SLO event annotations ---------------------------
  std::vector<double> xs;
  xs.reserve(timeline.size());
  Series offered{"offered", "#bbbbbb", {}};
  Series goodput{"goodput", "#2ca02c", {}};
  Series completed{"completed", "#1f77b4", {}};
  for (const sim::Snapshot& snap : timeline) {
    xs.push_back(snap.t_end_s);
    double off = 0, good = 0, comp = 0;
    for (const sim::ApiWindow& w : snap.apis) {
      off += static_cast<double>(w.offered);
      good += static_cast<double>(w.good);
      comp += static_cast<double>(w.completed);
    }
    offered.ys.push_back(off);
    goodput.ys.push_back(good);
    completed.ys.push_back(comp);
  }
  html += "<h2>Throughput</h2>\n";
  html += SvgChart("Total offered / completed / goodput per window (rps)", "rps",
                   xs, {offered, completed, goodput}, events);

  // --- Queueing delay per service --------------------------------------------
  std::vector<Series> delay_series;
  for (int s = 0; s < app.NumServices(); ++s) {
    Series series{app.service(s).name(), kPalette[s % kPaletteSize], {}};
    for (const sim::Snapshot& snap : timeline) {
      series.ys.push_back(
          s < static_cast<int>(snap.services.size())
              ? 1e3 * snap.services[static_cast<std::size_t>(s)].avg_queue_delay_s
              : 0.0);
    }
    delay_series.push_back(std::move(series));
  }
  const double overload_threshold_ms =
      inputs.monitor != nullptr
          ? 1e3 * inputs.monitor->config().overload_queue_delay_s
          : -1.0;
  html += "<h2>Queueing delay</h2>\n";
  html += SvgChart("Average queueing delay per service (ms, dashed = overload "
                   "threshold)",
                   "ms", xs, delay_series, events, overload_threshold_ms);

  // --- Per-API table ----------------------------------------------------------
  html += "<h2>APIs</h2>\n<table><tr><th>API</th><th>offered</th><th>admitted</th>"
          "<th>rejected</th><th>completed</th><th>good</th><th>goodput "
          "(rps)</th><th>p50 (ms)</th><th>p95 (ms)</th><th>p99 (ms)</th></tr>\n";
  const auto& totals = app.metrics().Totals();
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    const sim::ApiTotals& t = totals[a];
    const Histogram* h = FindHistogram(registry, "topfull_request_latency_ms",
                                       {{"api", app.api(a).name()}});
    html += "<tr><td>" + HtmlEscape(app.api(a).name()) + "</td><td>" +
            U64(t.offered) + "</td><td>" + U64(t.admitted) + "</td><td>" +
            U64(t.rejected_entry + t.rejected_service) + "</td><td>" +
            U64(t.completed) + "</td><td>" + U64(t.good) + "</td><td>" +
            Num(app.metrics().AvgGoodput(a, 0.0)) + "</td><td>" +
            (h != nullptr ? Num(h->Percentile(50)) : "-") + "</td><td>" +
            (h != nullptr ? Num(h->Percentile(95)) : "-") + "</td><td>" +
            (h != nullptr ? Num(h->Percentile(99)) : "-") + "</td></tr>\n";
  }
  html += "</table>\n";

  // --- Per-service table ------------------------------------------------------
  html += "<h2>Services</h2>\n<table><tr><th>Service</th><th>pods</th><th>cpu</th>"
          "<th>capacity (rps)</th><th>queue delay p95 (ms)</th><th>queue delay max "
          "(ms)</th></tr>\n";
  for (int s = 0; s < app.NumServices(); ++s) {
    const Labels labels{{"service", app.service(s).name()}};
    const Histogram* h =
        FindHistogram(registry, "topfull_service_queue_delay_ms", labels);
    html += "<tr><td>" + HtmlEscape(app.service(s).name()) + "</td><td>" +
            Num(FindGauge(registry, "topfull_service_running_pods", labels)) +
            "</td><td>" +
            Num(FindGauge(registry, "topfull_service_cpu_utilization", labels)) +
            "</td><td>" +
            Num(FindGauge(registry, "topfull_service_capacity_rps", labels)) +
            "</td><td>" + (h != nullptr ? Num(h->Percentile(95)) : "-") +
            "</td><td>" + (h != nullptr ? Num(h->max()) : "-") + "</td></tr>\n";
  }
  html += "</table>\n";

  // --- SLO events -------------------------------------------------------------
  if (events != nullptr) {
    html += "<h2>SLO / overload events (" +
            U64(static_cast<std::uint64_t>(events->size())) + ")</h2>\n";
    if (events->empty()) {
      html += "<p class=\"meta\">No events — the run stayed inside its "
              "SLO/overload envelopes.</p>\n";
    } else {
      html += "<table><tr><th>t (s)</th><th>event</th><th>subject</th>"
              "<th>value</th><th>threshold</th></tr>\n";
      for (const SloEvent& e : *events) {
        html += "<tr><td>" + Num(e.t_s) + "</td><td><span style=\"color:" +
                EventColor(e.type) + "\">&#9632;</span> " + SloEventTypeName(e.type) +
                "</td><td>" + HtmlEscape(e.subject) + "</td><td>" + Num(e.value) +
                "</td><td>" + Num(e.threshold) + "</td></tr>\n";
      }
      html += "</table>\n";
    }
  }

  // --- Faults -----------------------------------------------------------------
  if (inputs.faults != nullptr && !inputs.faults->empty()) {
    html += "<h2>Injected faults (" +
            U64(static_cast<std::uint64_t>(inputs.faults->size())) +
            " records)</h2>\n<table><tr><th>t (s)</th><th>fault</th><th>action</th>"
            "<th>service</th><th>severity</th><th>count</th></tr>\n";
    for (const fault::FaultRecord& r : *inputs.faults) {
      html += "<tr><td>" + Num(ToSeconds(r.at)) + "</td><td>" +
              fault::FaultTypeName(r.type) + "</td><td>" +
              fault::FaultActionName(r.action) + "</td><td>" +
              HtmlEscape(r.service) + "</td><td>" + Num(r.severity) + "</td><td>" +
              U64(static_cast<std::uint64_t>(r.count)) + "</td></tr>\n";
    }
    html += "</table>\n";
  }

  // --- Controller -------------------------------------------------------------
  if (inputs.controller != nullptr) {
    html += "<h2>Controller</h2>\n<p class=\"meta\">" +
            U64(FindCounter(registry, "topfull_controller_ticks_total")) +
            " ticks · " + U64(inputs.controller->Decisions()) +
            " decisions</p>\n<table><tr><th>API</th><th>final rate limit "
            "(rps)</th></tr>\n";
    for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
      const auto limit = inputs.controller->RateLimit(a);
      html += "<tr><td>" + HtmlEscape(app.api(a).name()) + "</td><td>" +
              (limit ? Num(*limit) : "uncapped") + "</td></tr>\n";
    }
    html += "</table>\n";
  }

  html += "</body></html>\n";
  return html;
}

bool WriteRunSummaryJson(const ReportInputs& inputs, const std::string& path) {
  return WriteTextFile(path, BuildRunSummaryJson(inputs));
}

bool WriteHtmlReport(const ReportInputs& inputs, const std::string& path) {
  return WriteTextFile(path, BuildHtmlReport(inputs));
}

// --- Regression diffing ------------------------------------------------------

MetricDirection DirectionOf(const std::string& path) {
  const std::vector<std::string> segments = SplitPath(path);
  const std::string& tail = segments.back();
  const std::string parent =
      segments.size() >= 2 ? segments[segments.size() - 2] : std::string();
  const std::string joined = parent + "." + tail;
  if (Contains(joined, "latency") || Contains(joined, "queue_delay") ||
      Contains(joined, "rejected") || Contains(joined, "dropped") ||
      Contains(joined, "restart") || Contains(joined, "burn")) {
    return MetricDirection::kLowerBetter;
  }
  if (Contains(joined, "goodput") || Contains(joined, "capacity") ||
      tail == "good" || tail == "completed" || tail == "admitted") {
    return MetricDirection::kHigherBetter;
  }
  return MetricDirection::kNeutral;
}

CompareResult CompareRunSummaries(const JsonValue& baseline,
                                  const JsonValue& candidate,
                                  const CompareOptions& options) {
  std::map<std::string, double> base_metrics, cand_metrics;
  FlattenNumbers(baseline, "", &base_metrics);
  FlattenNumbers(candidate, "", &cand_metrics);
  const auto skip = [](const std::string& path) {
    // Individual events shift freely between runs; totals are compared via
    // events.by_type.*.
    return path.rfind("events.list.", 0) == 0;
  };

  CompareResult result;
  for (const auto& [path, base_value] : base_metrics) {
    if (skip(path)) continue;
    const auto it = cand_metrics.find(path);
    if (it == cand_metrics.end()) {
      result.missing.push_back(path);
      continue;
    }
    const double cand_value = it->second;
    const double tolerance =
        std::max(options.abs_tol, options.rel_tol * std::fabs(base_value));
    if (std::fabs(cand_value - base_value) <= tolerance) continue;
    MetricDiff diff;
    diff.path = path;
    diff.baseline = base_value;
    diff.candidate = cand_value;
    diff.direction = DirectionOf(path);
    const double worse = diff.direction == MetricDirection::kHigherBetter
                             ? base_value - cand_value
                             : cand_value - base_value;
    diff.regression = diff.direction != MetricDirection::kNeutral && worse > 0;
    if (diff.regression) ++result.regressions;
    result.changed.push_back(std::move(diff));
  }
  for (const auto& [path, value] : cand_metrics) {
    if (skip(path)) continue;
    if (base_metrics.find(path) == base_metrics.end()) result.added.push_back(path);
  }
  return result;
}

std::string FormatCompareResult(const CompareResult& result,
                                const CompareOptions& options) {
  std::string out;
  char line[256];
  for (const MetricDiff& diff : result.changed) {
    const char* tag = diff.regression ? "REGRESSION"
                      : diff.direction == MetricDirection::kNeutral
                          ? "change    "
                          : "improved  ";
    const double pct = diff.baseline != 0.0
                           ? 100.0 * (diff.candidate - diff.baseline) /
                                 std::fabs(diff.baseline)
                           : 0.0;
    std::snprintf(line, sizeof(line), "%s %-48s %.6g -> %.6g (%+.2f%%)\n", tag,
                  diff.path.c_str(), diff.baseline, diff.candidate, pct);
    out += line;
  }
  for (const std::string& path : result.missing) {
    out += "MISSING    " + path + " (present in baseline only)\n";
  }
  for (const std::string& path : result.added) {
    out += "added      " + path + " (candidate only)\n";
  }
  std::snprintf(line, sizeof(line),
                "%zu metric(s) changed beyond tolerance (rel %.3g / abs %.3g), "
                "%d regression(s), %zu missing, %zu added\n",
                result.changed.size(), options.rel_tol, options.abs_tol,
                result.regressions, result.missing.size(), result.added.size());
  out += line;
  return out;
}

}  // namespace topfull::obs
