#include "obs/tsdb_plane.hpp"

#include <limits>

#include "common/parse.hpp"
#include "obs/json.hpp"
#include "obs/query.hpp"
#include "obs/text_buffer.hpp"
#include "sim/app.hpp"

namespace topfull::obs {

/// Chained window observer: forwards to the previously installed observer
/// first (SloMonitor events precede same-timestamp TSDB activity), then
/// hands the window to the plane.
struct TsdbPlane::Feeder : sim::WindowObserver {
  Feeder(TsdbPlane* plane, const MetricsRegistry* registry, Labels extra,
         sim::WindowObserver* next)
      : plane(plane), feed(&plane->tsdb_, registry, std::move(extra)), next(next) {}

  TsdbPlane* plane;
  RegistryFeed feed;
  sim::WindowObserver* next;

  void OnWindow(const sim::Snapshot& snapshot) override {
    if (next != nullptr) next->OnWindow(snapshot);
    // Registry families only: the live-only wall-clock families (profiler,
    // sharded scheduler) never enter the store, so its contents depend on
    // simulation state alone.
    feed.Append(snapshot.t_end_s);
    plane->OnFeederWindow(snapshot.t_end_s);
  }
};

TsdbPlane::TsdbPlane(TsdbPlaneOptions options)
    : options_(options), tsdb_(options.tsdb), rules_(&tsdb_) {}

TsdbPlane::~TsdbPlane() = default;

void TsdbPlane::Attach(sim::Application& app, int shard, int num_shards) {
  Labels extra;
  if (num_shards > 1) extra.emplace_back("shard", std::to_string(shard));
  auto feeder = std::make_unique<Feeder>(this, &app.metrics_registry(),
                                         std::move(extra),
                                         app.metrics().window_observer());
  app.metrics().SetWindowObserver(feeder.get());
  feeders_.push_back(std::move(feeder));
}

void TsdbPlane::OnFeederWindow(double t_end_s) {
  if (options_.evaluate_on_window) {
    EvaluateBoundaries(t_end_s, /*inclusive=*/true);
  }
}

void TsdbPlane::EvaluateRulesUpTo(double t_s) {
  EvaluateBoundaries(t_s, /*inclusive=*/false);
}

void TsdbPlane::FinishRules(double t_s) {
  EvaluateBoundaries(t_s, /*inclusive=*/true);
}

void TsdbPlane::EvaluateBoundaries(double limit_s, bool inclusive) {
  std::lock_guard<std::mutex> lock(eval_mu_);
  const double step = options_.tsdb.step_s;
  if (step <= 0.0) return;
  const double eps = step * 1e-9;
  while (true) {
    const double boundary = static_cast<double>(next_boundary_) * step;
    if (inclusive ? boundary > limit_s + eps : boundary >= limit_s - eps) {
      break;
    }
    rules_.Evaluate(boundary);
    ++next_boundary_;
  }
}

bool WriteTsdbJson(const Tsdb& tsdb, const std::string& path) {
  TextBuffer out(path);
  if (!out.ok()) return false;
  tsdb.RenderJson(out);
  return out.Close();
}

bool WriteAlertsJson(const RuleEngine& rules, const std::string& path) {
  return WriteTextFile(path, rules.AlertsJson());
}

std::unique_ptr<Tsdb> TsdbFromJson(const std::string& text,
                                   std::string* error) {
  const auto fail = [error](const std::string& why) -> std::unique_ptr<Tsdb> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  JsonValue doc;
  if (!ParseJson(text, &doc, error)) return nullptr;
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != "topfull.tsdb.v1") {
    return fail("not a topfull.tsdb.v1 document");
  }
  TsdbOptions options;
  if (const JsonValue* step = doc.Find("step_s");
      step != nullptr && step->IsNumber()) {
    options.step_s = step->number;
  }
  if (const JsonValue* retention = doc.Find("retention");
      retention != nullptr && retention->IsNumber()) {
    options.retention = static_cast<std::size_t>(retention->number);
  }
  auto tsdb = std::make_unique<Tsdb>(options);

  const JsonValue* series_list = doc.Find("series");
  if (series_list == nullptr || !series_list->IsArray()) {
    return fail("missing series array");
  }
  for (const JsonValue& series : series_list->array) {
    const JsonValue* name = series.Find("name");
    const JsonValue* type_name = series.Find("type");
    const JsonValue* labels_obj = series.Find("labels");
    const JsonValue* samples = series.Find("samples");
    if (name == nullptr || !name->IsString() || type_name == nullptr ||
        !type_name->IsString() || labels_obj == nullptr ||
        !labels_obj->IsObject() || samples == nullptr ||
        !samples->IsArray()) {
      return fail("malformed series entry");
    }
    MetricType type = MetricType::kGauge;
    if (type_name->string == "counter") {
      type = MetricType::kCounter;
    } else if (type_name->string == "gauge") {
      type = MetricType::kGauge;
    } else if (type_name->string == "histogram") {
      type = MetricType::kHistogram;
    } else {
      return fail("unknown series type '" + type_name->string + "'");
    }
    Labels labels;
    for (const auto& [key, value] : labels_obj->object) {
      if (!value.IsString()) return fail("non-string label value");
      labels.emplace_back(key, value.string);
    }
    for (const JsonValue& sample : samples->array) {
      if (!sample.IsArray() || sample.array.size() != 2 ||
          !sample.array[0].IsNumber()) {
        return fail("malformed sample (want [t, v])");
      }
      // Non-finite values round-trip as strings (JSON has no inf/nan).
      double value = 0.0;
      if (sample.array[1].IsNumber()) {
        value = sample.array[1].number;
      } else if (sample.array[1].IsString() && sample.array[1].string == "inf") {
        value = std::numeric_limits<double>::infinity();
      } else if (sample.array[1].IsString() &&
                 sample.array[1].string == "-inf") {
        value = -std::numeric_limits<double>::infinity();
      } else if (sample.array[1].IsString() && sample.array[1].string == "nan") {
        value = std::numeric_limits<double>::quiet_NaN();
      } else {
        return fail("malformed sample (want [t, v])");
      }
      tsdb->Append(name->string, labels, type, sample.array[0].number, value);
    }
  }
  return tsdb;
}

namespace {

HttpResponse QueryError(int status, const std::string& message) {
  QueryResult result;
  result.ok = false;
  result.error = message;
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = QueryResultJson(result);
  return response;
}

}  // namespace

HttpResponse HandleQueryRequest(const HttpRequest& request, const Tsdb& tsdb) {
  std::string expr;
  std::string time_text, start_text, end_text, step_text;
  for (const auto& [key, value] : ParseQueryParams(request.target)) {
    if (key == "expr" || key == "query") expr = value;
    if (key == "time") time_text = value;
    if (key == "start") start_text = value;
    if (key == "end") end_text = value;
    if (key == "step") step_text = value;
  }
  if (expr.empty()) return QueryError(400, "missing expr parameter");

  QueryResult result;
  const bool range = !start_text.empty() || !end_text.empty() ||
                     !step_text.empty();
  if (range) {
    const std::optional<double> start = ParseFinite(start_text);
    const std::optional<double> end = ParseFinite(end_text);
    const std::optional<double> step = ParseFinite(step_text);
    if (!start || !end || !step) {
      return QueryError(400, "range query needs numeric start, end and step");
    }
    if (*step <= 0.0) return QueryError(400, "step must be positive");
    if (*end < *start) return QueryError(400, "end precedes start");
    result = EvalRange(tsdb, expr, *start, *end, *step);
  } else {
    const std::optional<double> t =
        time_text.empty() ? tsdb.LatestTime() : ParseFinite(time_text);
    if (!t.has_value()) return QueryError(400, "bad time parameter");
    result = EvalInstant(tsdb, expr, *t);
  }

  HttpResponse response;
  response.status = result.ok ? 200 : 400;
  response.content_type = "application/json";
  response.body = QueryResultJson(result);
  return response;
}

}  // namespace topfull::obs
