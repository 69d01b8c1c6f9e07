// Golden tests for the PromQL-subset engine and the rule/alert machinery:
// rate across counter resets, covered-span semantics, aggregations,
// histogram_quantile vs Histogram::Percentile, range matrices, the alert
// state machine, and the /query HTTP surface.
#include "obs/query.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/rules.hpp"
#include "obs/snapshot.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull {
namespace {

using obs::EvalInstant;
using obs::EvalRange;
using obs::QueryResult;

/// One-series instant result -> its value.
double Scalar1(const QueryResult& result) {
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.series.size(), 1u);
  EXPECT_EQ(result.series[0].points.size(), 1u);
  return result.series[0].points[0].value;
}

TEST(QueryTest, ScalarArithmeticAndComparison) {
  obs::Tsdb tsdb;
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "1 + 2 * 3", 0.0)), 7.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "(1 + 2) * 3", 0.0)), 9.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "-(4 / 2)", 0.0)), -2.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "1 < 2", 0.0)), 1.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "2 == 3", 0.0)), 0.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "3 >= 3", 0.0)), 1.0);

  const QueryResult bad = EvalInstant(tsdb, "1 +", 0.0);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("parse error"), std::string::npos);
  EXPECT_FALSE(EvalInstant(tsdb, "rate(1)", 0.0).ok);
}

TEST(QueryTest, InstantSelectorTakesLatestSampleWithinLookback) {
  obs::Tsdb tsdb;
  for (double t = 1.0; t <= 5.0; t += 1.0) {
    tsdb.Append("m", {{"api", "a"}}, obs::MetricType::kGauge, t, t * 10.0);
  }
  const QueryResult hit = EvalInstant(tsdb, "m", 5.5);
  ASSERT_TRUE(hit.ok);
  ASSERT_EQ(hit.series.size(), 1u);
  EXPECT_EQ(hit.series[0].points[0].value, 50.0);
  // The result carries the evaluation time, not the sample's own stamp.
  EXPECT_EQ(hit.series[0].points[0].t_s, 5.5);

  // Past the 10 s lookback the series goes stale and drops out.
  const QueryResult stale = EvalInstant(tsdb, "m", 20.0);
  ASSERT_TRUE(stale.ok);
  EXPECT_TRUE(stale.series.empty());
}

TEST(QueryTest, LabelMatchersSelectSeries) {
  obs::Tsdb tsdb;
  for (const char* api : {"cart", "checkout", "search"}) {
    tsdb.Append("m", {{"api", api}}, obs::MetricType::kGauge, 1.0, 1.0);
  }
  const auto count = [&tsdb](const std::string& expr) {
    const QueryResult result = EvalInstant(tsdb, expr, 1.0);
    EXPECT_TRUE(result.ok) << result.error;
    return result.series.size();
  };
  EXPECT_EQ(count("m"), 3u);
  EXPECT_EQ(count("m{api=\"cart\"}"), 1u);
  EXPECT_EQ(count("m{api!=\"cart\"}"), 2u);
  EXPECT_EQ(count("m{api=~\"c.*\"}"), 2u);
  EXPECT_EQ(count("m{api!~\"c.*\"}"), 1u);
  EXPECT_EQ(count("m{api=\"cart\",api=~\".*t\"}"), 1u);
  // A missing label matches as the empty string.
  EXPECT_EQ(count("m{zone=\"\"}"), 3u);
  EXPECT_FALSE(EvalInstant(tsdb, "m{api=~\"(\"}", 1.0).ok);
}

// A counter reset must not produce a negative rate: the post-reset value
// counts as fresh increase, matching Prometheus semantics.
TEST(QueryTest, RateAndIncreaseCompensateForCounterResets) {
  obs::Tsdb tsdb;
  const double values[] = {0, 10, 20, 30, 40, 5, 15, 25, 35, 45, 55};
  for (int i = 0; i < 11; ++i) {
    tsdb.Append("c_total", {}, obs::MetricType::kCounter,
                static_cast<double>(i), values[i]);
  }
  // Deltas: 4 x +10, reset contributes the post-reset value 5, then
  // 5 x +10 -> increase 95 over the 10 s covered span.
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "increase(c_total[20s])", 10.0)), 95.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "rate(c_total[20s])", 10.0)), 9.5);
  EXPECT_EQ(tsdb.stats().counter_resets, 1u);
}

TEST(QueryTest, RateDividesByCoveredSpanNotTheNominalWindow) {
  obs::Tsdb tsdb;
  tsdb.Append("c_total", {}, obs::MetricType::kCounter, 8.0, 0.0);
  tsdb.Append("c_total", {}, obs::MetricType::kCounter, 9.0, 10.0);
  tsdb.Append("c_total", {}, obs::MetricType::kCounter, 10.0, 20.0);
  // Only 2 s of the 100 s window hold samples; the rate is 20/2, not
  // 20/100.
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "rate(c_total[100s])", 10.0)), 10.0);
}

TEST(QueryTest, RateNeedsAtLeastTwoSamples) {
  obs::Tsdb tsdb;
  tsdb.Append("c_total", {}, obs::MetricType::kCounter, 1.0, 5.0);
  const QueryResult result = EvalInstant(tsdb, "rate(c_total[10s])", 1.0);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.series.empty());
  // An empty window is empty output, not an error.
  const QueryResult empty = EvalInstant(tsdb, "rate(c_total[10s])", 500.0);
  ASSERT_TRUE(empty.ok);
  EXPECT_TRUE(empty.series.empty());
}

TEST(QueryTest, OverTimeAggregationsMatchHandComputation) {
  obs::Tsdb tsdb;
  const double values[] = {4.0, 1.0, 3.0, 2.0};
  for (int i = 0; i < 4; ++i) {
    tsdb.Append("g", {}, obs::MetricType::kGauge, 1.0 + i, values[i]);
  }
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "avg_over_time(g[10s])", 4.0)), 2.5);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "sum_over_time(g[10s])", 4.0)), 10.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "min_over_time(g[10s])", 4.0)), 1.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "max_over_time(g[10s])", 4.0)), 4.0);
  // The window is half-open (t-range, t]: at t=2 only samples 1..2 count.
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "sum_over_time(g[1s])", 2.0)), 1.0);
}

TEST(QueryTest, AggregationsGroupByLabels) {
  obs::Tsdb tsdb;
  tsdb.Append("m", {{"api", "a"}, {"code", "200"}}, obs::MetricType::kGauge,
              1.0, 1.0);
  tsdb.Append("m", {{"api", "a"}, {"code", "500"}}, obs::MetricType::kGauge,
              1.0, 2.0);
  tsdb.Append("m", {{"api", "b"}, {"code", "200"}}, obs::MetricType::kGauge,
              1.0, 4.0);

  const QueryResult total = EvalInstant(tsdb, "sum(m)", 1.0);
  ASSERT_TRUE(total.ok);
  ASSERT_EQ(total.series.size(), 1u);
  EXPECT_TRUE(total.series[0].labels.empty());
  EXPECT_EQ(total.series[0].points[0].value, 7.0);

  const QueryResult by_api = EvalInstant(tsdb, "sum by(api) (m)", 1.0);
  ASSERT_TRUE(by_api.ok);
  ASSERT_EQ(by_api.series.size(), 2u);
  EXPECT_EQ(by_api.series[0].labels[0].second, "a");
  EXPECT_EQ(by_api.series[0].points[0].value, 3.0);
  EXPECT_EQ(by_api.series[1].points[0].value, 4.0);

  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "avg(m)", 1.0)), 7.0 / 3.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "min(m)", 1.0)), 1.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "max(m)", 1.0)), 4.0);
}

TEST(QueryTest, ComparisonsFilterVectorsAndBinopsJoinOnLabels) {
  obs::Tsdb tsdb;
  tsdb.Append("m", {{"api", "a"}}, obs::MetricType::kGauge, 1.0, 3.0);
  tsdb.Append("m", {{"api", "b"}}, obs::MetricType::kGauge, 1.0, 8.0);
  tsdb.Append("n", {{"api", "a"}}, obs::MetricType::kGauge, 1.0, 10.0);

  // vector-scalar comparison keeps matching elements with their values.
  const QueryResult gt = EvalInstant(tsdb, "m > 5", 1.0);
  ASSERT_TRUE(gt.ok);
  ASSERT_EQ(gt.series.size(), 1u);
  EXPECT_EQ(gt.series[0].labels[0].second, "b");
  EXPECT_EQ(gt.series[0].points[0].value, 8.0);

  const QueryResult scaled = EvalInstant(tsdb, "m * 2", 1.0);
  ASSERT_TRUE(scaled.ok);
  ASSERT_EQ(scaled.series.size(), 2u);
  EXPECT_EQ(scaled.series[0].points[0].value, 6.0);

  // vector-vector join on exact label sets: only api="a" exists on both
  // sides.
  const QueryResult joined = EvalInstant(tsdb, "n - m", 1.0);
  ASSERT_TRUE(joined.ok);
  ASSERT_EQ(joined.series.size(), 1u);
  EXPECT_EQ(joined.series[0].labels[0].second, "a");
  EXPECT_EQ(joined.series[0].points[0].value, 7.0);
}

// The engine's bucket interpolation and the histogram's own Percentile
// are independent estimators of the same quantile; each is documented to
// be within one sub-bucket of truth, so they agree within two.
TEST(QueryTest, HistogramQuantileTracksHistogramPercentile) {
  obs::MetricsRegistry registry;
  const obs::HistogramConfig config{0.125, 1024.0, 8};
  auto* histogram = registry.GetHistogram("lat_ms", "Latency.", {}, config);
  for (int i = 0; i < 800; ++i) {
    histogram->Record(1.0 + 0.37 * static_cast<double>(i));
  }

  obs::Tsdb tsdb;
  obs::RegistryFeed(&tsdb, &registry).Append(1.0);

  for (const double p : {50.0, 90.0, 99.0}) {
    const double expected = histogram->Percentile(p);
    const double actual = Scalar1(EvalInstant(
        tsdb,
        "histogram_quantile(0." + std::to_string(static_cast<int>(p * 10)) +
            ", lat_ms_bucket)",
        1.0));
    EXPECT_NEAR(actual, expected, expected * 2.0 / config.sub_buckets)
        << "p" << p;
  }
}

TEST(QueryTest, HistogramQuantileEdgeCases) {
  obs::Tsdb tsdb;
  tsdb.Append("h_bucket", {{"le", "1"}}, obs::MetricType::kCounter, 1.0, 4.0);
  tsdb.Append("h_bucket", {{"le", "+Inf"}}, obs::MetricType::kCounter, 1.0,
              4.0);
  // phi out of range -> NaN, not an error.
  const QueryResult bad_phi =
      EvalInstant(tsdb, "histogram_quantile(2, h_bucket)", 1.0);
  ASSERT_TRUE(bad_phi.ok);
  ASSERT_EQ(bad_phi.series.size(), 1u);
  EXPECT_TRUE(std::isnan(bad_phi.series[0].points[0].value));
  // Interpolation within the first bucket starts from 0.
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "histogram_quantile(0.5, h_bucket)",
                                1.0)),
            0.5);
  // A series without the +Inf bucket is not a conformant histogram.
  obs::Tsdb partial;
  partial.Append("h_bucket", {{"le", "1"}}, obs::MetricType::kCounter, 1.0,
                 4.0);
  const QueryResult skipped =
      EvalInstant(partial, "histogram_quantile(0.5, h_bucket)", 1.0);
  ASSERT_TRUE(skipped.ok);
  EXPECT_TRUE(skipped.series.empty());
  EXPECT_FALSE(EvalInstant(tsdb, "histogram_quantile(0.5)", 1.0).ok);
}

// An `le` label that is not a number drops its series, as in Prometheus;
// read as 0 it would be a bucket holding every observation.
TEST(QueryTest, HistogramQuantileDropsAnUnreadableLe) {
  for (const char* le : {"abc", "1e400", "0x10", ""}) {
    obs::Tsdb tsdb;
    tsdb.Append("h_bucket", {{"le", "1"}}, obs::MetricType::kCounter, 1.0, 2.0);
    tsdb.Append("h_bucket", {{"le", "+Inf"}}, obs::MetricType::kCounter, 1.0, 4.0);
    tsdb.Append("h_bucket", {{"le", le}}, obs::MetricType::kCounter, 1.0, 4.0);
    EXPECT_EQ(Scalar1(EvalInstant(tsdb, "histogram_quantile(0.25, h_bucket)", 1.0)), 0.5)
        << "le=" << le;
  }
}

TEST(QueryTest, RangeQueriesMergeStepsIntoAMatrix) {
  obs::Tsdb tsdb;
  for (double t = 1.0; t <= 5.0; t += 1.0) {
    tsdb.Append("g", {}, obs::MetricType::kGauge, t, t);
  }
  const QueryResult matrix = EvalRange(tsdb, "g", 1.0, 5.0, 2.0);
  ASSERT_TRUE(matrix.ok) << matrix.error;
  EXPECT_EQ(matrix.type, QueryResult::Type::kMatrix);
  ASSERT_EQ(matrix.series.size(), 1u);
  ASSERT_EQ(matrix.series[0].points.size(), 3u);
  EXPECT_EQ(matrix.series[0].points[0].t_s, 1.0);
  EXPECT_EQ(matrix.series[0].points[2].t_s, 5.0);
  EXPECT_EQ(matrix.series[0].points[2].value, 5.0);

  // Scalar expressions evaluate per step too.
  const QueryResult scalars = EvalRange(tsdb, "1 + 1", 0.0, 2.0, 1.0);
  ASSERT_TRUE(scalars.ok);
  ASSERT_EQ(scalars.series.size(), 1u);
  EXPECT_EQ(scalars.series[0].points.size(), 3u);

  EXPECT_FALSE(EvalRange(tsdb, "g", 5.0, 1.0, 1.0).ok);
  EXPECT_FALSE(EvalRange(tsdb, "g", 1.0, 5.0, 0.0).ok);
  // A raw range vector has no single value per step.
  EXPECT_FALSE(EvalRange(tsdb, "g[10s]", 1.0, 5.0, 1.0).ok);
}

TEST(QueryTest, ResultJsonFormsAreWellFormed) {
  obs::Tsdb tsdb;
  tsdb.Append("m", {{"api", "a"}}, obs::MetricType::kGauge, 1.0, 2.5);

  const std::string scalar =
      obs::QueryResultJson(EvalInstant(tsdb, "41 + 1", 1.0));
  EXPECT_NE(scalar.find("\"resultType\":\"scalar\""), std::string::npos);
  EXPECT_NE(scalar.find("[1,\"42\"]"), std::string::npos);

  const std::string vector = obs::QueryResultJson(EvalInstant(tsdb, "m", 1.0));
  EXPECT_NE(vector.find("\"resultType\":\"vector\""), std::string::npos);
  EXPECT_NE(vector.find("\"metric\":{\"api\":\"a\"}"), std::string::npos);

  const std::string matrix =
      obs::QueryResultJson(EvalRange(tsdb, "m", 1.0, 1.0, 1.0));
  EXPECT_NE(matrix.find("\"resultType\":\"matrix\""), std::string::npos);

  const std::string error =
      obs::QueryResultJson(EvalInstant(tsdb, "nope(", 1.0));
  EXPECT_NE(error.find("\"status\":\"error\""), std::string::npos);

  // All four forms parse as JSON (values are strings, Prometheus-style,
  // so non-finite numbers can never corrupt the document).
  for (const std::string& body : {scalar, vector, matrix, error}) {
    obs::JsonValue doc;
    std::string parse_error;
    EXPECT_TRUE(obs::ParseJson(body, &doc, &parse_error))
        << parse_error << "\n"
        << body;
  }
}

// --- Rules -------------------------------------------------------------------

TEST(RulesTest, AlertWalksInactivePendingFiringAndBack) {
  obs::Tsdb tsdb;
  obs::RuleEngine engine(&tsdb);
  obs::AlertRule rule;
  rule.name = "sig_high";
  rule.exprs = {"sig > 0"};
  rule.for_s = 2.0;
  engine.AddAlert(std::move(rule));

  const double values[] = {0, 0, 0, 1, 1, 1, 1, 1, 0};
  for (int i = 0; i < 9; ++i) {
    const double t = 1.0 + i;
    tsdb.Append("sig", {}, obs::MetricType::kGauge, t, values[i]);
    engine.Evaluate(t);
  }
  const auto& transitions = engine.transitions();
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].t_s, 4.0);
  EXPECT_EQ(transitions[0].from, obs::AlertState::kInactive);
  EXPECT_EQ(transitions[0].to, obs::AlertState::kPending);
  EXPECT_EQ(transitions[1].t_s, 6.0);  // held for for_s=2 before firing
  EXPECT_EQ(transitions[1].to, obs::AlertState::kFiring);
  EXPECT_EQ(transitions[2].t_s, 9.0);
  EXPECT_EQ(transitions[2].to, obs::AlertState::kInactive);
  EXPECT_EQ(engine.last_eval_s(), 9.0);
}

TEST(RulesTest, ZeroHoldAlertsFireImmediately) {
  obs::Tsdb tsdb;
  obs::RuleEngine engine(&tsdb);
  obs::AlertRule rule;
  rule.name = "instant";
  rule.exprs = {"sig > 0"};
  rule.for_s = 0.0;
  engine.AddAlert(std::move(rule));
  tsdb.Append("sig", {}, obs::MetricType::kGauge, 1.0, 1.0);
  engine.Evaluate(1.0);
  ASSERT_EQ(engine.transitions().size(), 1u);
  EXPECT_EQ(engine.transitions()[0].to, obs::AlertState::kFiring);
}

// Multi-window burn alerts AND their expressions: the short window alone
// must not page.
TEST(RulesTest, MultiWindowAlertNeedsEveryExpressionTrue) {
  obs::Tsdb tsdb;
  obs::RuleEngine engine(&tsdb);
  obs::AlertRule rule;
  rule.name = "both";
  rule.exprs = {"fast > 0", "slow > 0"};
  rule.for_s = 0.0;
  engine.AddAlert(std::move(rule));

  tsdb.Append("fast", {}, obs::MetricType::kGauge, 1.0, 1.0);
  tsdb.Append("slow", {}, obs::MetricType::kGauge, 1.0, 0.0);
  engine.Evaluate(1.0);
  EXPECT_TRUE(engine.transitions().empty());

  tsdb.Append("fast", {}, obs::MetricType::kGauge, 2.0, 1.0);
  tsdb.Append("slow", {}, obs::MetricType::kGauge, 2.0, 1.0);
  engine.Evaluate(2.0);
  ASSERT_EQ(engine.transitions().size(), 1u);
  EXPECT_EQ(engine.transitions()[0].to, obs::AlertState::kFiring);
}

TEST(RulesTest, RecordingRulesAppendDerivedSeries) {
  obs::Tsdb tsdb;
  obs::RuleEngine engine(&tsdb);
  obs::RecordingRule recording;
  recording.name = "job:m:sum";
  recording.expr = "sum(m)";
  engine.AddRecording(std::move(recording));

  tsdb.Append("m", {{"api", "a"}}, obs::MetricType::kGauge, 1.0, 2.0);
  tsdb.Append("m", {{"api", "b"}}, obs::MetricType::kGauge, 1.0, 3.0);
  engine.Evaluate(1.0);
  EXPECT_EQ(Scalar1(EvalInstant(tsdb, "job:m:sum", 1.0)), 5.0);
}

TEST(RulesTest, GoodputFloorRuleFiresOnlyBelowTheFloor) {
  // Starved store: goodput grows at 10 rps against a 100 rps floor.
  obs::Tsdb starved;
  obs::RuleEngine paging(&starved);
  paging.AddAlert(obs::GoodputFloorRule(100.0, /*for_s=*/2.0));
  // Healthy store: 200 rps clears the floor comfortably.
  obs::Tsdb healthy;
  obs::RuleEngine quiet(&healthy);
  quiet.AddAlert(obs::GoodputFloorRule(100.0, /*for_s=*/2.0));

  for (double t = 0.0; t <= 10.0; t += 1.0) {
    starved.Append("topfull_requests_good_total", {},
                   obs::MetricType::kCounter, t, 10.0 * t);
    healthy.Append("topfull_requests_good_total", {},
                   obs::MetricType::kCounter, t, 200.0 * t);
    if (t > 0.0) {
      paging.Evaluate(t);
      quiet.Evaluate(t);
    }
  }
  bool fired = false;
  for (const obs::AlertTransition& tr : paging.transitions()) {
    fired |= tr.to == obs::AlertState::kFiring;
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(quiet.transitions().empty());
}

TEST(RulesTest, SloBurnRulesPageOnBadFractionAndStayQuietOtherwise) {
  obs::Tsdb burning;
  obs::RuleEngine paging(&burning);
  obs::Tsdb fine;
  obs::RuleEngine quiet(&fine);
  for (obs::AlertRule& rule : obs::SloBurnRules()) {
    paging.AddAlert(rule);
    quiet.AddAlert(std::move(rule));
  }

  for (double t = 0.0; t <= 12.0; t += 1.0) {
    // Burning: half of all completions are bad (way past a 1% budget).
    burning.Append("topfull_requests_completed_total", {},
                   obs::MetricType::kCounter, t, 100.0 * t);
    burning.Append("topfull_requests_good_total", {},
                   obs::MetricType::kCounter, t, 50.0 * t);
    // Fine: everything succeeds.
    fine.Append("topfull_requests_completed_total", {},
                obs::MetricType::kCounter, t, 100.0 * t);
    fine.Append("topfull_requests_good_total", {},
                obs::MetricType::kCounter, t, 100.0 * t);
    if (t > 0.0) {
      paging.Evaluate(t);
      quiet.Evaluate(t);
    }
  }
  bool fast_fired = false;
  for (const obs::AlertTransition& tr : paging.transitions()) {
    fast_fired |= tr.rule == "slo_fast_burn" &&
                  tr.to == obs::AlertState::kFiring;
  }
  EXPECT_TRUE(fast_fired);
  EXPECT_TRUE(quiet.transitions().empty());

  // The alerts document stays valid JSON even with extreme values.
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(paging.AlertsJson(), &doc, &error)) << error;
}

TEST(RulesTest, NonFiniteAlertValuesStayValidJson) {
  obs::Tsdb tsdb;
  obs::RuleEngine engine(&tsdb);
  obs::AlertRule rule;
  rule.name = "div_zero";
  rule.exprs = {"1 / 0"};  // scalar +inf: truthy, and the recorded value
  rule.for_s = 0.0;
  engine.AddAlert(std::move(rule));
  engine.Evaluate(1.0);
  const std::string json = engine.AlertsJson();
  EXPECT_NE(json.find("\"inf\""), std::string::npos);
  obs::JsonValue doc;
  std::string error;
  EXPECT_TRUE(obs::ParseJson(json, &doc, &error)) << error << "\n" << json;
}

// --- The /query HTTP surface -------------------------------------------------

obs::HttpResponse Query(const obs::Tsdb& tsdb, const std::string& target) {
  obs::HttpRequest request;
  request.method = "GET";
  request.target = target;
  return obs::HandleQueryRequest(request, tsdb);
}

TEST(QueryHttpTest, ServesInstantAndRangeQueries) {
  obs::Tsdb tsdb;
  tsdb.Append("m", {{"api", "a"}}, obs::MetricType::kGauge, 5.0, 7.0);

  // Instant defaults to the store's latest sample time.
  const obs::HttpResponse instant = Query(tsdb, "/query?expr=m");
  EXPECT_EQ(instant.status, 200);
  EXPECT_EQ(instant.content_type, "application/json");
  EXPECT_NE(instant.body.find("[5,\"7\"]"), std::string::npos);

  // %-encoded expressions decode before parsing; `query=` is an alias.
  const obs::HttpResponse encoded =
      Query(tsdb, "/query?query=sum%28m%29&time=5");
  EXPECT_EQ(encoded.status, 200);
  EXPECT_NE(encoded.body.find("\"7\""), std::string::npos);

  const obs::HttpResponse range =
      Query(tsdb, "/query?expr=m&start=5&end=6&step=1");
  EXPECT_EQ(range.status, 200);
  EXPECT_NE(range.body.find("\"resultType\":\"matrix\""), std::string::npos);

  // An explicit time past the lookback yields an empty vector, not 404.
  const obs::HttpResponse empty = Query(tsdb, "/query?expr=m&time=100");
  EXPECT_EQ(empty.status, 200);
  EXPECT_NE(empty.body.find("\"result\":[]"), std::string::npos);
}

// A range query answers at most Prometheus's 11,000 points per series. A
// step below the resolution of the timestamps (1e17 + 1 == 1e17) never
// advances t; both queries below used to run without end.
TEST(QueryHttpTest, RangeQueriesBeyondElevenThousandPointsAreErrors) {
  obs::Tsdb tsdb;
  tsdb.Append("m", {}, obs::MetricType::kGauge, 1.0, 7.0);
  for (const char* target : {"/query?expr=m&start=1e17&end=1e17&step=1",
                             "/query?expr=m&start=0&end=1e12&step=1",
                             "/query?expr=m&start=0&end=11000&step=1"}) {
    const obs::HttpResponse response = Query(tsdb, target);
    EXPECT_EQ(response.status, 400) << target;
    EXPECT_NE(response.body.find("11000 points"), std::string::npos)
        << target << ": " << response.body;
  }
  const QueryResult most = EvalRange(tsdb, "1", 0.0, 10999.0, 1.0);
  ASSERT_TRUE(most.ok) << most.error;
  ASSERT_EQ(most.series.size(), 1u);
  EXPECT_EQ(most.series[0].points.size(), 11000u);
  EXPECT_EQ(most.series[0].points.back().t_s, 10999.0);
}

TEST(QueryHttpTest, RejectsBadRequestsWithTheJsonErrorEnvelope) {
  obs::Tsdb tsdb;
  const struct {
    const char* target;
    const char* expected;
  } cases[] = {
      {"/query", "missing expr parameter"},
      {"/query?expr=m&start=1&end=2", "numeric start, end and step"},
      {"/query?expr=m&start=1&end=2&step=0", "step must be positive"},
      {"/query?expr=m&start=9&end=2&step=1", "end precedes start"},
      {"/query?expr=m&time=yesterday", "bad time parameter"},
      {"/query?expr=m%7B", "parse error"},
  };
  for (const auto& c : cases) {
    const obs::HttpResponse response = Query(tsdb, c.target);
    EXPECT_EQ(response.status, 400) << c.target;
    EXPECT_NE(response.body.find("\"status\":\"error\""), std::string::npos)
        << c.target;
    EXPECT_NE(response.body.find(c.expected), std::string::npos)
        << c.target << ": " << response.body;
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::ParseJson(response.body, &doc, &error)) << response.body;
  }
}

}  // namespace
}  // namespace topfull
