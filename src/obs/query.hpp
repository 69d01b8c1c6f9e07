// PromQL-subset evaluator over the embedded TSDB (tsdb.hpp).
//
// Supported grammar (recursive descent, Prometheus precedence):
//
//   expr        := comparison
//   comparison  := additive (("=="|"!="|"<"|"<="|">"|">=") additive)?
//   additive    := multiplicative (("+"|"-") multiplicative)*
//   multiplicative := unary (("*"|"/") unary)*
//   unary       := "-" unary | primary
//   primary     := number | "(" expr ")" | aggregation | function | selector
//   aggregation := ("sum"|"avg"|"min"|"max") by? "(" expr ")" by?
//   by          := "by" "(" label ("," label)* ")"
//   function    := name "(" expr ("," expr)* ")"
//                  with name in rate, increase, avg_over_time,
//                  min_over_time, max_over_time, sum_over_time,
//                  histogram_quantile
//   selector    := metric ("{" matcher ("," matcher)* "}")? ("[" dur "]")?
//   matcher     := label ("="|"!="|"=~"|"!~") "quoted"
//   dur         := number ("s"|"m"|"h")?      (bare numbers are seconds)
//
// Semantics (documented deltas from Prometheus, all in the direction of
// determinism and small-sample honesty):
//   * An instant selector returns the most recent sample within
//     `EvalOptions::lookback_s` of the evaluation time.
//   * `rate(m[w])` needs >= 2 samples in (t-w, t]; `increase` sums
//     per-step deltas with counter resets compensated (a negative delta
//     contributes the new value), and `rate` divides by the *covered*
//     sample span, not the nominal window — no extrapolation, no startup
//     dip while the window fills.
//   * `histogram_quantile(phi, v)` groups by labels-minus-`le`, linearly
//     interpolates inside the owning bucket, and answers the highest
//     finite bound when the rank lands in `+Inf` — the documented error
//     vs obs::Histogram::Percentile is one sub-bucket width.
//   * Vector-vector binary ops join on exact label-set equality;
//     comparisons filter (vector) or yield 0/1 (scalar).
//   * Output series are sorted by canonical label key; the metric name is
//     dropped from result label sets (like Prometheus after any function).
//
// Evaluation only ever looks backward from the evaluation timestamp, so
// re-evaluating a time T after later samples arrived gives the identical
// answer.
#pragma once

#include <string>
#include <vector>

#include "obs/tsdb.hpp"

namespace topfull::obs {

struct EvalOptions {
  /// Instant-selector staleness horizon: samples older than this many
  /// seconds before the evaluation time are invisible.
  double lookback_s = 10.0;
};

/// One output series: labels plus either a single (instant) or many
/// (range-query) points.
struct QuerySeries {
  Labels labels;
  std::string label_key;
  std::vector<TsdbSample> points;
};

struct QueryResult {
  bool ok = false;
  std::string error;  ///< parse/eval failure, with expression offset
  enum class Type { kScalar, kVector, kMatrix } type = Type::kVector;
  /// kScalar: one unlabeled series with one point. kVector: one point per
  /// series. kMatrix: step-aligned points per series.
  std::vector<QuerySeries> series;
};

/// Evaluates `expr` at the single timestamp `t_s`.
QueryResult EvalInstant(const Tsdb& tsdb, const std::string& expr, double t_s,
                        const EvalOptions& options = {});

/// Evaluates `expr` at every step in [start_s, end_s] (inclusive,
/// `step_s` apart), merging per-series points into a matrix.
QueryResult EvalRange(const Tsdb& tsdb, const std::string& expr,
                      double start_s, double end_s, double step_s,
                      const EvalOptions& options = {});

/// Renders a result in the Prometheus HTTP API shape:
/// {"status":"success","data":{"resultType":...,"result":[...]}} with
/// values as strings, or {"status":"error","error":...} for failures.
std::string QueryResultJson(const QueryResult& result);

}  // namespace topfull::obs
