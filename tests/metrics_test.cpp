// Tests for the streaming metrics engine: log-bucketed histograms, the
// per-application metrics registry, and the Prometheus text-exposition
// renderer (escaping + golden output).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/text_buffer.hpp"

namespace topfull {
namespace {

// --- Histogram ---------------------------------------------------------------

TEST(MetricsTest, EmptyHistogramReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

TEST(MetricsTest, HistogramExactMomentsAndClampedPercentiles) {
  obs::Histogram h;
  h.Record(7.25);
  h.Record(7.25);
  h.RecordN(7.25, 98);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 725.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 7.25);
  EXPECT_DOUBLE_EQ(h.min(), 7.25);
  EXPECT_DOUBLE_EQ(h.max(), 7.25);
  // All samples equal: every quantile must clamp to the exact value.
  for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 7.25) << "p=" << p;
  }
}

TEST(MetricsTest, HistogramPercentileErrorBoundedBySubBuckets) {
  obs::HistogramConfig config;
  config.min_value = 1e-3;
  config.max_value = 1e6;
  config.sub_buckets = 32;
  obs::Histogram h(config);
  for (int v = 1; v <= 1000; ++v) h.Record(static_cast<double>(v));
  // Percentile returns a bucket upper bound >= the true quantile and within
  // one sub-bucket slice above it: relative error <= 1/sub_buckets.
  const double rel = 1.0 / config.sub_buckets;
  struct Case { double p; double exact; };
  for (const Case c : {Case{50, 500}, Case{95, 950}, Case{99, 990}}) {
    const double est = h.Percentile(c.p);
    EXPECT_GE(est, c.exact) << "p=" << c.p;
    EXPECT_LE(est, c.exact * (1.0 + rel) + 1e-9) << "p=" << c.p;
  }
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);  // clamped to the exact max
}

TEST(MetricsTest, HistogramUnderflowAndOverflowNeverLoseSamples) {
  obs::HistogramConfig config;
  config.min_value = 1.0;
  config.max_value = 100.0;
  obs::Histogram h(config);
  h.Record(0.25);   // underflow
  h.Record(1e9);    // overflow
  h.Record(10.0);   // in range
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.25 + 1e9 + 10.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_EQ(h.BucketCount(0), 1u);                   // underflow bucket
  EXPECT_EQ(h.BucketCount(h.NumBuckets() - 1), 1u);  // overflow bucket
  EXPECT_TRUE(std::isinf(h.UpperBound(h.NumBuckets() - 1)));
  // The top percentile clamps to the exact observed max, not +Inf.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1e9);
}

TEST(MetricsTest, HistogramMergeMatchesCombinedRecording) {
  obs::HistogramConfig config;
  config.sub_buckets = 8;
  obs::Histogram evens(config), odds(config), all(config);
  for (int v = 1; v <= 1000; ++v) {
    (v % 2 == 0 ? evens : odds).Record(static_cast<double>(v));
    all.Record(static_cast<double>(v));
  }
  evens.Merge(odds);
  EXPECT_EQ(evens.count(), all.count());
  EXPECT_DOUBLE_EQ(evens.sum(), all.sum());
  EXPECT_DOUBLE_EQ(evens.min(), all.min());
  EXPECT_DOUBLE_EQ(evens.max(), all.max());
  ASSERT_EQ(evens.NumBuckets(), all.NumBuckets());
  for (int b = 0; b < all.NumBuckets(); ++b) {
    EXPECT_EQ(evens.BucketCount(b), all.BucketCount(b)) << "bucket " << b;
  }
  for (const double p : {50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(evens.Percentile(p), all.Percentile(p)) << "p=" << p;
  }
}

TEST(MetricsTest, HistogramResetClearsEverything) {
  obs::Histogram h;
  h.Record(3.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  for (int b = 0; b < h.NumBuckets(); ++b) EXPECT_EQ(h.BucketCount(b), 0u);
}

// --- Registry ----------------------------------------------------------------

TEST(MetricsTest, RegistryHandlesAreStableAndCached) {
  obs::MetricsRegistry registry;
  obs::Counter* c1 = registry.GetCounter("topfull_x_total", "X.", {{"api", "a"}});
  obs::Counter* c2 = registry.GetCounter("topfull_x_total", "X.", {{"api", "a"}});
  EXPECT_EQ(c1, c2) << "same name+labels must resolve to the same cell";
  obs::Counter* other = registry.GetCounter("topfull_x_total", "X.", {{"api", "b"}});
  EXPECT_NE(c1, other);
  c1->Inc(41);
  c1->Inc();
  const obs::MetricsRegistry::Cell* found =
      registry.Find("topfull_x_total", {{"api", "a"}});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->counter.value(), 42u);
  EXPECT_EQ(registry.Find("topfull_x_total", {{"api", "zzz"}}), nullptr);
  EXPECT_EQ(registry.Find("topfull_absent_total"), nullptr);
}

TEST(MetricsTest, RegistryFamiliesIterateInSortedOrder) {
  obs::MetricsRegistry registry;
  registry.GetGauge("topfull_c", "C.");
  registry.GetCounter("topfull_a_total", "A.");
  registry.GetHistogram("topfull_b_ms", "B.");
  std::vector<std::string> names;
  for (const auto& [name, family] : registry.families()) names.push_back(name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"topfull_a_total", "topfull_b_ms", "topfull_c"}));
  EXPECT_EQ(registry.FamilyCount(), 3u);
}

TEST(MetricsTest, RegistryLabelKeyIsCanonical) {
  EXPECT_EQ(obs::MetricsRegistry::LabelKey({}), "");
  EXPECT_EQ(obs::MetricsRegistry::LabelKey({{"api", "a"}}), "api=a");
  EXPECT_EQ(obs::MetricsRegistry::LabelKey({{"api", "a"}, {"svc", "b"}}),
            "api=a,svc=b");
}

// --- Prometheus text exposition ----------------------------------------------

TEST(MetricsTest, PromEscapingFollowsTextExpositionSpec) {
  EXPECT_EQ(obs::PromEscapeLabel("plain"), "plain");
  EXPECT_EQ(obs::PromEscapeLabel("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  // HELP text escapes backslash and newline but not quotes.
  EXPECT_EQ(obs::PromEscapeHelp("a\"b\\c\nd"), "a\"b\\\\c\\nd");
}

TEST(MetricsTest, PromTextGoldenRendering) {
  obs::MetricsRegistry registry;
  obs::Counter* checkout = registry.GetCounter(
      "topfull_demo_requests_total", "Requests with \"quotes\" and \\ backslash.",
      {{"api", "checkout"}});
  checkout->Inc(3);
  registry
      .GetCounter("topfull_demo_requests_total", "ignored (first help wins)",
                  {{"api", "weird\"name\\x\ny"}})
      ->Inc();
  registry.GetGauge("topfull_demo_temperature", "Line one\nline two.")->Set(2.5);
  registry.GetGauge("topfull_demo_temperature", "", {{"kind", "inf"}})
      ->Set(std::numeric_limits<double>::infinity());
  registry.GetHistogram("topfull_demo_latency_ms", "Latency distribution.");

  const std::string expected =
      "# HELP topfull_demo_latency_ms Latency distribution.\n"
      "# TYPE topfull_demo_latency_ms histogram\n"
      "topfull_demo_latency_ms_bucket{le=\"+Inf\"} 0\n"
      "topfull_demo_latency_ms_sum 0\n"
      "topfull_demo_latency_ms_count 0\n"
      "# HELP topfull_demo_requests_total Requests with \"quotes\" and \\\\ "
      "backslash.\n"
      "# TYPE topfull_demo_requests_total counter\n"
      "topfull_demo_requests_total{api=\"checkout\"} 3\n"
      "topfull_demo_requests_total{api=\"weird\\\"name\\\\x\\ny\"} 1\n"
      "# HELP topfull_demo_temperature Line one\\nline two.\n"
      "# TYPE topfull_demo_temperature gauge\n"
      "topfull_demo_temperature 2.5\n"
      "topfull_demo_temperature{kind=\"inf\"} +Inf\n";
  EXPECT_EQ(obs::PromTextFromRegistry(registry), expected);
}

TEST(MetricsTest, PromHistogramBucketsAreCumulativeAndEndAtInf) {
  obs::MetricsRegistry registry;
  obs::HistogramConfig config;
  config.min_value = 1.0;
  config.max_value = 64.0;
  config.sub_buckets = 2;
  obs::Histogram* h = registry.GetHistogram("topfull_demo_wait_ms", "Wait.",
                                            {{"svc", "frontend"}}, config);
  h->Record(1.1);
  h->Record(3.0);
  h->Record(3.0);
  h->Record(1e9);  // overflow: counted only by the +Inf bucket
  const std::string text = obs::PromTextFromRegistry(registry);

  // Parse the bucket series back out and check cumulative monotonicity.
  std::vector<std::pair<double, std::uint64_t>> buckets;
  std::size_t pos = 0;
  const std::string needle = "topfull_demo_wait_ms_bucket{svc=\"frontend\",le=\"";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const std::size_t quote = text.find('"', pos);
    const std::string le = text.substr(pos, quote - pos);
    const std::size_t space = text.find(' ', quote);
    const std::size_t eol = text.find('\n', space);
    buckets.emplace_back(le == "+Inf" ? std::numeric_limits<double>::infinity()
                                      : std::stod(le),
                         std::stoull(text.substr(space + 1, eol - space - 1)));
  }
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_TRUE(std::isinf(buckets.back().first)) << "+Inf bucket must be last";
  EXPECT_EQ(buckets.back().second, 4u) << "+Inf bucket carries the total count";
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1].first, buckets[i].first);
    EXPECT_LE(buckets[i - 1].second, buckets[i].second) << "not cumulative";
  }
  EXPECT_NE(text.find("topfull_demo_wait_ms_sum{svc=\"frontend\"} "),
            std::string::npos);
  EXPECT_NE(text.find("topfull_demo_wait_ms_count{svc=\"frontend\"} 4\n"),
            std::string::npos);
}

// --- Number formatting ---------------------------------------------------------

std::string Printf(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string Exact(double v) {
  std::string out;
  obs::AppendDouble(out, v, 17);
  return out;
}

std::string Digits(double v, int precision) {
  std::string out;
  obs::AppendDouble(out, v, precision);
  return out;
}

// Every exporter formats numbers through std::to_chars; the artifact bytes
// rest on it matching the printf forms they were first written with:
// %.10g (display), %.17g (TSDB samples), %.6g (the CSV timeline's
// iostream default) and %llu.
TEST(MetricsTest, ToCharsFormattingMatchesPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> corpus = {
      0.0, -0.0, 1.0, -1.0, 7.0, 42.0, 1e6, 123456789.0, 1234567890.0,
      12345678901.0, 9007199254740992.0, 0.1, 0.5, 1.0 / 3.0, -2.0 / 3.0,
      1e-9, 1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17, 1e21, -1e21, 1e22, 1e100,
      1e-300, std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      DBL_MIN, DBL_MAX, -DBL_MAX, inf, -inf, nan, -nan,
      // exactly 10 significant digits, and 10-digit rounding boundaries
      1.234567891, 0.1234567891, 1234567.891, 9.9999999995, 0.99999999995,
      999999999.95, 9999999999.5,
      // exactly 17 significant digits
      1.2345678901234567, 12345.678901234567, 0.12345678901234567,
      // ties and short binary fractions
      1.5, 2.5, 0.125, 1234.5, 0.000125};
  // Plus a fixed-seed sweep over raw bit patterns (every exponent).
  std::mt19937_64 rng(20240817);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    corpus.push_back(v);
  }
  for (const double v : corpus) {
    const std::string tag = Printf("%a", v);
    ASSERT_EQ(obs::Num(v), Printf("%.10g", v)) << tag;
    ASSERT_EQ(Exact(v), Printf("%.17g", v)) << tag;
    ASSERT_EQ(Digits(v, 6), Printf("%.6g", v)) << tag;
  }

  const std::uint64_t integers[] = {0u, 1u, 9u, 10u, 99u, 12345u,
                                    4294967295u, 9007199254740993u,
                                    std::numeric_limits<std::uint64_t>::max() - 1,
                                    std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t u : integers) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(u));
    EXPECT_EQ(obs::U64(u), buf);
  }

  // JSON bodies spell non-finite values as strings.
  EXPECT_EQ(obs::JsonDouble(0.25), "0.25");
  EXPECT_EQ(obs::JsonDouble(inf), "\"inf\"");
  EXPECT_EQ(obs::JsonDouble(-inf), "\"-inf\"");
  EXPECT_EQ(obs::JsonDouble(-nan), "\"nan\"");
}

}  // namespace
}  // namespace topfull
