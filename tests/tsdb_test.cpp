// Tests for the embedded time-series store: ring retention, ordering,
// counter-reset accounting, histogram expansion, and the JSON round trip
// the replay path depends on.
#include "obs/tsdb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/prom_parser.hpp"
#include "obs/snapshot.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull {
namespace {

obs::Tsdb MakeTsdb(std::size_t retention = 4096) {
  obs::TsdbOptions options;
  options.retention = retention;
  return obs::Tsdb(options);
}

TEST(TsdbTest, RingRetentionKeepsTheNewestSamples) {
  obs::Tsdb tsdb = MakeTsdb(/*retention=*/8);
  const obs::Labels labels = {{"api", "a"}};
  const std::size_t total = 20;
  for (std::size_t i = 1; i <= total; ++i) {
    EXPECT_TRUE(tsdb.Append("ring_total", labels, obs::MetricType::kCounter,
                            static_cast<double>(i), static_cast<double>(i)));
  }
  const auto all = tsdb.All();
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(all[0].samples.size(), 8u);
  // Oldest 12 evicted: the window is exactly the last `retention` appends,
  // still in ascending time order after the ring wrapped.
  EXPECT_EQ(all[0].samples.front().t_s, 13.0);
  EXPECT_EQ(all[0].samples.back().t_s, 20.0);
  for (std::size_t i = 1; i < all[0].samples.size(); ++i) {
    EXPECT_LT(all[0].samples[i - 1].t_s, all[0].samples[i].t_s);
  }
  const obs::TsdbStats stats = tsdb.stats();
  EXPECT_EQ(stats.series, 1u);
  EXPECT_EQ(stats.appended, total);
  EXPECT_EQ(stats.evicted, total - 8u);
  EXPECT_EQ(stats.out_of_order, 0u);
}

TEST(TsdbTest, OutOfOrderAppendsAreDroppedAndCounted) {
  obs::Tsdb tsdb = MakeTsdb();
  EXPECT_TRUE(tsdb.Append("g", {}, obs::MetricType::kGauge, 5.0, 1.0));
  EXPECT_FALSE(tsdb.Append("g", {}, obs::MetricType::kGauge, 5.0, 2.0));
  EXPECT_FALSE(tsdb.Append("g", {}, obs::MetricType::kGauge, 3.0, 3.0));
  EXPECT_TRUE(tsdb.Append("g", {}, obs::MetricType::kGauge, 6.0, 4.0));
  const auto all = tsdb.All();
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(all[0].samples.size(), 2u);
  EXPECT_EQ(all[0].samples[1].value, 4.0);
  EXPECT_EQ(tsdb.stats().out_of_order, 2u);
  EXPECT_EQ(tsdb.stats().appended, 2u);
}

TEST(TsdbTest, CounterResetsAreDetectedOnCountersOnly) {
  obs::Tsdb tsdb = MakeTsdb();
  const double counter[] = {0.0, 10.0, 20.0, 5.0, 15.0, 2.0};
  const double gauge[] = {9.0, 3.0, 7.0, 1.0};
  double t = 1.0;
  for (double v : counter) {
    tsdb.Append("c_total", {}, obs::MetricType::kCounter, t++, v);
  }
  for (double v : gauge) {
    tsdb.Append("depth", {}, obs::MetricType::kGauge, t++, v);
  }
  // Two drops in the counter count as resets; a gauge moving down never
  // does.
  EXPECT_EQ(tsdb.stats().counter_resets, 2u);
}

TEST(TsdbTest, IterationIsSortedByNameThenLabelKey) {
  obs::Tsdb tsdb = MakeTsdb();
  tsdb.Append("zz_total", {{"api", "b"}}, obs::MetricType::kCounter, 1.0, 1.0);
  tsdb.Append("aa_total", {{"api", "b"}}, obs::MetricType::kCounter, 1.0, 1.0);
  tsdb.Append("aa_total", {{"api", "a"}}, obs::MetricType::kCounter, 1.0, 1.0);
  tsdb.Append("mm", {}, obs::MetricType::kGauge, 1.0, 1.0);
  const auto all = tsdb.All();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "aa_total");
  EXPECT_EQ(all[0].labels[0].second, "a");
  EXPECT_EQ(all[1].name, "aa_total");
  EXPECT_EQ(all[1].labels[0].second, "b");
  EXPECT_EQ(all[2].name, "mm");
  EXPECT_EQ(all[3].name, "zz_total");

  const auto matched = tsdb.Match("aa_total", nullptr);
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ(matched[0].labels[0].second, "a");
  const auto filtered = tsdb.Match("aa_total", [](const obs::Labels& labels) {
    return labels[0].second == "b";
  });
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].labels[0].second, "b");
}

// The in-process RegistryFeed and scrape ingestion of the same registry
// must build the same store after every window: same keys, types, and
// values. Midway the registry gains new cells (a counter and a histogram)
// and a histogram bucket fills for the first time, so the feed has to
// re-plan and resolve a bucket lazily.
TEST(TsdbTest, RegistryFeedMatchesScrapeEveryWindow) {
  const obs::HistogramConfig config{0.1, 1e4, 8};
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("req_total", "Requests.", {{"api", "a"}});
  obs::Gauge* depth = registry.GetGauge("depth", "Depth.", {});
  obs::Histogram* latency = registry.GetHistogram("latency_ms", "Latency.", {}, config);
  obs::Counter* c = nullptr;
  obs::Histogram* latency_c = nullptr;

  obs::Tsdb fed = MakeTsdb();
  obs::RegistryFeed feed(&fed, &registry);
  obs::Tsdb scraped = MakeTsdb();
  for (int w = 1; w <= 6; ++w) {
    a->Inc(static_cast<std::uint64_t>(w));
    depth->Set(0.5 * w);
    latency->Record(1.0);
    if (w == 3) {
      c = registry.GetCounter("req_total", "Requests.", {{"api", "c"}});
      latency_c = registry.GetHistogram("latency_ms", "Latency.", {{"api", "c"}}, config);
      latency->Record(50.0);  // first sample in the 50 ms bucket
    }
    if (w == 5) latency->Record(2e9);  // overflow: only +Inf moves
    if (c != nullptr) c->Inc(2);
    if (latency_c != nullptr) latency_c->Record(8.0);

    const double t = static_cast<double>(w);
    feed.Append(t);
    obs::PromScrape scrape;
    std::string error;
    ASSERT_TRUE(obs::ParsePromText(obs::PromTextFromRegistry(registry), &scrape, &error))
        << error;
    scraped.AppendScrape(scrape, t);
    ASSERT_EQ(obs::TsdbJson(fed), obs::TsdbJson(scraped)) << "window " << w;
  }

  // The expansion is cumulative and ends with the authoritative +Inf
  // bucket equal to _count; the mid-run cells made it in.
  const auto buckets = fed.Match("latency_ms_bucket", nullptr);
  ASSERT_GE(buckets.size(), 4u);
  double inf_count = -1.0;
  for (const obs::SeriesSnapshot& series : buckets) {
    EXPECT_GE(series.samples.back().value, 0.0);
    if (series.labels == obs::Labels{{"le", "+Inf"}}) {
      inf_count = series.samples.back().value;
    }
  }
  const auto count =
      fed.Match("latency_ms_count", [](const obs::Labels& l) { return l.empty(); });
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(inf_count, count[0].samples.back().value);
  EXPECT_EQ(fed.Match("latency_ms_count", nullptr).size(), 2u);
  EXPECT_EQ(fed.Match("req_total", nullptr).size(), 2u);
}

TEST(TsdbTest, JsonRoundTripIsByteExact) {
  obs::Tsdb tsdb = MakeTsdb(/*retention=*/64);
  // Values chosen to exercise the %.17g path: non-representable decimals,
  // tiny magnitudes, and a counter reset.
  tsdb.Append("c_total", {{"api", "checkout"}}, obs::MetricType::kCounter, 1.0,
              0.1 + 0.2);
  tsdb.Append("c_total", {{"api", "checkout"}}, obs::MetricType::kCounter, 2.0,
              1.0 / 3.0);
  tsdb.Append("g", {{"q", "a\"b\\c\nd"}}, obs::MetricType::kGauge, 1.5,
              6.02214076e23);
  tsdb.Append("g", {{"q", "a\"b\\c\nd"}}, obs::MetricType::kGauge, 2.5,
              -1.7976931348623157e308);

  const std::string first = obs::TsdbJson(tsdb);
  std::string error;
  const auto reloaded = obs::TsdbFromJson(first, &error);
  ASSERT_NE(reloaded, nullptr) << error;
  EXPECT_EQ(obs::TsdbJson(*reloaded), first);
  EXPECT_EQ(reloaded->options().retention, 64u);
}

TEST(TsdbTest, NonFiniteSamplesRoundTripAsJsonStrings) {
  obs::Tsdb tsdb = MakeTsdb();
  tsdb.Append("limit", {}, obs::MetricType::kGauge, 1.0,
              std::numeric_limits<double>::infinity());
  tsdb.Append("limit", {}, obs::MetricType::kGauge, 2.0,
              -std::numeric_limits<double>::infinity());
  tsdb.Append("limit", {}, obs::MetricType::kGauge, 3.0,
              std::numeric_limits<double>::quiet_NaN());

  const std::string json = obs::TsdbJson(tsdb);
  // Bare `inf`/`nan` are not JSON; the store must emit quoted markers.
  EXPECT_EQ(json.find("[1,inf"), std::string::npos);
  EXPECT_NE(json.find("\"inf\""), std::string::npos);
  EXPECT_NE(json.find("\"-inf\""), std::string::npos);
  EXPECT_NE(json.find("\"nan\""), std::string::npos);

  std::string error;
  const auto reloaded = obs::TsdbFromJson(json, &error);
  ASSERT_NE(reloaded, nullptr) << error;
  const auto all = reloaded->All();
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(all[0].samples.size(), 3u);
  EXPECT_TRUE(std::isinf(all[0].samples[0].value));
  EXPECT_GT(all[0].samples[0].value, 0.0);
  EXPECT_TRUE(std::isinf(all[0].samples[1].value));
  EXPECT_LT(all[0].samples[1].value, 0.0);
  EXPECT_TRUE(std::isnan(all[0].samples[2].value));
  EXPECT_EQ(obs::TsdbJson(*reloaded), json);
}

TEST(TsdbTest, FromJsonRejectsMalformedDocuments) {
  std::string error;
  EXPECT_EQ(obs::TsdbFromJson("{\"schema\":\"nope\",\"series\":[]}", &error),
            nullptr);
  EXPECT_NE(error.find("topfull.tsdb.v1"), std::string::npos);
  EXPECT_EQ(obs::TsdbFromJson("{\"schema\":\"topfull.tsdb.v1\"}", &error),
            nullptr);
  EXPECT_NE(error.find("series"), std::string::npos);
  EXPECT_EQ(obs::TsdbFromJson(
                "{\"schema\":\"topfull.tsdb.v1\",\"series\":[{\"name\":\"x\","
                "\"type\":\"gauge\",\"labels\":{},\"samples\":[[1,\"huge\"]]}]}",
                &error),
            nullptr);
  EXPECT_NE(error.find("malformed sample"), std::string::npos);
}

// The dump's retention sizes every reloaded series' ring and its step paces
// rule evaluation, so each must be usable or the dump is malformed: read
// unchecked, a retention of -1 asked vector::reserve for SIZE_MAX samples
// and 1e300 was an undefined float-to-integer cast.
TEST(TsdbTest, FromJsonRejectsUnusableRetentionAndStep) {
  const auto dump = [](const std::string& key, const std::string& value) {
    return "{\"schema\":\"topfull.tsdb.v1\",\"" + key + "\":" + value +
           ",\"series\":[{\"name\":\"x\",\"type\":\"gauge\",\"labels\":{},"
           "\"samples\":[[1,2]]}]}";
  };
  for (const std::string bad : {"-1", "0", "2.5", "1e300", "\"inf\"", "1048577"}) {
    std::string error;
    EXPECT_EQ(obs::TsdbFromJson(dump("retention", bad), &error), nullptr) << bad;
    EXPECT_NE(error.find("retention must be a whole number from 1 to 1048576"),
              std::string::npos)
        << bad << ": " << error;
  }
  for (const std::string bad : {"0", "-1", "\"inf\"", "null"}) {
    std::string error;
    EXPECT_EQ(obs::TsdbFromJson(dump("step_s", bad), &error), nullptr) << bad;
    EXPECT_NE(error.find("step_s must be a finite positive number"), std::string::npos)
        << bad << ": " << error;
  }
  // The bounds themselves load.
  for (const std::string good : {"1", "1048576"}) {
    std::string error;
    const auto tsdb = obs::TsdbFromJson(dump("retention", good), &error);
    ASSERT_NE(tsdb, nullptr) << good << ": " << error;
    EXPECT_EQ(tsdb->options().retention, std::stoull(good));
  }
  std::string error;
  const auto tsdb = obs::TsdbFromJson(dump("step_s", "0.5"), &error);
  ASSERT_NE(tsdb, nullptr) << error;
  EXPECT_EQ(tsdb->options().step_s, 0.5);
}

}  // namespace
}  // namespace topfull
