// Embedded fixed-memory time-series store for the observability plane.
//
// One Tsdb holds many series, each keyed by (family name, canonical label
// key — MetricsRegistry::LabelKey order) and backed by an append-only ring
// of (sim-time, value) samples with a fixed per-series capacity: memory is
// bounded by series x retention regardless of run length, and the oldest
// samples are evicted first. Two ingestion paths feed it:
//
//   * in-process: a RegistryFeed flattens a live MetricsRegistry at each
//     window's sim-time stamp — histogram cells expand into the same
//     cumulative `_bucket{le=...}` / `_sum` / `_count` series the
//     Prometheus text exposition renders (empty buckets elided, `+Inf`
//     always present), so the TSDB, the text endpoint, and the query
//     engine agree on keys;
//   * out-of-process: AppendScrape ingests a parsed Prometheus scrape
//     (prom_parser.hpp), the ingestion half of the standalone runtime mode.
//
// Samples must arrive in nondecreasing time order per series; a sample at
// or before the series tail is dropped and counted, never reordered.
// Counter resets (a cumulative series going backwards) are detected on
// append and counted per series; rate()/increase() in the query engine
// compensate for them.
//
// Determinism: iteration (Match, TsdbJson) is sorted by (name, label key),
// values are formatted with the same locale-independent printf forms as
// the rest of the plane, and nothing here reads wall-clock time — a TSDB
// fed from sim-time window closes serialises byte-identically across
// TOPFULL_THREADS and shard-worker interleavings. All public methods are
// thread-safe (one mutex), so the HTTP query thread may read mid-run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace topfull::obs {

struct PromScrape;  // prom_parser.hpp
class TextBuffer;   // text_buffer.hpp

struct TsdbOptions {
  /// Nominal sample spacing in seconds (the metrics-window cadence). The
  /// store does not enforce it; rule evaluation and artifact metadata use
  /// it.
  double step_s = 1.0;
  /// Ring capacity per series: samples retained before eviction.
  std::size_t retention = 4096;
};

/// One timestamped value of a series.
struct TsdbSample {
  double t_s = 0.0;
  double value = 0.0;
};

/// A copied-out view of one series, returned by Match (time-ascending).
struct SeriesSnapshot {
  std::string name;
  Labels labels;
  std::string label_key;  ///< MetricsRegistry::LabelKey(labels)
  MetricType type = MetricType::kGauge;
  std::vector<TsdbSample> samples;
};

/// Aggregate store counters (diagnostics + property tests).
struct TsdbStats {
  std::size_t series = 0;
  std::uint64_t appended = 0;      ///< samples accepted
  std::uint64_t evicted = 0;       ///< samples overwritten by the ring
  std::uint64_t out_of_order = 0;  ///< samples dropped (t <= series tail)
  std::uint64_t counter_resets = 0;
};

class Tsdb {
 public:
  explicit Tsdb(TsdbOptions options = {});

  /// Appends one sample. Creates the series (with `type`) on first use;
  /// later appends ignore `type`. Returns false when dropped out-of-order.
  bool Append(const std::string& name, const Labels& labels, MetricType type,
              double t_s, double value);

  /// Ingests a parsed Prometheus scrape at time `t_s`. Histogram families
  /// arrive pre-flattened (their samples already carry `le`); every sample
  /// of a histogram family is stored as a counter series.
  void AppendScrape(const PromScrape& scrape, double t_s);

  /// Copies out every series named `name` (exact match) whose labels pass
  /// `pred` (null = all), sorted by label key. One lock per call.
  std::vector<SeriesSnapshot> Match(
      const std::string& name,
      const std::function<bool(const Labels&)>& pred = nullptr) const;

  /// Copies out every series, sorted by (name, label key).
  std::vector<SeriesSnapshot> All() const;

  /// Largest sample time across all series (0 when empty): the "now" an
  /// instant query defaults to.
  double LatestTime() const;

  TsdbStats stats() const;
  const TsdbOptions& options() const { return options_; }

  /// Renders the whole store as the "topfull.tsdb.v1" JSON document under
  /// one lock (see TsdbJson).
  void RenderJson(TextBuffer& out) const;

 private:
  friend class RegistryFeed;

  struct Series {
    Labels labels;
    MetricType type = MetricType::kGauge;
    std::vector<TsdbSample> ring;  ///< capacity `retention`, oldest at head
    std::size_t head = 0;
    std::size_t size = 0;
    std::uint64_t resets = 0;
  };

  Series& GetSeries(const std::string& name, const Labels& labels,
                    MetricType type);
  bool AppendLocked(Series& series, double t_s, double value);
  SeriesSnapshot CopyOut(const std::pair<std::string, std::string>& key,
                         const Series& series) const;

  TsdbOptions options_;
  mutable std::mutex mu_;
  /// Keyed by (family name, canonical label key): sorted, deterministic.
  std::map<std::pair<std::string, std::string>, Series> series_;
  std::uint64_t appended_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t out_of_order_ = 0;
};

/// The in-process feed: appends every cell of one registry to a Tsdb at
/// each call, flattened exactly like the text exposition (and therefore
/// exactly like AppendScrape of that exposition). `extra` labels are
/// appended to every series (the sharded plane passes {{"shard", "k"}}).
///
/// The feed resolves each cell to its series handle once and keeps the
/// plan until the registry creates a new cell (MetricsRegistry::
/// cells_created); a histogram bucket's series is resolved, and its `le`
/// formatted, the first time the bucket is non-empty. Series are never
/// erased, so the handles stay valid. Each Append then reads the values
/// and appends them under one store lock. Call Append on the thread that
/// updates the registry.
class RegistryFeed {
 public:
  RegistryFeed(Tsdb* tsdb, const MetricsRegistry* registry, Labels extra = {});

  void Append(double t_s);

 private:
  struct Scalar {
    const MetricsRegistry::Cell* cell = nullptr;
    bool counter = false;
    Tsdb::Series* series = nullptr;
  };
  struct HistogramSeries {
    const Histogram* histogram = nullptr;
    std::string bucket_name;             ///< family name + "_bucket"
    Labels labels;                       ///< cell labels + extra
    std::vector<Tsdb::Series*> buckets;  ///< finite buckets, null until used
    Tsdb::Series* inf = nullptr;
    Tsdb::Series* sum = nullptr;
    Tsdb::Series* count = nullptr;
  };

  void Plan();
  Tsdb::Series* Bucket(HistogramSeries& h, int b);

  Tsdb* tsdb_;
  const MetricsRegistry* registry_;
  Labels extra_;
  std::uint64_t planned_cells_ = 0;  ///< registry cells_created() at Plan
  std::vector<Scalar> scalars_;
  std::vector<HistogramSeries> histograms_;
};

/// Serialises the whole store as the "topfull.tsdb.v1" JSON document
/// (options, stats, series with `%.17g` sample values so reloading
/// round-trips bit-exactly).
std::string TsdbJson(const Tsdb& tsdb);

}  // namespace topfull::obs
