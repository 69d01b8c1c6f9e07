#include "obs/tsdb.hpp"

#include <algorithm>

#include "obs/prom_parser.hpp"
#include "obs/text_buffer.hpp"

namespace topfull::obs {

namespace {

bool IsCumulative(MetricType type) { return type == MetricType::kCounter; }

}  // namespace

Tsdb::Tsdb(TsdbOptions options) : options_(options) {
  if (options_.retention == 0) options_.retention = 1;
  if (options_.step_s <= 0.0) options_.step_s = 1.0;
}

Tsdb::Series& Tsdb::GetSeries(const std::string& name, const Labels& labels,
                              MetricType type) {
  const auto key = std::make_pair(name, MetricsRegistry::LabelKey(labels));
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series{}).first;
    it->second.labels = labels;
    it->second.type = type;
    it->second.ring.reserve(options_.retention);
  }
  return it->second;
}

bool Tsdb::AppendLocked(Series& series, double t_s, double value) {
  if (series.size > 0) {
    const std::size_t tail =
        (series.head + series.size - 1) % options_.retention;
    const TsdbSample& last = series.ring[tail];
    if (t_s <= last.t_s) {
      ++out_of_order_;
      return false;
    }
    if (IsCumulative(series.type) && value < last.value) ++series.resets;
  }
  const TsdbSample sample{t_s, value};
  if (series.ring.size() < options_.retention) {
    series.ring.push_back(sample);
    ++series.size;
  } else if (series.size < options_.retention) {
    // The ring is at capacity but logically not full (cannot happen with
    // append-only growth, kept for safety).
    series.ring[(series.head + series.size) % options_.retention] = sample;
    ++series.size;
  } else {
    series.ring[series.head] = sample;  // overwrite the oldest
    series.head = (series.head + 1) % options_.retention;
    ++evicted_;
  }
  ++appended_;
  return true;
}

bool Tsdb::Append(const std::string& name, const Labels& labels,
                  MetricType type, double t_s, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(GetSeries(name, labels, type), t_s, value);
}

void Tsdb::AppendScrape(const PromScrape& scrape, double t_s) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PromFamily& family : scrape.families) {
    for (const PromSample& sample : family.samples) {
      // Histogram families arrive pre-flattened; their suffixed series
      // (_bucket/_sum/_count) are cumulative and behave as counters.
      const MetricType type = family.type == MetricType::kGauge
                                  ? MetricType::kGauge
                                  : MetricType::kCounter;
      AppendLocked(GetSeries(sample.name, sample.labels, type), t_s,
                   sample.value);
    }
  }
}

SeriesSnapshot Tsdb::CopyOut(const std::pair<std::string, std::string>& key,
                             const Series& series) const {
  SeriesSnapshot out;
  out.name = key.first;
  out.label_key = key.second;
  out.labels = series.labels;
  out.type = series.type;
  out.samples.reserve(series.size);
  for (std::size_t i = 0; i < series.size; ++i) {
    out.samples.push_back(series.ring[(series.head + i) % options_.retention]);
  }
  return out;
}

std::vector<SeriesSnapshot> Tsdb::Match(
    const std::string& name,
    const std::function<bool(const Labels&)>& pred) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesSnapshot> out;
  // Series sharing a name are contiguous in the sorted map.
  for (auto it = series_.lower_bound({name, std::string()});
       it != series_.end() && it->first.first == name; ++it) {
    if (pred && !pred(it->second.labels)) continue;
    out.push_back(CopyOut(it->first, it->second));
  }
  return out;
}

std::vector<SeriesSnapshot> Tsdb::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) out.push_back(CopyOut(key, series));
  return out;
}

double Tsdb::LatestTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  double latest = 0.0;
  for (const auto& [key, series] : series_) {
    if (series.size == 0) continue;
    const std::size_t tail =
        (series.head + series.size - 1) % options_.retention;
    latest = std::max(latest, series.ring[tail].t_s);
  }
  return latest;
}

TsdbStats Tsdb::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TsdbStats stats;
  stats.series = series_.size();
  stats.appended = appended_;
  stats.evicted = evicted_;
  stats.out_of_order = out_of_order_;
  for (const auto& [key, series] : series_) stats.counter_resets += series.resets;
  return stats;
}

void Tsdb::RenderJson(TextBuffer& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t counter_resets = 0;
  for (const auto& [key, series] : series_) counter_resets += series.resets;
  out << "{\"schema\":\"topfull.tsdb.v1\",\"step_s\":";
  out.Num(options_.step_s) << ",\"retention\":";
  out.U64(options_.retention) << ",\"stats\":{\"series\":";
  out.U64(series_.size()) << ",\"appended\":";
  out.U64(appended_) << ",\"evicted\":";
  out.U64(evicted_) << ",\"out_of_order\":";
  out.U64(out_of_order_) << ",\"counter_resets\":";
  out.U64(counter_resets) << "},\"series\":[";
  bool first_series = true;
  for (const auto& [key, series] : series_) {
    out << (first_series ? "\n{\"name\":\"" : ",\n{\"name\":\"");
    first_series = false;
    out.Json(key.first) << "\",\"type\":\"" << MetricTypeName(series.type)
                        << "\",\"labels\":{";
    for (std::size_t i = 0; i < series.labels.size(); ++i) {
      out << (i > 0 ? ",\"" : "\"");
      out.Json(series.labels[i].first) << "\":\"";
      out.Json(series.labels[i].second) << "\"";
    }
    out << "},\"samples\":[";
    for (std::size_t i = 0; i < series.size; ++i) {
      const TsdbSample& sample =
          series.ring[(series.head + i) % options_.retention];
      // %.17g reconstructs any finite double bit-exactly, which the
      // live-vs-replay equality contract depends on.
      out << (i > 0 ? ",[" : "[");
      out.JsonNum(sample.t_s, 17) << ",";
      out.JsonNum(sample.value, 17) << "]";
    }
    out << "]}";
  }
  out << "\n]}\n";
}

std::string TsdbJson(const Tsdb& tsdb) {
  TextBuffer out;
  tsdb.RenderJson(out);
  return out.Take();
}

// --- RegistryFeed -------------------------------------------------------------

RegistryFeed::RegistryFeed(Tsdb* tsdb, const MetricsRegistry* registry,
                           Labels extra)
    : tsdb_(tsdb), registry_(registry), extra_(std::move(extra)) {}

void RegistryFeed::Plan() {
  scalars_.clear();
  histograms_.clear();
  for (const auto& [name, family] : registry_->families()) {
    for (const auto& [key, cell] : family.cells) {
      Labels labels = cell->labels;
      labels.insert(labels.end(), extra_.begin(), extra_.end());
      if (family.type != MetricType::kHistogram) {
        const bool counter = family.type == MetricType::kCounter;
        scalars_.push_back({cell.get(), counter,
                            &tsdb_->GetSeries(name, labels, family.type)});
        continue;
      }
      if (cell->histogram == nullptr) continue;
      // All derived series are cumulative, hence stored as counters.
      HistogramSeries h;
      h.histogram = cell->histogram.get();
      h.bucket_name = name + "_bucket";
      h.buckets.assign(static_cast<std::size_t>(h.histogram->NumBuckets() - 1),
                       nullptr);
      h.sum = &tsdb_->GetSeries(name + "_sum", labels, MetricType::kCounter);
      h.count = &tsdb_->GetSeries(name + "_count", labels, MetricType::kCounter);
      labels.emplace_back("le", "+Inf");
      h.inf = &tsdb_->GetSeries(h.bucket_name, labels, MetricType::kCounter);
      labels.pop_back();
      h.labels = std::move(labels);
      histograms_.push_back(std::move(h));
    }
  }
  planned_cells_ = registry_->cells_created();
}

Tsdb::Series* RegistryFeed::Bucket(HistogramSeries& h, int b) {
  Tsdb::Series*& series = h.buckets[static_cast<std::size_t>(b)];
  if (series == nullptr) {
    Labels labels = h.labels;
    labels.emplace_back("le", Num(h.histogram->UpperBound(b)));
    series = &tsdb_->GetSeries(h.bucket_name, labels, MetricType::kCounter);
  }
  return series;
}

void RegistryFeed::Append(double t_s) {
  std::lock_guard<std::mutex> lock(tsdb_->mu_);
  if (registry_->cells_created() != planned_cells_) Plan();
  for (const Scalar& s : scalars_) {
    tsdb_->AppendLocked(*s.series, t_s,
                        s.counter ? static_cast<double>(s.cell->counter.value())
                                  : s.cell->gauge.value());
  }
  for (HistogramSeries& h : histograms_) {
    // Mirror the text exposition exactly: cumulative buckets with empty
    // ones elided, `+Inf` always present, then _sum/_count.
    const Histogram& histogram = *h.histogram;
    std::uint64_t cumulative = 0;
    for (int b = 0; b + 1 < histogram.NumBuckets(); ++b) {
      const std::uint64_t in_bucket = histogram.BucketCount(b);
      if (in_bucket == 0) continue;
      cumulative += in_bucket;
      tsdb_->AppendLocked(*Bucket(h, b), t_s, static_cast<double>(cumulative));
    }
    const double count = static_cast<double>(histogram.count());
    tsdb_->AppendLocked(*h.inf, t_s, count);
    tsdb_->AppendLocked(*h.sum, t_s, histogram.sum());
    tsdb_->AppendLocked(*h.count, t_s, count);
  }
}

}  // namespace topfull::obs
