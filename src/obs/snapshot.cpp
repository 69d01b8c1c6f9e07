#include "obs/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/text_buffer.hpp"

namespace topfull::obs {

namespace {

/// Sample-value rendering: Prometheus spells out non-finite values.
std::string PromNum(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return Num(v);
}

/// Renders a label set as {k1="v1",k2="v2"}; empty string for no labels.
/// `extra_key`/`extra_value` append one more pair (the histogram `le`).
std::string PromLabels(const Labels& labels, const char* extra_key = nullptr,
                       const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + PromEscapeLabel(v) + "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + PromEscapeLabel(extra_value) + "\"";
  }
  return out + "}";
}

void RenderHistogramCell(const std::string& name,
                         const MetricsSnapshot::Cell& cell, std::string* out) {
  const Histogram& h = *cell.histogram;
  // Cumulative bucket series. Empty buckets are elided (cumulative counts
  // stay valid under any subset of boundaries); the +Inf bucket is always
  // present, as the spec requires.
  std::uint64_t cumulative = 0;
  for (int b = 0; b < h.NumBuckets() - 1; ++b) {  // last bucket == +Inf
    const std::uint64_t c = h.BucketCount(b);
    if (c == 0) continue;
    cumulative += c;
    *out += name + "_bucket" + PromLabels(cell.labels, "le", Num(h.UpperBound(b))) +
            " " + U64(cumulative) + "\n";
  }
  *out += name + "_bucket" + PromLabels(cell.labels, "le", "+Inf") + " " +
          U64(h.count()) + "\n";
  *out += name + "_sum" + PromLabels(cell.labels) + " " + Num(h.sum()) + "\n";
  *out += name + "_count" + PromLabels(cell.labels) + " " + U64(h.count()) + "\n";
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(k);
    out += "\":\"";
    out += JsonEscape(v);
    out += "\"";
  }
  out += "}";
  return out;
}

/// JSON number rendering: non-finite doubles are not valid JSON, so they
/// degrade to null (consumers treat that as "absent").
std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  return Num(v);
}

}  // namespace

std::string PromEscapeLabel(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string PromEscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(out, s);
  return out;
}

// --- MetricsSnapshot --------------------------------------------------------

const MetricsSnapshot::Family* MetricsSnapshot::FindFamily(
    const std::string& name) const {
  const auto it = std::lower_bound(
      families.begin(), families.end(), name,
      [](const Family& f, const std::string& n) { return f.name < n; });
  if (it == families.end() || it->name != name) return nullptr;
  return &*it;
}

const MetricsSnapshot::Cell* MetricsSnapshot::FindCell(
    const std::string& name, const Labels& labels) const {
  const Family* family = FindFamily(name);
  if (family == nullptr) return nullptr;
  const std::string key = MetricsRegistry::LabelKey(labels);
  for (const Cell& cell : family->cells) {
    if (MetricsRegistry::LabelKey(cell.labels) == key) return &cell;
  }
  return nullptr;
}

// --- SnapshotBuilder --------------------------------------------------------

MetricsSnapshot::Cell* SnapshotBuilder::GetCell(const std::string& name,
                                                const std::string& help,
                                                MetricType type,
                                                Labels labels) {
  FamilyBuild& family = families_[name];
  if (family.cells.empty()) {
    family.help = help;
    family.type = type;
  }
  std::string key = MetricsRegistry::LabelKey(labels);
  MetricsSnapshot::Cell& cell = family.cells[std::move(key)];
  cell.labels = std::move(labels);
  return &cell;
}

void SnapshotBuilder::AddRegistry(const MetricsRegistry& registry) {
  // The registry already keys every cell by its canonical label key, so no
  // re-encoding on this (per-publish) path. Cells iterate in key order, so
  // the end() hint makes fresh inserts O(1).
  for (const auto& [name, family] : registry.families()) {
    FamilyBuild& build = families_[name];
    if (build.cells.empty()) {
      build.help = family.help;
      build.type = family.type;
    }
    for (const auto& [key, cell] : family.cells) {
      MetricsSnapshot::Cell& out =
          build.cells.emplace_hint(build.cells.end(), key, MetricsSnapshot::Cell{})
              ->second;
      out.labels = cell->labels;
      switch (family.type) {
        case MetricType::kCounter:
          out.counter = cell->counter.value();
          break;
        case MetricType::kGauge:
          out.gauge = cell->gauge.value();
          break;
        case MetricType::kHistogram:
          out.histogram = *cell->histogram;
          break;
      }
    }
  }
}

void SnapshotBuilder::AddCounter(const std::string& name,
                                 const std::string& help, Labels labels,
                                 std::uint64_t value) {
  GetCell(name, help, MetricType::kCounter, std::move(labels))->counter = value;
}

void SnapshotBuilder::AddGauge(const std::string& name, const std::string& help,
                               Labels labels, double value) {
  GetCell(name, help, MetricType::kGauge, std::move(labels))->gauge = value;
}

void SnapshotBuilder::AddHistogram(const std::string& name,
                                   const std::string& help, Labels labels,
                                   const Histogram& histogram) {
  GetCell(name, help, MetricType::kHistogram, std::move(labels))->histogram =
      histogram;
}

std::shared_ptr<const MetricsSnapshot> SnapshotBuilder::Finish(
    RunState run, std::uint64_t version) {
  auto snapshot = std::make_shared<MetricsSnapshot>();
  snapshot->version = version;
  snapshot->run = std::move(run);
  snapshot->families.reserve(families_.size());
  for (auto& [name, build] : families_) {
    MetricsSnapshot::Family family;
    family.name = name;
    family.help = std::move(build.help);
    family.type = build.type;
    family.cells.reserve(build.cells.size());
    for (auto& [key, cell] : build.cells) {
      family.cells.push_back(std::move(cell));
    }
    snapshot->families.push_back(std::move(family));
  }
  families_.clear();
  return snapshot;
}

// --- SnapshotBoard ----------------------------------------------------------

SnapshotBoard::SnapshotBoard() {
  slots_[0].snapshot = std::make_shared<const MetricsSnapshot>();
}

void SnapshotBoard::Publish(std::shared_ptr<const MetricsSnapshot> snapshot) {
  if (snapshot == nullptr) return;
  const std::uint32_t cur = current_.load(std::memory_order_relaxed);
  // Pick a slot no reader has pinned. A slot is pinned only for the
  // duration of one shared_ptr copy, so this scan terminates quickly; the
  // seq_cst scan pairs with the readers' seq_cst pin/re-validate (see the
  // class comment for why either the scan sees the pin or the reader's
  // re-validation sees the flip).
  std::uint32_t next = cur;
  for (;;) {
    next = (next + 1) % kSlots;
    if (next == cur) continue;
    if (slots_[next].readers.load(std::memory_order_seq_cst) == 0) break;
  }
  slots_[next].snapshot = std::move(snapshot);
  current_.store(next, std::memory_order_seq_cst);
}

std::shared_ptr<const MetricsSnapshot> SnapshotBoard::Read() const {
  for (;;) {
    const std::uint32_t i = current_.load(std::memory_order_seq_cst);
    Slot& slot = slots_[i];
    slot.readers.fetch_add(1, std::memory_order_seq_cst);
    if (current_.load(std::memory_order_seq_cst) == i) {
      std::shared_ptr<const MetricsSnapshot> out = slot.snapshot;
      slot.readers.fetch_sub(1, std::memory_order_seq_cst);
      return out;
    }
    // The publisher flipped away from (and may be refilling) slot i
    // between our two loads; unpin and retry against the new current.
    slot.readers.fetch_sub(1, std::memory_order_seq_cst);
  }
}

// --- Renderers --------------------------------------------------------------

std::string PromTextFromSnapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricsSnapshot::Family& family : snapshot.families) {
    out += "# HELP " + family.name + " " + PromEscapeHelp(family.help) + "\n";
    out += "# TYPE " + family.name + " " + MetricTypeName(family.type) + "\n";
    for (const MetricsSnapshot::Cell& cell : family.cells) {
      switch (family.type) {
        case MetricType::kCounter:
          out += family.name + PromLabels(cell.labels) + " " +
                 U64(cell.counter) + "\n";
          break;
        case MetricType::kGauge:
          out += family.name + PromLabels(cell.labels) + " " +
                 PromNum(cell.gauge) + "\n";
          break;
        case MetricType::kHistogram:
          RenderHistogramCell(family.name, cell, &out);
          break;
      }
    }
  }
  return out;
}

std::string PromTextFromRegistry(const MetricsRegistry& registry) {
  SnapshotBuilder builder;
  builder.AddRegistry(registry);
  return PromTextFromSnapshot(*builder.Finish());
}

std::string SnapshotJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"version\":" + U64(snapshot.version) +
                    ",\"label\":\"" + JsonEscape(snapshot.run.label) +
                    "\",\"sim_time_s\":" + JsonNum(snapshot.run.sim_time_s) +
                    ",\"families\":[";
  bool first_family = true;
  for (const MetricsSnapshot::Family& family : snapshot.families) {
    if (!first_family) out += ",";
    first_family = false;
    out += "{\"name\":\"" + JsonEscape(family.name) + "\",\"type\":\"" +
           MetricTypeName(family.type) + "\",\"help\":\"" +
           JsonEscape(family.help) + "\",\"cells\":[";
    bool first_cell = true;
    for (const MetricsSnapshot::Cell& cell : family.cells) {
      if (!first_cell) out += ",";
      first_cell = false;
      out += "{\"labels\":" + JsonLabels(cell.labels);
      switch (family.type) {
        case MetricType::kCounter:
          out += ",\"value\":" + U64(cell.counter);
          break;
        case MetricType::kGauge:
          out += ",\"value\":" + JsonNum(cell.gauge);
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *cell.histogram;
          out += ",\"count\":" + U64(h.count()) + ",\"sum\":" + JsonNum(h.sum()) +
                 ",\"min\":" + JsonNum(h.min()) + ",\"max\":" + JsonNum(h.max()) +
                 ",\"mean\":" + JsonNum(h.Mean()) +
                 ",\"p50\":" + JsonNum(h.Percentile(50)) +
                 ",\"p90\":" + JsonNum(h.Percentile(90)) +
                 ",\"p99\":" + JsonNum(h.Percentile(99));
          break;
        }
      }
      out += "}";
    }
    out += "]}";
  }
  return out + "]}";
}

std::string RunStateJson(const MetricsSnapshot& snapshot) {
  const RunState& run = snapshot.run;
  const double progress =
      run.duration_s > 0.0
          ? std::min(1.0, run.sim_time_s / run.duration_s)
          : (run.finished ? 1.0 : 0.0);
  std::string out = "{\"label\":\"" + JsonEscape(run.label) +
                    "\",\"state\":\"" +
                    (run.finished ? "finished" : "running") +
                    "\",\"sim_time_s\":" + JsonNum(run.sim_time_s) +
                    ",\"duration_s\":" + JsonNum(run.duration_s) +
                    ",\"progress\":" + JsonNum(progress) +
                    ",\"snapshot_version\":" + U64(snapshot.version) +
                    ",\"slo_events_total\":" + U64(run.slo_events) +
                    ",\"active_slo_events\":" + U64(run.active_slo_events) +
                    ",\"active_slo_subjects\":[";
  for (std::size_t i = 0; i < run.active_slo_subjects.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(run.active_slo_subjects[i]);
    out += "\"";
  }
  return out + "],\"events_processed\":" + U64(run.events_processed) +
         ",\"events_scheduled\":" + U64(run.events_scheduled) +
         ",\"events_cancelled\":" + U64(run.events_cancelled) +
         ",\"pending_events\":" + U64(run.pending_events) + "}";
}

}  // namespace topfull::obs
