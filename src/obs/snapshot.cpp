#include "obs/snapshot.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>
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

void SnapshotBuilder::AddRegistry(const MetricsRegistry& registry,
                                  const Labels& extra) {
  // The registry already keys every cell by its canonical label key, and
  // `extra` appends at the end of the label list, so the combined key is a
  // plain concatenation — no re-encoding on this (per-publish) path. Cells
  // iterate in key order, so the end() hint makes fresh inserts O(1).
  const std::string extra_key = MetricsRegistry::LabelKey(extra);
  for (const auto& [name, family] : registry.families()) {
    FamilyBuild& build = families_[name];
    if (build.cells.empty()) {
      build.help = family.help;
      build.type = family.type;
    }
    for (const auto& [key, cell] : family.cells) {
      std::string cell_key = key;
      if (!extra_key.empty()) {
        if (cell_key.empty()) {
          cell_key = extra_key;
        } else {
          cell_key += ",";
          cell_key += extra_key;
        }
      }
      MetricsSnapshot::Cell& out =
          build.cells
              .emplace_hint(build.cells.end(), std::move(cell_key),
                            MetricsSnapshot::Cell{})
              ->second;
      out.labels.clear();
      out.labels.reserve(cell->labels.size() + extra.size());
      out.labels.insert(out.labels.end(), cell->labels.begin(),
                        cell->labels.end());
      out.labels.insert(out.labels.end(), extra.begin(), extra.end());
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
                    ",\"rounds\":" + U64(run.rounds) +
                    ",\"slo_events_total\":" + U64(run.slo_events) +
                    ",\"active_slo_events\":" + U64(run.active_slo_events) +
                    ",\"active_slo_subjects\":[";
  for (std::size_t i = 0; i < run.active_slo_subjects.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(run.active_slo_subjects[i]);
    out += "\"";
  }
  out += "],\"shards\":[";
  for (std::size_t i = 0; i < run.shards.size(); ++i) {
    const ShardRunState& s = run.shards[i];
    if (i > 0) out += ",";
    out += "{\"shard\":" + U64(i) +
           ",\"events_processed\":" + U64(s.events_processed) +
           ",\"events_scheduled\":" + U64(s.events_scheduled) +
           ",\"events_cancelled\":" + U64(s.events_cancelled) +
           ",\"pending_events\":" + U64(s.pending_events) +
           ",\"messages_sent\":" + U64(s.messages_sent) +
           ",\"messages_delivered\":" + U64(s.messages_delivered) +
           ",\"mailbox_depth_hwm\":" + U64(s.mailbox_depth_hwm) +
           ",\"busy_s\":" + JsonNum(s.busy_s) +
           ",\"blocked_s\":" + JsonNum(s.blocked_s) + "}";
  }
  return out + "]}";
}

// --- Validator --------------------------------------------------------------

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

/// Parses a metric name at `pos`; returns empty on failure.
std::string ParseName(const std::string& line, std::size_t* pos) {
  std::size_t i = *pos;
  if (i >= line.size() || !IsNameStart(line[i])) return "";
  while (i < line.size() && IsNameChar(line[i])) ++i;
  std::string name = line.substr(*pos, i - *pos);
  *pos = i;
  return name;
}

/// Parses a {k="v",...} label block at `pos` (which must point at '{').
bool ParseLabelBlock(const std::string& line, std::size_t* pos) {
  std::size_t i = *pos + 1;  // skip '{'
  if (i < line.size() && line[i] == '}') {
    *pos = i + 1;
    return true;
  }
  while (true) {
    std::size_t name_pos = i;
    if (ParseName(line, &name_pos).empty()) return false;
    i = name_pos;
    if (i >= line.size() || line[i] != '=') return false;
    ++i;
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') ++i;  // escaped char
      ++i;
    }
    if (i >= line.size()) return false;  // unterminated value
    ++i;                                 // skip closing quote
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') {
      *pos = i + 1;
      return true;
    }
    return false;
  }
}

bool ParseSampleValue(const std::string& token) {
  if (token == "NaN" || token == "+Inf" || token == "-Inf") return true;
  if (token.empty()) return false;
  char* end = nullptr;
  std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

/// Strips a histogram series suffix; returns the base family name.
std::string HistogramBase(const std::string& name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      return name.substr(0, name.size() - s.size());
    }
  }
  return name;
}

}  // namespace

bool ValidatePromText(const std::string& text, std::string* error) {
  const auto fail = [error](std::size_t line_no, const std::string& line,
                            const char* why) {
    if (error != nullptr) {
      *error = "line " + U64(line_no) + ": " + why + ": " + line;
    }
    return false;
  };

  std::set<std::string> typed;         // family name -> has a # TYPE line
  std::set<std::string> histograms;    // families typed histogram
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# TYPE name type" / "# HELP name text" / free-form comment.
      if (line.rfind("# TYPE ", 0) == 0) {
        std::size_t pos = 7;
        const std::string name = ParseName(line, &pos);
        if (name.empty() || pos >= line.size() || line[pos] != ' ') {
          return fail(line_no, line, "malformed # TYPE");
        }
        const std::string type = line.substr(pos + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return fail(line_no, line, "unknown metric type");
        }
        typed.insert(name);
        if (type == "histogram") histograms.insert(name);
      } else if (line.rfind("# HELP ", 0) == 0) {
        std::size_t pos = 7;
        if (ParseName(line, &pos).empty()) {
          return fail(line_no, line, "malformed # HELP");
        }
      }
      continue;
    }

    std::size_t pos = 0;
    const std::string name = ParseName(line, &pos);
    if (name.empty()) return fail(line_no, line, "bad metric name");
    const std::string base = HistogramBase(name);
    if (typed.count(name) == 0 &&
        !(histograms.count(base) != 0 && base != name)) {
      return fail(line_no, line, "sample without preceding # TYPE");
    }
    if (pos < line.size() && line[pos] == '{') {
      if (!ParseLabelBlock(line, &pos)) {
        return fail(line_no, line, "malformed label block");
      }
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail(line_no, line, "missing sample value");
    }
    const std::size_t value_start = pos + 1;
    std::size_t value_end = line.find(' ', value_start);
    if (value_end == std::string::npos) value_end = line.size();
    if (!ParseSampleValue(line.substr(value_start, value_end - value_start))) {
      return fail(line_no, line, "unparsable sample value");
    }
    // Anything after the value must be an integer timestamp.
    if (value_end < line.size()) {
      const std::string ts = line.substr(value_end + 1);
      if (ts.empty() ||
          ts.find_first_not_of("-0123456789") != std::string::npos) {
        return fail(line_no, line, "trailing garbage after sample value");
      }
    }
  }
  return true;
}

}  // namespace topfull::obs
