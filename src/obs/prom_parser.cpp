#include "obs/prom_parser.hpp"

#include <cstring>
#include <limits>
#include <map>
#include <string_view>

#include "common/parse.hpp"
#include "obs/snapshot.hpp"

namespace topfull::obs {

namespace {

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsNameChar(char c) { return IsNameStart(c) || (c >= '0' && c <= '9'); }
bool IsLabelStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsLabelChar(char c) { return IsLabelStart(c) || (c >= '0' && c <= '9'); }

/// Consumes a metric/label identifier starting at `pos`; empty on failure.
std::string_view TakeName(std::string_view line, std::size_t& pos,
                          bool label_name) {
  const std::size_t start = pos;
  if (pos < line.size() &&
      (label_name ? IsLabelStart(line[pos]) : IsNameStart(line[pos]))) {
    ++pos;
    while (pos < line.size() &&
           (label_name ? IsLabelChar(line[pos]) : IsNameChar(line[pos]))) {
      ++pos;
    }
  }
  return line.substr(start, pos - start);
}

/// A sample value token: one of the three spelled non-finite forms the
/// format defines, or a finite number (common/parse.hpp).
std::optional<double> ParseValue(std::string_view token) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (token == "NaN") return std::numeric_limits<double>::quiet_NaN();
  if (token == "+Inf") return kInf;
  if (token == "-Inf") return -kInf;
  return ParseFinite(token);
}

/// Unescapes a HELP payload (`\\` and `\n`, the two forms PromEscapeHelp
/// produces).
std::string UnescapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      const char next = text[i + 1];
      if (next == '\\') {
        out += '\\';
        ++i;
        continue;
      }
      if (next == 'n') {
        out += '\n';
        ++i;
        continue;
      }
    }
    out += text[i];
  }
  return out;
}

/// True when `name` is `base` + `suffix`.
bool HasSuffix(const std::string& name, const char* suffix,
               std::string* base) {
  const std::size_t n = std::strlen(suffix);
  if (name.size() <= n || name.compare(name.size() - n, n, suffix) != 0) {
    return false;
  }
  *base = name.substr(0, name.size() - n);
  return true;
}

struct Parser {
  PromScrape* out;
  std::string* error;
  /// Family name -> index in out->families.
  std::map<std::string, std::size_t> index;
  int line_no = 0;
  std::string_view current_line;

  bool Fail(const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why + ": " +
               std::string(current_line);
    }
    return false;
  }

  PromFamily* Find(const std::string& name) {
    const auto it = index.find(name);
    return it == index.end() ? nullptr : &out->families[it->second];
  }

  PromFamily& GetOrCreate(const std::string& name) {
    const auto it = index.find(name);
    if (it != index.end()) return out->families[it->second];
    index.emplace(name, out->families.size());
    PromFamily family;
    family.name = name;
    out->families.push_back(std::move(family));
    return out->families.back();
  }

  bool HandleComment(std::string_view line) {
    // Only the two machine-readable comment forms are accepted: a strict
    // parser turning unknown directives into silent no-ops would hide
    // emitter drift.
    const bool is_help = line.rfind("# HELP ", 0) == 0;
    const bool is_type = line.rfind("# TYPE ", 0) == 0;
    if (!is_help && !is_type) return Fail("unknown comment directive");
    std::size_t pos = 7;  // past "# HELP " / "# TYPE "
    const std::string name{TakeName(line, pos, /*label_name=*/false)};
    if (name.empty()) return Fail("missing metric name");
    if (pos >= line.size() || line[pos] != ' ') {
      return Fail("missing payload after metric name");
    }
    const std::string_view payload = line.substr(pos + 1);
    if (is_help) {
      PromFamily* existing = Find(name);
      if (existing != nullptr && existing->has_help) {
        return Fail("duplicate # HELP for '" + name + "'");
      }
      if (existing != nullptr && !existing->samples.empty()) {
        return Fail("# HELP after samples for '" + name + "'");
      }
      PromFamily& family = GetOrCreate(name);
      family.help = UnescapeHelp(payload);
      family.has_help = true;
      return true;
    }
    MetricType type = MetricType::kGauge;
    if (payload == "counter") {
      type = MetricType::kCounter;
    } else if (payload == "gauge") {
      type = MetricType::kGauge;
    } else if (payload == "histogram") {
      type = MetricType::kHistogram;
    } else {
      return Fail("unknown metric type '" + std::string(payload) + "'");
    }
    PromFamily* existing = Find(name);
    if (existing != nullptr && !existing->samples.empty()) {
      return Fail("# TYPE after samples for '" + name + "'");
    }
    PromFamily& family = GetOrCreate(name);
    // A repeated TYPE line is emitter drift even when it agrees.
    if (&family == existing && existing->type_seen) {
      return Fail("duplicate # TYPE for '" + name + "'");
    }
    family.type = type;
    family.type_seen = true;
    return true;
  }

  bool ParseLabels(std::string_view line, std::size_t& pos, Labels* labels) {
    ++pos;  // consume '{'
    while (true) {
      const std::string key{TakeName(line, pos, /*label_name=*/true)};
      if (key.empty()) return Fail("bad label name");
      if (pos >= line.size() || line[pos] != '=') {
        return Fail("missing '=' after label name");
      }
      ++pos;
      if (pos >= line.size() || line[pos] != '"') {
        return Fail("label value must be quoted");
      }
      ++pos;
      std::string value;
      bool closed = false;
      while (pos < line.size()) {
        const char c = line[pos];
        if (c == '\\') {
          if (pos + 1 >= line.size()) return Fail("dangling escape");
          const char next = line[pos + 1];
          if (next == '\\') {
            value += '\\';
          } else if (next == '"') {
            value += '"';
          } else if (next == 'n') {
            value += '\n';
          } else {
            return Fail("unknown escape '\\" + std::string(1, next) + "'");
          }
          pos += 2;
          continue;
        }
        if (c == '"') {
          closed = true;
          ++pos;
          break;
        }
        value += c;
        ++pos;
      }
      if (!closed) return Fail("unterminated label value");
      labels->emplace_back(key, std::move(value));
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < line.size() && line[pos] == '}') {
        ++pos;
        return true;
      }
      return Fail("expected ',' or '}' after label value");
    }
  }

  bool HandleSample(std::string_view line) {
    std::size_t pos = 0;
    PromSample sample;
    sample.name = std::string(TakeName(line, pos, /*label_name=*/false));
    if (sample.name.empty()) return Fail("bad metric name");
    if (pos < line.size() && line[pos] == '{') {
      if (!ParseLabels(line, pos, &sample.labels)) return false;
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return Fail("missing value");
    }
    ++pos;
    const std::size_t value_start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    sample.value_text =
        std::string(line.substr(value_start, pos - value_start));
    const std::optional<double> value = ParseValue(sample.value_text);
    if (!value.has_value()) {
      return Fail("bad sample value '" + sample.value_text + "'");
    }
    sample.value = *value;
    if (pos < line.size()) {
      ++pos;  // the space before the timestamp
      const std::string_view ts = line.substr(pos);
      if (ts.empty()) return Fail("trailing space");
      const std::optional<std::int64_t> parsed = ParseWhole<std::int64_t>(ts);
      if (!parsed.has_value()) return Fail("bad timestamp '" + std::string(ts) + "'");
      sample.has_timestamp = true;
      sample.timestamp_ms = *parsed;
    }

    // Resolve the owning family: exact name, else a histogram base via the
    // `_bucket`/`_sum`/`_count` suffix.
    PromFamily* family = Find(sample.name);
    if (family != nullptr && family->type == MetricType::kHistogram) {
      return Fail("histogram samples need a _bucket/_sum/_count suffix");
    }
    if (family == nullptr) {
      std::string base;
      const bool is_bucket = HasSuffix(sample.name, "_bucket", &base);
      if (is_bucket || HasSuffix(sample.name, "_sum", &base) ||
          HasSuffix(sample.name, "_count", &base)) {
        PromFamily* candidate = Find(base);
        if (candidate != nullptr &&
            candidate->type == MetricType::kHistogram) {
          family = candidate;
          if (is_bucket) {
            bool has_le = false;
            for (const auto& [k, v] : sample.labels) has_le |= (k == "le");
            if (!has_le) return Fail("_bucket sample without an le label");
          }
        }
      }
    }
    if (family == nullptr) {
      return Fail("sample before # TYPE for '" + sample.name + "'");
    }
    if (!family->type_seen) {
      return Fail("sample before # TYPE for '" + sample.name + "'");
    }
    family->samples.push_back(std::move(sample));
    return true;
  }

  bool Run(const std::string& text) {
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      const bool had_newline = end != std::string::npos;
      if (!had_newline) end = text.size();
      ++line_no;
      current_line = std::string_view(text).substr(start, end - start);
      start = end + (had_newline ? 1 : 0);
      if (current_line.empty()) {
        // A final unterminated empty "line" cannot happen (the loop stops);
        // blank lines inside the exposition are emitter drift.
        return Fail("blank line");
      }
      if (current_line[0] == '#') {
        if (!HandleComment(current_line)) return false;
      } else {
        if (!HandleSample(current_line)) return false;
      }
    }
    return true;
  }
};

}  // namespace

const PromFamily* PromScrape::FindFamily(const std::string& name) const {
  for (const PromFamily& family : families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

bool ParsePromText(const std::string& text, PromScrape* out,
                   std::string* error) {
  out->families.clear();
  Parser parser;
  parser.out = out;
  parser.error = error;
  return parser.Run(text);
}

std::string PromTextFromScrape(const PromScrape& scrape) {
  std::string out;
  for (const PromFamily& family : scrape.families) {
    if (family.has_help) {
      out += "# HELP ";
      out += family.name;
      out += " ";
      out += PromEscapeHelp(family.help);
      out += "\n";
    }
    out += "# TYPE ";
    out += family.name;
    out += " ";
    out += MetricTypeName(family.type);
    out += "\n";
    for (const PromSample& sample : family.samples) {
      out += sample.name;
      if (!sample.labels.empty()) {
        out += "{";
        for (std::size_t i = 0; i < sample.labels.size(); ++i) {
          if (i > 0) out += ",";
          out += sample.labels[i].first + "=\"" +
                 PromEscapeLabel(sample.labels[i].second) + "\"";
        }
        out += "}";
      }
      out += " " + sample.value_text;
      if (sample.has_timestamp) {
        out += " " + std::to_string(sample.timestamp_ms);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace topfull::obs
