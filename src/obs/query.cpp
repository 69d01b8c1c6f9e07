#include "obs/query.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <regex>
#include <string_view>

#include "common/parse.hpp"
#include "obs/snapshot.hpp"
#include "obs/text_buffer.hpp"

namespace topfull::obs {

namespace {

// --- Lexer -------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct, kEnd } kind = kEnd;
  std::string text;
  double number = 0.0;
  std::size_t pos = 0;
};

struct Lexer {
  std::string_view src;
  std::size_t pos = 0;
  std::string error;

  std::vector<Token> Run() {
    std::vector<Token> tokens;
    while (error.empty()) {
      while (pos < src.size() && (src[pos] == ' ' || src[pos] == '\t' ||
                                  src[pos] == '\n')) {
        ++pos;
      }
      if (pos >= src.size()) {
        tokens.push_back({Token::kEnd, "", 0.0, pos});
        break;
      }
      const std::size_t start = pos;
      const char c = src[pos];
      if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
          c == ':') {
        while (pos < src.size() &&
               (std::isalnum(static_cast<unsigned char>(src[pos])) ||
                src[pos] == '_' || src[pos] == ':')) {
          ++pos;
        }
        tokens.push_back(
            {Token::kIdent, std::string(src.substr(start, pos - start)), 0.0,
             start});
        continue;
      }
      if ((c >= '0' && c <= '9') || c == '.') {
        while (pos < src.size() &&
               (std::isdigit(static_cast<unsigned char>(src[pos])) ||
                src[pos] == '.' || src[pos] == 'e' || src[pos] == 'E' ||
                ((src[pos] == '+' || src[pos] == '-') && pos > start &&
                 (src[pos - 1] == 'e' || src[pos - 1] == 'E')))) {
          ++pos;
        }
        const std::string text(src.substr(start, pos - start));
        const std::optional<double> value = ParseFinite(text);
        if (!value.has_value()) {
          error = "bad number '" + text + "'";
          break;
        }
        tokens.push_back({Token::kNumber, text, *value, start});
        continue;
      }
      if (c == '"') {
        ++pos;
        std::string value;
        bool closed = false;
        while (pos < src.size()) {
          if (src[pos] == '\\' && pos + 1 < src.size()) {
            const char next = src[pos + 1];
            value += next == 'n' ? '\n' : next;
            pos += 2;
            continue;
          }
          if (src[pos] == '"') {
            closed = true;
            ++pos;
            break;
          }
          value += src[pos++];
        }
        if (!closed) {
          error = "unterminated string";
          break;
        }
        tokens.push_back({Token::kString, value, 0.0, start});
        continue;
      }
      // Multi-char operators first.
      static const char* kTwo[] = {"==", "!=", "<=", ">=", "=~", "!~"};
      bool matched = false;
      for (const char* op : kTwo) {
        if (src.substr(pos, 2) == op) {
          tokens.push_back({Token::kPunct, op, 0.0, start});
          pos += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      static const std::string kOne = "+-*/(){}[],<>=";
      if (kOne.find(c) != std::string::npos) {
        tokens.push_back({Token::kPunct, std::string(1, c), 0.0, start});
        ++pos;
        continue;
      }
      error = "unexpected character '" + std::string(1, c) + "'";
      break;
    }
    return tokens;
  }
};

// --- AST ---------------------------------------------------------------------

struct Node;
using NodePtr = std::unique_ptr<Node>;

struct Matcher {
  enum Op { kEq, kNe, kRe, kNre } op = kEq;
  std::string label;
  std::string value;
  std::regex re;  // kRe/kNre only, fully anchored
};

struct Node {
  enum Kind { kNumber, kSelector, kCall, kAgg, kBinary, kNeg } kind = kNumber;
  double number = 0.0;
  // kSelector
  std::string name;
  std::vector<Matcher> matchers;
  double range_s = 0.0;  ///< 0 = instant selector
  // kCall (func name) / kAgg (sum|avg|min|max)
  std::string func;
  std::vector<NodePtr> args;
  bool has_by = false;
  std::vector<std::string> by;
  // kBinary
  std::string op;
};

// --- Parser ------------------------------------------------------------------

struct Parser {
  std::vector<Token> tokens;
  std::size_t at = 0;
  std::string error;

  const Token& Peek() const { return tokens[at]; }
  Token Take() { return tokens[at++]; }
  bool Fail(const std::string& why) {
    if (error.empty()) {
      error = "parse error at offset " + std::to_string(Peek().pos) + ": " +
              why;
    }
    return false;
  }
  bool Expect(const std::string& punct) {
    if (Peek().kind == Token::kPunct && Peek().text == punct) {
      ++at;
      return true;
    }
    return Fail("expected '" + punct + "'");
  }

  static bool IsAggregator(const std::string& name) {
    return name == "sum" || name == "avg" || name == "min" || name == "max";
  }
  static bool IsFunction(const std::string& name) {
    return name == "rate" || name == "increase" ||
           name == "avg_over_time" || name == "min_over_time" ||
           name == "max_over_time" || name == "sum_over_time" ||
           name == "histogram_quantile";
  }

  NodePtr ParseExpr() { return ParseComparison(); }

  NodePtr ParseComparison() {
    NodePtr lhs = ParseAdditive();
    if (!lhs) return nullptr;
    const Token& t = Peek();
    if (t.kind == Token::kPunct &&
        (t.text == "==" || t.text == "!=" || t.text == "<" ||
         t.text == "<=" || t.text == ">" || t.text == ">=")) {
      auto node = std::make_unique<Node>();
      node->kind = Node::kBinary;
      node->op = Take().text;
      node->args.push_back(std::move(lhs));
      NodePtr rhs = ParseAdditive();
      if (!rhs) return nullptr;
      node->args.push_back(std::move(rhs));
      return node;
    }
    return lhs;
  }

  NodePtr ParseAdditive() {
    NodePtr lhs = ParseMultiplicative();
    if (!lhs) return nullptr;
    while (Peek().kind == Token::kPunct &&
           (Peek().text == "+" || Peek().text == "-")) {
      auto node = std::make_unique<Node>();
      node->kind = Node::kBinary;
      node->op = Take().text;
      node->args.push_back(std::move(lhs));
      NodePtr rhs = ParseMultiplicative();
      if (!rhs) return nullptr;
      node->args.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  NodePtr ParseMultiplicative() {
    NodePtr lhs = ParseUnary();
    if (!lhs) return nullptr;
    while (Peek().kind == Token::kPunct &&
           (Peek().text == "*" || Peek().text == "/")) {
      auto node = std::make_unique<Node>();
      node->kind = Node::kBinary;
      node->op = Take().text;
      node->args.push_back(std::move(lhs));
      NodePtr rhs = ParseUnary();
      if (!rhs) return nullptr;
      node->args.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  NodePtr ParseUnary() {
    if (Peek().kind == Token::kPunct && Peek().text == "-") {
      Take();
      auto node = std::make_unique<Node>();
      node->kind = Node::kNeg;
      NodePtr arg = ParseUnary();
      if (!arg) return nullptr;
      node->args.push_back(std::move(arg));
      return node;
    }
    return ParsePrimary();
  }

  bool ParseByClause(Node* node) {
    // Caller saw the `by` ident already consumed.
    if (!Expect("(")) return false;
    while (true) {
      if (Peek().kind != Token::kIdent) return Fail("expected label name");
      node->by.push_back(Take().text);
      if (Peek().kind == Token::kPunct && Peek().text == ",") {
        Take();
        continue;
      }
      break;
    }
    node->has_by = true;
    return Expect(")");
  }

  NodePtr ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == Token::kNumber) {
      auto node = std::make_unique<Node>();
      node->kind = Node::kNumber;
      node->number = Take().number;
      return node;
    }
    if (t.kind == Token::kPunct && t.text == "(") {
      Take();
      NodePtr inner = ParseExpr();
      if (!inner) return nullptr;
      if (!Expect(")")) return nullptr;
      return inner;
    }
    if (t.kind != Token::kIdent) {
      Fail("expected expression");
      return nullptr;
    }
    const std::string name = Take().text;
    if (IsAggregator(name) &&
        ((Peek().kind == Token::kPunct && Peek().text == "(") ||
         (Peek().kind == Token::kIdent && Peek().text == "by"))) {
      auto node = std::make_unique<Node>();
      node->kind = Node::kAgg;
      node->func = name;
      if (Peek().kind == Token::kIdent && Peek().text == "by") {
        Take();
        if (!ParseByClause(node.get())) return nullptr;
      }
      if (!Expect("(")) return nullptr;
      NodePtr arg = ParseExpr();
      if (!arg) return nullptr;
      node->args.push_back(std::move(arg));
      if (!Expect(")")) return nullptr;
      if (!node->has_by && Peek().kind == Token::kIdent &&
          Peek().text == "by") {
        Take();
        if (!ParseByClause(node.get())) return nullptr;
      }
      return node;
    }
    if (IsFunction(name) && Peek().kind == Token::kPunct &&
        Peek().text == "(") {
      auto node = std::make_unique<Node>();
      node->kind = Node::kCall;
      node->func = name;
      Take();  // "("
      while (true) {
        NodePtr arg = ParseExpr();
        if (!arg) return nullptr;
        node->args.push_back(std::move(arg));
        if (Peek().kind == Token::kPunct && Peek().text == ",") {
          Take();
          continue;
        }
        break;
      }
      if (!Expect(")")) return nullptr;
      return node;
    }
    return ParseSelector(name);
  }

  NodePtr ParseSelector(const std::string& name) {
    auto node = std::make_unique<Node>();
    node->kind = Node::kSelector;
    node->name = name;
    if (Peek().kind == Token::kPunct && Peek().text == "{") {
      Take();
      while (!(Peek().kind == Token::kPunct && Peek().text == "}")) {
        if (Peek().kind != Token::kIdent) {
          Fail("expected label name in matcher");
          return nullptr;
        }
        Matcher matcher;
        matcher.label = Take().text;
        if (Peek().kind != Token::kPunct) {
          Fail("expected matcher operator");
          return nullptr;
        }
        const std::string op = Take().text;
        if (op == "=") {
          matcher.op = Matcher::kEq;
        } else if (op == "!=") {
          matcher.op = Matcher::kNe;
        } else if (op == "=~") {
          matcher.op = Matcher::kRe;
        } else if (op == "!~") {
          matcher.op = Matcher::kNre;
        } else {
          Fail("bad matcher operator '" + op + "'");
          return nullptr;
        }
        if (Peek().kind != Token::kString) {
          Fail("matcher value must be a quoted string");
          return nullptr;
        }
        matcher.value = Take().text;
        if (matcher.op == Matcher::kRe || matcher.op == Matcher::kNre) {
          try {
            matcher.re = std::regex("^(?:" + matcher.value + ")$",
                                    std::regex::ECMAScript);
          } catch (const std::regex_error&) {
            Fail("bad regex '" + matcher.value + "'");
            return nullptr;
          }
        }
        node->matchers.push_back(std::move(matcher));
        if (Peek().kind == Token::kPunct && Peek().text == ",") Take();
      }
      Take();  // "}"
    }
    if (Peek().kind == Token::kPunct && Peek().text == "[") {
      Take();
      if (Peek().kind != Token::kNumber) {
        Fail("expected range duration");
        return nullptr;
      }
      double duration = Take().number;
      if (Peek().kind == Token::kIdent) {
        const std::string unit = Peek().text;
        if (unit == "s") {
          Take();
        } else if (unit == "m") {
          Take();
          duration *= 60.0;
        } else if (unit == "h") {
          Take();
          duration *= 3600.0;
        } else {
          Fail("bad duration unit '" + unit + "'");
          return nullptr;
        }
      }
      if (duration <= 0.0) {
        Fail("range duration must be positive");
        return nullptr;
      }
      node->range_s = duration;
      if (!Expect("]")) return nullptr;
    }
    return node;
  }
};

// --- Evaluator ---------------------------------------------------------------

struct Ser {
  Labels labels;
  std::string key;
  std::vector<TsdbSample> samples;
};

struct Value {
  enum Kind { kScalar, kVector, kRange } kind = kScalar;
  double scalar = 0.0;
  std::vector<Ser> series;
};

void SortSeries(std::vector<Ser>* series) {
  std::sort(series->begin(), series->end(),
            [](const Ser& a, const Ser& b) { return a.key < b.key; });
}

struct Evaluator {
  const Tsdb& tsdb;
  const EvalOptions& options;
  double t;
  std::string error;

  bool Fail(const std::string& why) {
    if (error.empty()) error = why;
    return false;
  }

  bool MatchLabels(const Labels& labels, const std::vector<Matcher>& matchers) {
    for (const Matcher& m : matchers) {
      std::string value;  // a missing label matches as ""
      for (const auto& [k, v] : labels) {
        if (k == m.label) {
          value = v;
          break;
        }
      }
      switch (m.op) {
        case Matcher::kEq:
          if (value != m.value) return false;
          break;
        case Matcher::kNe:
          if (value == m.value) return false;
          break;
        case Matcher::kRe:
          if (!std::regex_match(value, m.re)) return false;
          break;
        case Matcher::kNre:
          if (std::regex_match(value, m.re)) return false;
          break;
      }
    }
    return true;
  }

  bool EvalSelector(const Node& node, Value* out) {
    const auto pred = [this, &node](const Labels& labels) {
      return MatchLabels(labels, node.matchers);
    };
    const std::vector<SeriesSnapshot> matched = tsdb.Match(node.name, pred);
    out->series.clear();
    if (node.range_s > 0.0) {
      out->kind = Value::kRange;
      for (const SeriesSnapshot& series : matched) {
        Ser ser;
        ser.labels = series.labels;
        ser.key = series.label_key;
        for (const TsdbSample& sample : series.samples) {
          if (sample.t_s > t - node.range_s && sample.t_s <= t) {
            ser.samples.push_back(sample);
          }
        }
        if (!ser.samples.empty()) out->series.push_back(std::move(ser));
      }
    } else {
      out->kind = Value::kVector;
      for (const SeriesSnapshot& series : matched) {
        const TsdbSample* latest = nullptr;
        for (const TsdbSample& sample : series.samples) {
          if (sample.t_s <= t && sample.t_s >= t - options.lookback_s) {
            latest = &sample;
          }
        }
        if (latest == nullptr) continue;
        Ser ser;
        ser.labels = series.labels;
        ser.key = series.label_key;
        ser.samples.push_back({t, latest->value});
        out->series.push_back(std::move(ser));
      }
    }
    // tsdb.Match returns label-key order per name; already sorted.
    return true;
  }

  /// rate/increase over one range-vector series. Counter resets contribute
  /// the post-reset value; rate divides by the covered span.
  static bool RangeDelta(const Ser& ser, bool per_second, double* out) {
    if (ser.samples.size() < 2) return false;
    double increase = 0.0;
    for (std::size_t i = 1; i < ser.samples.size(); ++i) {
      const double delta = ser.samples[i].value - ser.samples[i - 1].value;
      increase += delta >= 0.0 ? delta : ser.samples[i].value;
    }
    if (per_second) {
      const double span = ser.samples.back().t_s - ser.samples.front().t_s;
      if (span <= 0.0) return false;
      increase /= span;
    }
    *out = increase;
    return true;
  }

  bool EvalOverTime(const Node& node, Value* out) {
    Value arg;
    if (!Eval(*node.args[0], &arg)) return false;
    if (arg.kind != Value::kRange) {
      return Fail(node.func + "() needs a range vector (selector[duration])");
    }
    out->kind = Value::kVector;
    out->series.clear();
    for (const Ser& ser : arg.series) {
      double value = 0.0;
      if (node.func == "rate" || node.func == "increase") {
        if (!RangeDelta(ser, node.func == "rate", &value)) continue;
      } else if (node.func == "avg_over_time") {
        for (const TsdbSample& s : ser.samples) value += s.value;
        value /= static_cast<double>(ser.samples.size());
      } else if (node.func == "sum_over_time") {
        for (const TsdbSample& s : ser.samples) value += s.value;
      } else if (node.func == "min_over_time") {
        value = ser.samples.front().value;
        for (const TsdbSample& s : ser.samples) value = std::min(value, s.value);
      } else {  // max_over_time
        value = ser.samples.front().value;
        for (const TsdbSample& s : ser.samples) value = std::max(value, s.value);
      }
      Ser result;
      result.labels = ser.labels;
      result.key = ser.key;
      result.samples.push_back({t, value});
      out->series.push_back(std::move(result));
    }
    return true;
  }

  bool EvalHistogramQuantile(const Node& node, Value* out) {
    if (node.args.size() != 2) {
      return Fail("histogram_quantile(phi, vector) takes two arguments");
    }
    Value phi_value;
    if (!Eval(*node.args[0], &phi_value)) return false;
    if (phi_value.kind != Value::kScalar) {
      return Fail("histogram_quantile: phi must be a scalar");
    }
    const double phi = phi_value.scalar;
    Value arg;
    if (!Eval(*node.args[1], &arg)) return false;
    if (arg.kind != Value::kVector) {
      return Fail("histogram_quantile: second argument must be an instant "
                  "vector of _bucket series");
    }
    // Group by labels-minus-le.
    struct Bucket {
      double le = 0.0;
      double count = 0.0;
    };
    struct Group {
      Labels labels;
      std::vector<Bucket> buckets;
    };
    std::map<std::string, Group> groups;
    for (const Ser& ser : arg.series) {
      // A series without a readable `le` is dropped, as Prometheus does.
      std::optional<double> le;
      Labels rest;
      for (const auto& [k, v] : ser.labels) {
        if (k == "le") {
          le = v == "+Inf" ? std::numeric_limits<double>::infinity() : ParseFinite(v);
        } else {
          rest.emplace_back(k, v);
        }
      }
      if (!le.has_value()) continue;
      const std::string key = MetricsRegistry::LabelKey(rest);
      Group& group = groups[key];
      group.labels = rest;
      group.buckets.push_back({*le, ser.samples[0].value});
    }
    out->kind = Value::kVector;
    out->series.clear();
    for (auto& [key, group] : groups) {
      std::sort(group.buckets.begin(), group.buckets.end(),
                [](const Bucket& a, const Bucket& b) { return a.le < b.le; });
      if (group.buckets.empty() ||
          !std::isinf(group.buckets.back().le)) {
        continue;  // no +Inf bucket: not a conformant histogram
      }
      const double total = group.buckets.back().count;
      double value;
      if (!(total > 0.0) || !(phi >= 0.0) || phi > 1.0) {
        value = std::numeric_limits<double>::quiet_NaN();
      } else {
        const double rank = phi * total;
        std::size_t b = 0;
        while (b < group.buckets.size() && group.buckets[b].count < rank) ++b;
        if (b >= group.buckets.size()) b = group.buckets.size() - 1;
        if (std::isinf(group.buckets[b].le)) {
          // The rank lands past every finite bound: answer the highest
          // finite one (there is no upper edge to interpolate toward).
          value = group.buckets.size() >= 2
                      ? group.buckets[group.buckets.size() - 2].le
                      : std::numeric_limits<double>::quiet_NaN();
        } else {
          const double upper = group.buckets[b].le;
          const double lower = b == 0 ? 0.0 : group.buckets[b - 1].le;
          const double cum_prev = b == 0 ? 0.0 : group.buckets[b - 1].count;
          const double in_bucket = group.buckets[b].count - cum_prev;
          value = in_bucket <= 0.0
                      ? upper
                      : lower + (upper - lower) * (rank - cum_prev) / in_bucket;
        }
      }
      Ser ser;
      ser.labels = group.labels;
      ser.key = key;
      ser.samples.push_back({t, value});
      out->series.push_back(std::move(ser));
    }
    SortSeries(&out->series);
    return true;
  }

  bool EvalAgg(const Node& node, Value* out) {
    Value arg;
    if (!Eval(*node.args[0], &arg)) return false;
    if (arg.kind != Value::kVector) {
      return Fail(node.func + "() needs an instant vector");
    }
    struct Group {
      Labels labels;
      double sum = 0.0;
      double min = 0.0;
      double max = 0.0;
      std::size_t n = 0;
    };
    std::map<std::string, Group> groups;
    for (const Ser& ser : arg.series) {
      Labels keep;
      if (node.has_by) {
        // Output labels sorted by name: canonical regardless of by-order.
        std::vector<std::string> wanted = node.by;
        std::sort(wanted.begin(), wanted.end());
        for (const std::string& label : wanted) {
          for (const auto& [k, v] : ser.labels) {
            if (k == label) {
              keep.emplace_back(k, v);
              break;
            }
          }
        }
      }
      const std::string key = MetricsRegistry::LabelKey(keep);
      const double v = ser.samples[0].value;
      Group& group = groups[key];
      if (group.n == 0) {
        group.labels = keep;
        group.min = group.max = v;
      }
      group.sum += v;
      group.min = std::min(group.min, v);
      group.max = std::max(group.max, v);
      ++group.n;
    }
    out->kind = Value::kVector;
    out->series.clear();
    for (const auto& [key, group] : groups) {
      double value = group.sum;
      if (node.func == "avg") value = group.sum / static_cast<double>(group.n);
      if (node.func == "min") value = group.min;
      if (node.func == "max") value = group.max;
      Ser ser;
      ser.labels = group.labels;
      ser.key = key;
      ser.samples.push_back({t, value});
      out->series.push_back(std::move(ser));
    }
    return true;  // std::map iteration is already key-sorted
  }

  static double Apply(const std::string& op, double a, double b) {
    if (op == "+") return a + b;
    if (op == "-") return a - b;
    if (op == "*") return a * b;
    if (op == "/") return a / b;
    if (op == "==") return a == b ? 1.0 : 0.0;
    if (op == "!=") return a != b ? 1.0 : 0.0;
    if (op == "<") return a < b ? 1.0 : 0.0;
    if (op == "<=") return a <= b ? 1.0 : 0.0;
    if (op == ">") return a > b ? 1.0 : 0.0;
    return a >= b ? 1.0 : 0.0;  // ">="
  }

  static bool IsComparison(const std::string& op) {
    return op == "==" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
           op == ">=";
  }

  bool EvalBinary(const Node& node, Value* out) {
    Value lhs, rhs;
    if (!Eval(*node.args[0], &lhs) || !Eval(*node.args[1], &rhs)) return false;
    if (lhs.kind == Value::kRange || rhs.kind == Value::kRange) {
      return Fail("range vectors cannot appear in binary operations");
    }
    const bool cmp = IsComparison(node.op);
    if (lhs.kind == Value::kScalar && rhs.kind == Value::kScalar) {
      out->kind = Value::kScalar;
      out->scalar = Apply(node.op, lhs.scalar, rhs.scalar);
      return true;
    }
    out->kind = Value::kVector;
    out->series.clear();
    if (lhs.kind == Value::kVector && rhs.kind == Value::kVector) {
      // Join on exact label-set equality.
      std::map<std::string, const Ser*> right;
      for (const Ser& ser : rhs.series) right[ser.key] = &ser;
      for (const Ser& ser : lhs.series) {
        const auto it = right.find(ser.key);
        if (it == right.end()) continue;
        const double a = ser.samples[0].value;
        const double b = it->second->samples[0].value;
        if (cmp) {
          if (Apply(node.op, a, b) == 0.0) continue;
          Ser result = ser;  // comparisons keep the left value
          out->series.push_back(std::move(result));
        } else {
          Ser result;
          result.labels = ser.labels;
          result.key = ser.key;
          result.samples.push_back({t, Apply(node.op, a, b)});
          out->series.push_back(std::move(result));
        }
      }
      return true;
    }
    // vector (op) scalar, either side.
    const bool vector_left = lhs.kind == Value::kVector;
    const Value& vec = vector_left ? lhs : rhs;
    const double scalar = vector_left ? rhs.scalar : lhs.scalar;
    for (const Ser& ser : vec.series) {
      const double v = ser.samples[0].value;
      const double a = vector_left ? v : scalar;
      const double b = vector_left ? scalar : v;
      if (cmp) {
        if (Apply(node.op, a, b) == 0.0) continue;
        Ser result = ser;  // filter: keep the vector element's value
        out->series.push_back(std::move(result));
      } else {
        Ser result;
        result.labels = ser.labels;
        result.key = ser.key;
        result.samples.push_back({t, Apply(node.op, a, b)});
        out->series.push_back(std::move(result));
      }
    }
    return true;
  }

  bool Eval(const Node& node, Value* out) {
    switch (node.kind) {
      case Node::kNumber:
        out->kind = Value::kScalar;
        out->scalar = node.number;
        return true;
      case Node::kSelector:
        return EvalSelector(node, out);
      case Node::kCall:
        if (node.func == "histogram_quantile") {
          return EvalHistogramQuantile(node, out);
        }
        if (node.args.size() != 1) {
          return Fail(node.func + "() takes one argument");
        }
        return EvalOverTime(node, out);
      case Node::kAgg:
        return EvalAgg(node, out);
      case Node::kBinary:
        return EvalBinary(node, out);
      case Node::kNeg: {
        Value arg;
        if (!Eval(*node.args[0], &arg)) return false;
        if (arg.kind == Value::kScalar) {
          out->kind = Value::kScalar;
          out->scalar = -arg.scalar;
          return true;
        }
        if (arg.kind != Value::kVector) {
          return Fail("cannot negate a range vector");
        }
        *out = std::move(arg);
        for (Ser& ser : out->series) ser.samples[0].value = -ser.samples[0].value;
        return true;
      }
    }
    return Fail("internal: unknown node kind");
  }
};

NodePtr ParseExpression(const std::string& expr, std::string* error) {
  Lexer lexer;
  lexer.src = expr;
  std::vector<Token> tokens = lexer.Run();
  if (!lexer.error.empty()) {
    *error = "parse error: " + lexer.error;
    return nullptr;
  }
  Parser parser;
  parser.tokens = std::move(tokens);
  NodePtr root = parser.ParseExpr();
  if (!root) {
    *error = parser.error.empty() ? "parse error" : parser.error;
    return nullptr;
  }
  if (parser.Peek().kind != Token::kEnd) {
    parser.Fail("trailing input");
    *error = parser.error;
    return nullptr;
  }
  return root;
}

QueryResult FromValue(const Value& value, double t) {
  QueryResult result;
  result.ok = true;
  switch (value.kind) {
    case Value::kScalar: {
      result.type = QueryResult::Type::kScalar;
      QuerySeries series;
      series.points.push_back({t, value.scalar});
      result.series.push_back(std::move(series));
      break;
    }
    case Value::kVector:
      result.type = QueryResult::Type::kVector;
      for (const Ser& ser : value.series) {
        QuerySeries series;
        series.labels = ser.labels;
        series.label_key = ser.key;
        series.points = ser.samples;
        result.series.push_back(std::move(series));
      }
      break;
    case Value::kRange:
      result.type = QueryResult::Type::kMatrix;
      for (const Ser& ser : value.series) {
        QuerySeries series;
        series.labels = ser.labels;
        series.label_key = ser.key;
        series.points = ser.samples;
        result.series.push_back(std::move(series));
      }
      break;
  }
  return result;
}

}  // namespace

QueryResult EvalInstant(const Tsdb& tsdb, const std::string& expr, double t_s,
                        const EvalOptions& options) {
  QueryResult result;
  std::string error;
  const NodePtr root = ParseExpression(expr, &error);
  if (!root) {
    result.error = error;
    return result;
  }
  Evaluator evaluator{tsdb, options, t_s, {}};
  Value value;
  if (!evaluator.Eval(*root, &value)) {
    result.error = evaluator.error;
    return result;
  }
  return FromValue(value, t_s);
}

QueryResult EvalRange(const Tsdb& tsdb, const std::string& expr,
                      double start_s, double end_s, double step_s,
                      const EvalOptions& options) {
  // Prometheus's cap on the points of one series. A step below the
  // resolution of the timestamps (1e17 + 1 == 1e17) would never advance t,
  // so it is refused too; the count in the loop catches a stall midway.
  constexpr std::size_t kMaxPoints = 11000;
  const char* too_many = "range query needs more than 11000 points per series, or a "
                         "step too small to advance its timestamps; raise the step";
  QueryResult result;
  if (step_s <= 0.0 || end_s < start_s) {
    result.error = "bad range: need start <= end and step > 0";
    return result;
  }
  if ((end_s - start_s) / step_s >= kMaxPoints || start_s + step_s == start_s ||
      end_s + step_s == end_s) {
    result.error = too_many;
    return result;
  }
  std::string error;
  const NodePtr root = ParseExpression(expr, &error);
  if (!root) {
    result.error = error;
    return result;
  }
  std::map<std::string, QuerySeries> merged;
  const double epsilon = step_s * 1e-9;
  std::size_t points = 0;
  for (double t = start_s; t <= end_s + epsilon; t += step_s) {
    Evaluator evaluator{tsdb, options, t, {}};
    Value value;
    if (++points > kMaxPoints) {
      result.error = too_many;
      return result;
    }
    if (!evaluator.Eval(*root, &value)) {
      result.error = evaluator.error;
      return result;
    }
    if (value.kind == Value::kRange) {
      result.error = "range query needs a scalar or instant-vector expression";
      return result;
    }
    if (value.kind == Value::kScalar) {
      merged[""].points.push_back({t, value.scalar});
      continue;
    }
    for (const Ser& ser : value.series) {
      QuerySeries& series = merged[ser.key];
      if (series.points.empty()) {
        series.labels = ser.labels;
        series.label_key = ser.key;
      }
      series.points.push_back({t, ser.samples[0].value});
    }
  }
  result.ok = true;
  result.type = QueryResult::Type::kMatrix;
  for (auto& [key, series] : merged) result.series.push_back(std::move(series));
  return result;
}

std::string QueryResultJson(const QueryResult& result) {
  if (!result.ok) {
    return "{\"status\":\"error\",\"errorType\":\"bad_data\",\"error\":\"" +
           JsonEscape(result.error) + "\"}\n";
  }
  const auto labels_json = [](const Labels& labels) {
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(labels[i].first) + "\":\"" +
             JsonEscape(labels[i].second) + "\"";
    }
    return out + "}";
  };
  const auto point_json = [](const TsdbSample& sample) {
    return "[" + Num(sample.t_s) + ",\"" + Num(sample.value) + "\"]";
  };
  std::string out = "{\"status\":\"success\",\"data\":{\"resultType\":\"";
  switch (result.type) {
    case QueryResult::Type::kScalar: {
      out += "scalar\",\"result\":";
      out += point_json(result.series[0].points[0]);
      out += "}}\n";
      return out;
    }
    case QueryResult::Type::kVector: {
      out += "vector\",\"result\":[";
      for (std::size_t i = 0; i < result.series.size(); ++i) {
        if (i > 0) out += ",";
        out += "{\"metric\":" + labels_json(result.series[i].labels) +
               ",\"value\":" + point_json(result.series[i].points[0]) + "}";
      }
      out += "]}}\n";
      return out;
    }
    case QueryResult::Type::kMatrix: {
      out += "matrix\",\"result\":[";
      for (std::size_t i = 0; i < result.series.size(); ++i) {
        if (i > 0) out += ",";
        out += "{\"metric\":" + labels_json(result.series[i].labels) +
               ",\"values\":[";
        for (std::size_t p = 0; p < result.series[i].points.size(); ++p) {
          if (p > 0) out += ",";
          out += point_json(result.series[i].points[p]);
        }
        out += "]}";
      }
      out += "]}}\n";
      return out;
    }
  }
  return out;
}

}  // namespace topfull::obs
