#include "obs/json.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string_view>

#include "common/parse.hpp"

namespace topfull::obs {

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after document");
    return true;
  }

 private:
  bool Fail(const char* message) {
    if (error_ != nullptr) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s (at byte %zu)", message, pos_);
      *error_ = buf;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null", 4);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true", 4);
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false", 5);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case '[': return ParseArray(out);
      case '{': return ParseObject(out);
      default: return ParseNumber(out);
    }
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    pos_ = std::min(text_.find_first_not_of("0123456789.eE+-", pos_), text_.size());
    if (pos_ == start) return Fail("expected a value");
    const std::optional<double> number =
        ParseFinite(std::string_view(text_).substr(start, pos_ - start));
    if (!number.has_value()) {
      pos_ = start;
      return Fail("malformed number");
    }
    out->number = *number;
    out->type = JsonValue::Type::kNumber;
    return true;
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return Fail("invalid \\u escape");
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            pos_ += 2;
            unsigned low = 0;
            if (!ParseHex4(&low)) return false;
            if (low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            }
          }
          AppendUtf8(cp, out);
          break;
        }
        default: return Fail("invalid escape");
      }
    }
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      SkipWs();
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return Fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  Parser parser(text, error);
  return parser.Parse(out);
}

void FlattenNumbers(const JsonValue& value, const std::string& prefix,
                    std::map<std::string, double>* out) {
  switch (value.type) {
    case JsonValue::Type::kNumber:
      (*out)[prefix] = value.number;
      break;
    case JsonValue::Type::kBool:
      (*out)[prefix] = value.boolean ? 1.0 : 0.0;
      break;
    case JsonValue::Type::kArray:
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        char idx[24];
        std::snprintf(idx, sizeof(idx), "%zu", i);
        FlattenNumbers(value.array[i],
                       prefix.empty() ? idx : prefix + "." + idx, out);
      }
      break;
    case JsonValue::Type::kObject:
      for (const auto& [k, v] : value.object) {
        FlattenNumbers(v, prefix.empty() ? k : prefix + "." + k, out);
      }
      break;
    case JsonValue::Type::kNull:
    case JsonValue::Type::kString:
      break;
  }
}

}  // namespace topfull::obs
