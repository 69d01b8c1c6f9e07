#include "obs/text_buffer.hpp"

#include <charconv>
#include <cmath>

namespace topfull::obs {

void AppendDouble(std::string& out, double v, int precision) {
  char buf[64];  // "-d.<16 digits>e-308" is 24 bytes at %.17g
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, precision);
  out.append(buf, result.ptr);
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

void AppendJsonDouble(std::string& out, double v, int precision) {
  if (std::isfinite(v)) {
    AppendDouble(out, v, precision);
  } else if (std::isnan(v)) {
    out += "\"nan\"";
  } else {
    out += v > 0 ? "\"inf\"" : "\"-inf\"";
  }
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

TextBuffer::TextBuffer(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")), to_file_(true), ok_(file_ != nullptr) {
  // The buffer is the only buffering layer: each chunk is one write.
  if (file_ != nullptr) std::setvbuf(file_, nullptr, _IONBF, 0);
  buf_.reserve(kChunk + 256);
}

TextBuffer::~TextBuffer() {
  if (file_ != nullptr) std::fclose(file_);
}

void TextBuffer::Write(std::string_view s) {
  if (file_ == nullptr || !ok_ || s.empty()) return;
  if (std::fwrite(s.data(), 1, s.size(), file_) != s.size()) ok_ = false;
}

void TextBuffer::Flush() {
  Write(buf_);
  buf_.clear();
}

TextBuffer& TextBuffer::PutLarge(std::string_view s) {
  Flush();
  Write(s);
  return *this;
}

bool TextBuffer::Close() {
  if (!to_file_) return ok_;
  Flush();
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0) ok_ = false;
    file_ = nullptr;
  }
  return ok_;
}

bool WriteTextFile(const std::string& path, std::string_view body) {
  TextBuffer out(path);
  out << body;
  return out.Close();
}

}  // namespace topfull::obs
