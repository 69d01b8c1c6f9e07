// Text rendering shared by every observability writer: locale-independent
// number formatting and one bounded append buffer with a file sink.
//
// Numbers go through std::to_chars. With chars_format::general and a
// precision it is specified as printf's `%.<p>g` in the C locale, so these
// helpers produce the bytes the snprintf forms did, without parsing a
// format string per value:
//   Num                        %.10g  display values (text exposition, JSON)
//   AppendDouble(out, v, 17)   %.17g  stored TSDB samples (round-trip exact)
//   U64 / AppendU64            %llu
//
// TextBuffer accumulates rendered text. Opened on a path, it hands the
// text to the file whenever it holds kChunk bytes, so peak memory does not
// grow with the artifact, and Close() reports whether every write and the
// close itself succeeded. Without a path it keeps the whole text for
// Take(), which is how the string-returning renderers share one code path
// with the streamed writers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

namespace topfull::obs {

/// printf `%.<precision>g` (C locale); "inf", "-inf", "nan", "-nan" for
/// non-finite values, as printf spells them.
void AppendDouble(std::string& out, double v, int precision);
void AppendU64(std::string& out, std::uint64_t v);
/// `%.<precision>g` for finite values. JSON has no literal for non-finite
/// ones, so they become the strings "inf", "-inf" and "nan" (quotes
/// included), which the TSDB reload and alert consumers map back.
void AppendJsonDouble(std::string& out, double v, int precision);
/// JSON string-body escaping (quotes, backslash, control characters).
void AppendJsonEscaped(std::string& out, std::string_view s);

inline std::string Num(double v) {
  std::string s;
  AppendDouble(s, v, 10);
  return s;
}
inline std::string U64(std::uint64_t v) {
  std::string s;
  AppendU64(s, v);
  return s;
}
inline std::string JsonDouble(double v) {
  std::string s;
  AppendJsonDouble(s, v, 10);
  return s;
}

class TextBuffer {
 public:
  /// Bytes held before the buffer is handed to the file.
  static constexpr std::size_t kChunk = 32 * 1024;

  /// In-memory buffer; Take() returns the text.
  TextBuffer() = default;
  /// File sink: creates or truncates `path`. ok() is false when it cannot
  /// be opened; appends are then discarded.
  explicit TextBuffer(const std::string& path);
  ~TextBuffer();
  TextBuffer(const TextBuffer&) = delete;
  TextBuffer& operator=(const TextBuffer&) = delete;

  TextBuffer& operator<<(std::string_view s) {
    if (to_file_ && s.size() >= kChunk) return PutLarge(s);
    buf_.append(s.data(), s.size());
    return Spill();
  }
  TextBuffer& Num(double v, int precision = 10) {
    AppendDouble(buf_, v, precision);
    return Spill();
  }
  TextBuffer& U64(std::uint64_t v) {
    AppendU64(buf_, v);
    return Spill();
  }
  /// AppendJsonDouble: non-finite values become JSON strings.
  TextBuffer& JsonNum(double v, int precision = 10) {
    AppendJsonDouble(buf_, v, precision);
    return Spill();
  }
  /// Appends `s` JSON-escaped (without the surrounding quotes).
  TextBuffer& Json(std::string_view s) {
    AppendJsonEscaped(buf_, s);
    return Spill();
  }
  /// False once the file failed to open or a write failed.
  bool ok() const { return ok_; }
  /// In-memory mode: moves the accumulated text out.
  std::string Take() { return std::move(buf_); }
  /// File mode: writes what is buffered and closes the file. True only when
  /// the open, every write and the close succeeded. Writers must call it:
  /// the destructor only closes, dropping any unwritten tail.
  bool Close();

 private:
  TextBuffer& Spill() {
    if (to_file_ && buf_.size() >= kChunk) Flush();
    return *this;
  }
  TextBuffer& PutLarge(std::string_view s);
  void Flush();
  void Write(std::string_view s);

  std::string buf_;
  std::FILE* file_ = nullptr;
  bool to_file_ = false;
  bool ok_ = true;
};

/// Writes `body` to `path` through a TextBuffer. False on any I/O failure,
/// including a failed final flush or close.
bool WriteTextFile(const std::string& path, std::string_view body);

}  // namespace topfull::obs
