// The one number reader for text: the policy checkpoint, scenario profiles,
// CLI flags, environment variables, and the JSON, Prometheus-text, PromQL
// and /query readers of the observability plane.
//
// The rule: the number is the whole token, with no space around it and
// nothing after it ("1.5abc", "5e"), in from_chars's decimal syntax plus
// one optional leading '+' ("+-1" fails). No hex ("0x10", "0x1p3"). A
// value out of range fails rather than saturating ("1e400" is not inf,
// "1e-400" is not 0); a subnormal such as 1e-310 reads as itself. A whole
// number is an integer token: "1e3" and "2.0" are not whole.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace topfull {

namespace parse_detail {

template <typename T>
std::optional<T> FromChars(std::string_view text) {
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') text.remove_prefix(1);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace parse_detail

/// `text` as a double, inf and nan included; nullopt when it is no number
/// or out of range. It tells "nan" from "abc" in a message; readers want
/// ParseFinite.
inline std::optional<double> ParseDouble(std::string_view text) {
  return parse_detail::FromChars<double>(text);
}

/// `text` as a finite double, else nullopt.
inline std::optional<double> ParseFinite(std::string_view text) {
  const std::optional<double> value = ParseDouble(text);
  return value.has_value() && std::isfinite(*value) ? value : std::nullopt;
}

/// `text` as a whole number from `lo` to `hi`, else nullopt.
template <typename T>
std::optional<T> ParseWhole(std::string_view text, T lo = std::numeric_limits<T>::min(),
                            T hi = std::numeric_limits<T>::max()) {
  const std::optional<T> value = parse_detail::FromChars<T>(text);
  return value.has_value() && *value >= lo && *value <= hi ? value : std::nullopt;
}

/// Prints "bad SOURCE 'TEXT': expected EXPECTED" and exits 2. SOURCE is a
/// CLI flag or an environment variable: a variable is checked and reported
/// like the flag that overrides it.
[[noreturn]] void ExitBadValue(std::string_view source, std::string_view text,
                               const std::string& expected);

/// ParseFinite with a value from `lo` to `hi`, or ExitBadValue.
double FiniteOrExit(std::string_view source, std::string_view text,
                    double lo = std::numeric_limits<double>::lowest(),
                    double hi = std::numeric_limits<double>::max());

/// ParseWhole, or ExitBadValue.
template <typename T>
T WholeOrExit(std::string_view source, std::string_view text,
              T lo = std::numeric_limits<T>::min(), T hi = std::numeric_limits<T>::max()) {
  if (const std::optional<T> value = ParseWhole<T>(text, lo, hi)) return *value;
  ExitBadValue(source, text,
               "a whole number from " + std::to_string(lo) + " to " + std::to_string(hi));
}

}  // namespace topfull
