#include "common/parse.hpp"

#include <cstdio>
#include <cstdlib>

namespace topfull {

void ExitBadValue(std::string_view source, std::string_view text,
                  const std::string& expected) {
  std::fprintf(stderr, "bad %.*s '%.*s': expected %s\n", static_cast<int>(source.size()),
               source.data(), static_cast<int>(text.size()), text.data(), expected.c_str());
  std::exit(2);
}

double FiniteOrExit(std::string_view source, std::string_view text, double lo, double hi) {
  const std::optional<double> value = ParseFinite(text);
  if (value.has_value() && *value >= lo && *value <= hi) return *value;
  char bounds[64] = "";
  if (hi < std::numeric_limits<double>::max()) {
    std::snprintf(bounds, sizeof bounds, " from %g to %g", lo, hi);
  } else if (lo > std::numeric_limits<double>::lowest()) {
    std::snprintf(bounds, sizeof bounds, " >= %g", lo);
  }
  ExitBadValue(source, text, std::string("a finite number") + bounds);
}

}  // namespace topfull
