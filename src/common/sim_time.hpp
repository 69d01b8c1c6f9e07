// Simulation time primitives.
//
// All simulation time is kept as an integer number of microseconds so that
// event ordering is exact and runs are reproducible bit-for-bit. Helpers
// convert to/from floating-point seconds at the edges (metrics, reports).
#pragma once

#include <cstdint>
#include <limits>

namespace topfull {

/// Simulation timestamp / duration in microseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kMicrosPerSec = 1'000'000;
inline constexpr SimTime kMicrosPerMilli = 1'000;

/// The largest time, in seconds, that a configuration may set: its
/// microseconds fit SimTime with room left to add a second such time (an
/// injection time plus a duration). About 146,000 years.
inline constexpr double kMaxConfigSeconds =
    static_cast<double>(std::numeric_limits<SimTime>::max() / 2) /
    static_cast<double>(kMicrosPerSec);

/// Converts whole seconds to SimTime.
constexpr SimTime Seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kMicrosPerSec));
}

/// Converts milliseconds to SimTime.
constexpr SimTime Millis(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMicrosPerMilli));
}

/// Converts a SimTime to floating-point seconds (for reporting).
constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerSec);
}

/// Converts a SimTime to floating-point milliseconds (for reporting).
constexpr double ToMillis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerMilli);
}

}  // namespace topfull
