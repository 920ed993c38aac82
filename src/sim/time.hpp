// Simulated time for the discrete-event simulator.
//
// All simulator time is expressed as a signed 64-bit count of nanoseconds
// since the start of the simulation. A signed type is used so that interval
// arithmetic (e.g. `deadline - now`) cannot silently wrap.
#pragma once

#include <cstdint>

namespace hsim::sim {

/// Absolute simulated time or a duration, in nanoseconds.
using Time = std::int64_t;

/// A time value meaning "never" / "no deadline".
inline constexpr Time kNever = INT64_MAX;

constexpr Time microseconds(std::int64_t us) { return us * 1'000; }
constexpr Time milliseconds(std::int64_t ms) { return ms * 1'000'000; }
constexpr Time seconds(std::int64_t s) { return s * 1'000'000'000; }

/// Converts a floating-point second count to simulator Time.
constexpr Time from_seconds(double s) {
  return static_cast<Time>(s * 1e9);
}

/// Converts a Time to floating-point seconds (for reporting).
constexpr double to_seconds(Time t) {
  return static_cast<double>(t) / 1e9;
}

/// Converts a Time to floating-point milliseconds (for reporting).
constexpr double to_milliseconds(Time t) {
  return static_cast<double>(t) / 1e6;
}

}  // namespace hsim::sim
