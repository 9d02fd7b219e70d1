// Virtual time.
//
// The simulation uses integer microsecond ticks. Integer time (rather than
// floating point) makes event ordering exact and runs reproducible across
// platforms; a microsecond resolves every delay the network model produces
// (transmission times down to single bytes on multi-megabit links).
//
// The types live in util (not sim) so the protocol layer can talk about
// time without depending on the discrete-event simulator: a real-socket
// backend measures the same microsecond ticks against a wall clock.
// src/sim/time.h re-exports these names into rbcast::sim for the layers
// that sit above the simulator.
#pragma once

#include <cstdint>

namespace rbcast::util {

// Absolute virtual time in microseconds since simulation start.
using TimePoint = std::int64_t;
// Relative virtual duration in microseconds.
using Duration = std::int64_t;

constexpr Duration microseconds(std::int64_t n) { return n; }
constexpr Duration milliseconds(std::int64_t n) { return n * 1000; }
constexpr Duration seconds(std::int64_t n) { return n * 1'000'000; }

// Converts a floating-point second count (e.g. a random exponential draw)
// to ticks, rounding to the nearest microsecond, never below zero.
constexpr Duration from_seconds(double s) {
  const double us = s * 1e6;
  return us <= 0.0 ? 0 : static_cast<Duration>(us + 0.5);
}

// Scales a duration by `factor`, truncating to whole ticks but never below
// one: a period tuned down to zero would re-arm its timer forever.
constexpr Duration scaled(Duration d, double factor) {
  const auto ticks = static_cast<Duration>(static_cast<double>(d) * factor);
  return ticks < 1 ? 1 : ticks;
}

constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / 1e6;
}

}  // namespace rbcast::util
