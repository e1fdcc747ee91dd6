// Sample statistics for the benchmark: quantiles, the tail-percentile
// rule, and open-loop request timing.
//
// Tail rule: a timing is reported as its median and the highest
// percentile (capped at p99) that still has at least ten samples beyond
// it.  With fewer than 1000 samples p99 is not defensible, so the tail
// falls back to p(1 - 10/N), and to the median below 20 samples.
//
// Open-loop timing: a request's latency runs from the moment it was
// *due* to be sent, not from when the generator got round to sending
// it, so a stall charges its wait to every request queued behind it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// q-quantile (0 <= q <= 1) by linear interpolation between closest
/// ranks; NaN for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The quantile level the tail rule allows for `n` samples: the highest
/// level <= `cap` with at least `beyond` samples above it, never below
/// the median.
[[nodiscard]] inline double tail_level(std::size_t n, double cap = 0.99,
                                       std::size_t beyond = 10) {
  if (n == 0) return 0.5;
  const double allowed =
      1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::clamp(allowed, 0.5, cap);
}

/// The sample's tail percentile under the tail rule.
[[nodiscard]] inline double tail(const std::vector<double>& v, double cap = 0.99) {
  return quantile(v, tail_level(v.size(), cap));
}

/// Timestamps of one open-loop request, in nanoseconds on one clock.
struct RequestTiming {
  std::uint64_t due_ns = 0;       ///< when the schedule says it is sent
  std::uint64_t released_ns = 0;  ///< when the generator actually sent it
  std::uint64_t started_ns = 0;   ///< when a handler picked it up
  std::uint64_t done_ns = 0;      ///< when its response was complete
};

/// Due-to-done latency in milliseconds; +infinity for a request that was
/// refused or answered wrongly, so it counts as over every limit.
[[nodiscard]] inline double latency_ms(const RequestTiming& t, bool answered_ok) {
  if (!answered_ok) return std::numeric_limits<double>::infinity();
  return static_cast<double>(t.done_ns - t.due_ns) * 1e-6;
}

/// How late the generator sent the request, in milliseconds.
[[nodiscard]] inline double lateness_ms(const RequestTiming& t) {
  return static_cast<double>(t.released_ns - t.due_ns) * 1e-6;
}

/// How long the sent request waited for a handler, in milliseconds.
[[nodiscard]] inline double queue_wait_ms(const RequestTiming& t) {
  return static_cast<double>(t.started_ns - t.released_ns) * 1e-6;
}

/// Handler time of the request, in microseconds.
[[nodiscard]] inline double service_us(const RequestTiming& t) {
  return static_cast<double>(t.done_ns - t.started_ns) * 1e-3;
}

}  // namespace perfbench
