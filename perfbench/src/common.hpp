// Shared plumbing of the benchmark workloads: the clock, the metric
// list a run reports, and the attempted/failed ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "shc/obs/recorder.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Process resident-set high-water mark in MiB.
[[nodiscard]] inline double peak_rss_mb() {
  return static_cast<double>(shc::obs::rss_high_water_kb()) / 1024.0;
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: every operation it checked, and its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Counts one checked operation; a failed check is reported on stderr
  /// (the first few only) and counted.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

/// `row` without its `"<field>":<number>` member, for comparing rows of
/// one query whose timing (or thread-count dependent) fields differ.
[[nodiscard]] inline std::string without_field(const std::string& row,
                                               const std::string& field) {
  const std::string tag = "\"" + field + "\":";
  const std::size_t at = row.find(tag);
  if (at == std::string::npos) return row;
  std::size_t end = at + tag.size();
  while (end < row.size() && row[end] != ',' && row[end] != '}') ++end;
  // Drop the member together with the comma that joins it to the row.
  if (end < row.size() && row[end] == ',') return row.substr(0, at) + row.substr(end + 1);
  if (at > 0 && row[at - 1] == ',') return row.substr(0, at - 1) + row.substr(end);
  return row.substr(0, at) + row.substr(end);
}

}  // namespace perfbench
