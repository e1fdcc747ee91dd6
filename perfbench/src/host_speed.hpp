// Host-speed reference: a fixed pointer chase the benchmark times after
// each piece of work it times, so that the host's own speed can be
// divided out of the work's time.
//
// On a shared VM the host slows the whole guest by 20-40 % for tens of
// seconds to minutes at a time (cache and memory contention from other
// tenants; the guest sees no steal time and no page-fault cost).  A run
// can fall entirely inside one such stretch, so no statistic over the
// run's own calls removes it.  A chase through random cyclic
// permutations of 1, 4, 16 and 48 MB slows down with the certifications
// (it touches the same levels of cache and memory), and dividing by it
// cut the spread of 45-s means of n = 33..35 certifications from 0.08 to
// 0.03 of the median on a 4-vCPU KVM VM (perfbench/NOTES.md).
//
// The reference is the benchmark's own code and draws on nothing in the
// library, so a change to the library moves the certification's time and
// leaves the reference alone.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

class HostSpeed {
 public:
  /// Median seconds of one pass on the 4-vCPU KVM VM the benchmark was
  /// tuned on.  A time scaled by nominal / measured reads as seconds on
  /// that host at its median speed.
  static constexpr double kNominalPassS = 0.155;

  /// Builds the chains and runs the first pass.
  HostSpeed() {
    // A fixed seed: every run, whatever its --seed, chases the same cycles.
    std::mt19937_64 rng(0x5eed);
    for (std::size_t i = 0; i < kLevels.size(); ++i) chains_[i] = cycle(kLevels[i].words, rng);
    passes_s_.push_back(pass_s());
  }

  /// Runs a pass and returns kNominalPassS over the mean of it and the
  /// previous pass: the factor that scales a wall time measured between
  /// the two passes to the nominal host.
  [[nodiscard]] double factor() {
    passes_s_.push_back(pass_s());
    return kNominalPassS / (0.5 * (passes_s_[passes_s_.size() - 2] + passes_s_.back()));
  }

  /// Every pass so far, in seconds.
  [[nodiscard]] const std::vector<double>& passes_s() const { return passes_s_; }

  /// The process's peak resident set less the chains, which stay
  /// resident for the whole run: the workload's own peak, in MiB.
  [[nodiscard]] double workload_peak_rss_mb() const {
    std::size_t bytes = 0;
    for (const std::vector<std::uint32_t>& c : chains_) bytes += c.size() * sizeof(std::uint32_t);
    return peak_rss_mb() - static_cast<double>(bytes) / (1 << 20);
  }

 private:
  struct Level {
    std::size_t words;  ///< 4-byte entries: 1, 4, 16 and 48 MB
    long steps;         ///< loads per pass
  };
  static constexpr std::array<Level, 4> kLevels = {
      {{1u << 18, 1'000'000}, {1u << 20, 500'000}, {1u << 22, 250'000}, {12u << 20, 250'000}}};

  /// One random cycle through all `n` entries (Sattolo's shuffle), so a
  /// chase visits the whole working set in an order no prefetcher follows.
  static std::vector<std::uint32_t> cycle(std::size_t n, std::mt19937_64& rng) {
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(next[i], next[std::uniform_int_distribution<std::size_t>(0, i - 1)(rng)]);
    }
    return next;
  }

  [[nodiscard]] double pass_s() const {
    const std::uint64_t t0 = now_ns();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kLevels.size(); ++i) sum += chase(chains_[i], kLevels[i].steps);
    sink_ = sum;
    return seconds_since(t0);
  }

  static std::uint64_t chase(const std::vector<std::uint32_t>& next, long steps) {
    std::uint32_t at = 0;
    std::uint64_t sum = 0;
    for (long i = 0; i < steps; ++i) {
      at = next[at];
      sum += at;
    }
    return sum;
  }

  std::array<std::vector<std::uint32_t>, 4> chains_;
  std::vector<double> passes_s_;
  mutable volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
