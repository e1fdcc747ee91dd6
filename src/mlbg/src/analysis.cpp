#include "shc/mlbg/analysis.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "shc/bits/bitstring.hpp"

namespace shc {

std::vector<Vertex> greedy_route(const SparseHypercubeSpec& spec, Vertex u, Vertex v) {
  if (u >= spec.num_vertices() || v >= spec.num_vertices()) {
    throw std::invalid_argument("greedy_route: vertices must lie in [0, " +
                                std::to_string(spec.num_vertices()) + "), got u = " +
                                std::to_string(u) + ", v = " + std::to_string(v));
  }
  std::vector<Vertex> walk{u};
  Vertex cur = u;
  while (cur != v) {
    const Dim d = static_cast<Dim>(63 - __builtin_clzll(cur ^ v)) + 1;
    const std::vector<Vertex> leg = route_flip(spec, cur, d);
    // route_flip only disturbs dimensions below d and fixes dimension d,
    // so the highest differing dimension strictly decreases.
    walk.insert(walk.end(), leg.begin() + 1, leg.end());
    cur = leg.back();
    // route_flip's contract, not caller input:
    assert((cur >> (d - 1)) == (v >> (d - 1)));  // shc-lint: allow(assert-guard)
  }
  return walk;
}

RoutingStats sample_routing(const SparseHypercubeSpec& spec, std::uint64_t pairs,
                            std::uint64_t seed) {
  RoutingStats stats;
  stats.footnote_bound = spec.k() * spec.n();
  const Vertex mask = mask_low(spec.n());
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  double stretch_sum = 0.0;
  for (std::uint64_t p = 0; p < pairs; ++p) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Vertex a = (x >> 5) & mask;
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Vertex b = (x >> 7) & mask;
    if (a == b) b = a ^ 1;
    const auto walk = greedy_route(spec, a, b);
    const int hops = static_cast<int>(walk.size()) - 1;
    const int hamming = hamming_distance(a, b);
    ++stats.pairs;
    stats.total_hops += static_cast<std::uint64_t>(hops);
    stats.max_hops = std::max(stats.max_hops, hops);
    const double stretch = static_cast<double>(hops) / static_cast<double>(hamming);
    stretch_sum += stretch;
    stats.max_stretch = std::max(stats.max_stretch, stretch);
  }
  stats.mean_stretch = stats.pairs ? stretch_sum / static_cast<double>(stats.pairs) : 0.0;
  stats.within_bound = stats.max_hops <= stats.footnote_bound;
  return stats;
}

std::vector<std::uint64_t> dimension_edge_profile(const SparseHypercubeSpec& spec) {
  const int n = spec.n();
  std::vector<std::uint64_t> profile(static_cast<std::size_t>(n), 0);
  for (Dim i = 1; i <= n; ++i) {
    const int t = spec.level_of_dim(i);
    if (t < 0) {
      profile[static_cast<std::size_t>(i - 1)] = cube_order(n - 1);
      continue;
    }
    const ConstructionLevel& lv = spec.levels()[static_cast<std::size_t>(t)];
    const Label owner = lv.dim_owner[static_cast<std::size_t>(i - lv.dim_lo - 1)];
    const std::uint64_t class_size = lv.labeling.class_sizes()[owner];
    const int window = lv.win_hi - lv.win_lo;
    // Vertices carrying the owner label: class_size * 2^(n - window);
    // each dimension-i edge joins two of them.
    profile[static_cast<std::size_t>(i - 1)] = class_size * cube_order(n - window) / 2;
  }
  return profile;
}

BroadcastTreeStats analyze_broadcast_tree(const FlatSchedule& schedule) {
  BroadcastTreeStats stats;
  std::unordered_map<Vertex, std::size_t> fanout;
  fanout[schedule.source] = 0;
  std::uint64_t informed = 1;
  for (int t = 0; t < schedule.num_rounds(); ++t) {
    for (const FlatSchedule::CallView c : schedule.round(t)) {
      ++fanout[c.caller()];
      fanout.emplace(c.receiver(), 0);
      ++informed;
      stats.height = t + 1;
    }
    stats.informed_per_round.push_back(informed);
  }
  stats.vertices = fanout.size();
  for (const auto& [v, f] : fanout) stats.max_fanout = std::max(stats.max_fanout, f);
  stats.fanout_histogram.assign(stats.max_fanout + 1, 0);
  for (const auto& [v, f] : fanout) ++stats.fanout_histogram[f];
  return stats;
}

}  // namespace shc
