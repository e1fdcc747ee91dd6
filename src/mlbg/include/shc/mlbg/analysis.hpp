// Structural analysis of sparse hypercubes and their schedules:
// point-to-point routing (the paper's footnote-1 diameter claim made
// executable), per-dimension edge profiles, and broadcast-tree shape
// statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/flat_schedule.hpp"

namespace shc {

/// Dimension-ordered greedy route from u to v: fix differing dimensions
/// from the highest down, each via route_flip (direct edge or the <= k
/// Remark-1 detour).  The walk's length is at most k per initially
/// differing dimension — at most k*n overall, which witnesses footnote 1:
/// a k-mlbg of order 2^n has diameter <= k*n.  Lower dimensions disturbed
/// by detours are themselves fixed later in the sweep, so the walk always
/// terminates at v.  Works at any n <= 63 (no materialization).
/// Throws std::invalid_argument naming u and v when either is not a
/// vertex of `spec`.
[[nodiscard]] std::vector<Vertex> greedy_route(const SparseHypercubeSpec& spec,
                                               Vertex u, Vertex v);

/// Routing quality of `spec` over sampled vertex pairs.
struct RoutingStats {
  std::uint64_t pairs = 0;
  std::uint64_t total_hops = 0;
  int max_hops = 0;
  double mean_stretch = 0.0;  ///< hops / Hamming distance, averaged
  double max_stretch = 0.0;
  int footnote_bound = 0;     ///< k * n
  bool within_bound = false;  ///< max_hops <= k * n
};

/// Routes `pairs` pseudo-random pairs through greedy_route and
/// aggregates.  Deterministic for a given seed.
[[nodiscard]] RoutingStats sample_routing(const SparseHypercubeSpec& spec,
                                          std::uint64_t pairs, std::uint64_t seed);

/// Per-dimension edge counts of the spec, in closed form.  Index i-1
/// holds the number of dimension-i edges: 2^(n-1) for core dimensions,
/// |class(owner)| * 2^(n - window - 1) ... computed from label-class
/// sizes for Rule-2 dimensions.  Summing the vector gives num_edges().
[[nodiscard]] std::vector<std::uint64_t> dimension_edge_profile(
    const SparseHypercubeSpec& spec);

/// Shape of the broadcast tree induced by a schedule (parent = caller).
struct BroadcastTreeStats {
  std::uint64_t vertices = 0;
  int height = 0;                         ///< max rounds-depth of a leaf
  std::size_t max_fanout = 0;             ///< most calls placed by one vertex
  std::vector<std::size_t> fanout_histogram;  ///< [f] = #vertices placing f calls
  std::vector<std::size_t> informed_per_round;  ///< cumulative after each round
};

/// Extracts tree statistics from a broadcast schedule.  The fanout of a
/// vertex equals the number of rounds it spends calling — in a
/// minimum-time schedule the source has fanout n, the last-informed
/// vertices fanout 0.
[[nodiscard]] BroadcastTreeStats analyze_broadcast_tree(const FlatSchedule& schedule);

}  // namespace shc
