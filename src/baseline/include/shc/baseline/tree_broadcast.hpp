// Line broadcast on arbitrary trees — the substrate behind the paper's
// Theorem 1 (the Figure-1 degree-3 tree family is a k-mlbg once k
// reaches the diameter) and behind Farley's general result [14] that
// every connected graph lies in G_{N-1}.
//
// The scheduler is a territory-splitting greedy: each round, every
// informed vertex owning uninformed territory places one call to a
// balance point of its territory (the vertex whose BFS subtree is
// closest to half the territory).  Territories are the Voronoi regions
// of the informed set, so concurrent calls live in vertex-disjoint
// regions and are edge-disjoint by construction — feasibility is
// guaranteed; optimality (= ceil(log2 N) rounds) is reported, not
// assumed, and certified by tests on the families the paper needs
// (paths, stars, caterpillars, complete binary trees, Figure-1 trees).
#pragma once

#include "shc/graph/graph.hpp"
#include "shc/sim/flat_schedule.hpp"

namespace shc {

/// Outcome of the tree scheduler.
struct TreeBroadcastResult {
  FlatSchedule schedule;
  int rounds = 0;
  int minimum_rounds = 0;  ///< ceil(log2 N)
  bool achieved_minimum = false;
  int max_call_length = 0;
};

/// Schedules a line broadcast (unbounded call length) on `tree` from
/// `source`.  The schedule is always feasible; achieved_minimum reports
/// whether it is minimum-time.  Throws std::invalid_argument unless
/// is_tree(tree) and source < N.
[[nodiscard]] TreeBroadcastResult tree_line_broadcast(const Graph& tree,
                                                      VertexId source);

/// Minimum-time broadcast on the Theorem-1 / Figure-1 tree
/// (make_theorem1_tree(h)) from any source, by composition:
///   round 1: the source calls the root of the *other* component tree
///            (crossing the joining edge once, call length <= h+1);
///   rounds 2..h+2: the two complete binary trees broadcast internally
///            and independently — B(h) from the source side takes h+1
///            rounds, B(h-1) from its root takes h rounds.
/// Total 1 + (h+1) = h+2 = ceil(log2(3*2^h - 2)) rounds for h >= 2, so
/// the tree is a k-mlbg for every k >= 2h (Theorem 1); all calls stay
/// within the diameter 2h.  h = 1 (the tree is K_{1,3}) falls back to
/// the generic scheduler.  Throws std::invalid_argument unless
/// 1 <= h <= 30 and source < 3*2^h - 2.
[[nodiscard]] TreeBroadcastResult theorem1_tree_broadcast(int h, VertexId source);

}  // namespace shc
