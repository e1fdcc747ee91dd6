// Provable minimum-time line-broadcast schemes for two extremal tree
// families.
//
// These instantiate Farley's result [14] that every connected graph
// admits a minimum-time broadcast under unbounded-length line calls:
//   * the path P_N via balanced interval splitting, and
//   * the star K_{1,N-1} — the paper's minimum-*edge* k-mlbg for any
//     k >= 2 (Section 2) — via switching through the center.
// Both complete in exactly ceil(log2 N) rounds from any source; tests
// validate the schedules mechanically.
#pragma once

#include "shc/graph/graph.hpp"
#include "shc/sim/flat_schedule.hpp"

namespace shc {

/// Minimum-time line broadcast on the path 0-1-...-N-1 from `source`.
/// Round calls are confined to disjoint intervals, hence edge-disjoint.
/// Call lengths can reach ~N/2 (this is a k = N-1 scheme).
/// Throws std::invalid_argument unless N >= 1 and source < N.
[[nodiscard]] FlatSchedule path_line_broadcast(VertexId N, VertexId source);

/// Minimum-time line broadcast on the star with center 0 and leaves
/// 1..N-1 from `source`.  Every call is length 1 (from the center) or
/// length 2 (leaf to leaf, switching through the center); calls in one
/// round are edge-disjoint because callers and receivers are distinct
/// leaves.  This shows the star is a 2-mlbg.  Throws std::invalid_argument
/// unless N >= 2 and source < N.
[[nodiscard]] FlatSchedule star_line_broadcast(VertexId N, VertexId source);

}  // namespace shc
