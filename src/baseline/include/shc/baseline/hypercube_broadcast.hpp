// The classic binomial-tree broadcast on the full n-cube Q_n — the
// paper's point of departure: Q_n is a 1-mlbg (store-and-forward,
// Definition 1 with k = 1) with maximum degree n.  Sparse hypercubes
// trade k > 1 for degree ~ k * n^(1/k).
#pragma once

#include "shc/sim/flat_schedule.hpp"

namespace shc {

/// Minimum-time 1-line (store-and-forward) broadcast on Q_n from
/// `source`: in round t every informed vertex calls its neighbor across
/// dimension n - t + 1.  n rounds, exact doubling, all calls length 1,
/// produced into one flat arena (zero per-call allocations).
/// Throws std::invalid_argument unless 1 <= n <= 28 and source < 2^n.
[[nodiscard]] FlatSchedule hypercube_binomial_broadcast(int n, Vertex source);

}  // namespace shc
