// Parameter selection for the construction: the paper's closed-form
// choices (Theorem 5's m*, Theorem 7's n_i*) and an exact dynamic
// program that minimizes the realized maximum degree — used both to
// build the best graphs and as the ablation baseline showing how much
// the closed forms give away.
#pragma once

#include <vector>

#include "shc/mlbg/spec.hpp"

namespace shc {

/// Theorem 5's core size for k = 2: m* = ceil(sqrt(2n + 4)) - 2,
/// clamped into [1, n-1].  Throws std::invalid_argument unless n >= 2.
[[nodiscard]] int theorem5_core(int n);

/// Theorem 7's cut points for k >= 3: n_i* = ceil((n-k)^(i/k)) + i - 1
/// for i = 1 .. k-1, repaired to be strictly increasing inside [1, n-1]
/// (the paper assumes n large enough that no repair is needed).
/// For k = 2 returns {theorem5_core(n)}.  Throws std::invalid_argument
/// unless n > k >= 2.
[[nodiscard]] std::vector<int> theorem7_cuts(int n, int k);

/// Realized maximum degree of Construct(n, cuts) with Lemma-2 labelings,
/// in closed form: n_1 + sum_t ceil((n_{t+1} - n_t) / lambda(n_t - n_{t-1})).
/// Throws std::invalid_argument unless `cuts` is nonempty, strictly
/// increasing and within [1, n).
[[nodiscard]] int realized_max_degree(int n, const std::vector<int>& cuts);

/// Exact minimization of realized_max_degree over all strictly
/// increasing cut vectors of length k-1 by dynamic programming,
/// O(k n^3).  Throws std::invalid_argument unless n > k >= 2 and
/// n <= 63.
[[nodiscard]] std::vector<int> optimal_cuts(int n, int k);

/// Convenience: the best of theorem7_cuts and optimal_cuts (they agree
/// asymptotically; optimal_cuts is never worse).  Throws
/// std::invalid_argument unless n > k >= 2 and n <= 63.
[[nodiscard]] SparseHypercubeSpec design_sparse_hypercube(int n, int k);

/// Property-2-aware designer: since G_j subset G_{j+1}, any j-mlbg with
/// j <= k_max serves as a k_max-mlbg; this returns the minimum-degree
/// construction over all 2 <= j <= k_max.  At small n a lower j often
/// wins (fewer levels, less rounding waste) even though the asymptotic
/// degree shrinks with k.  Throws std::invalid_argument unless n > 2,
/// k_max >= 2 and n <= 63.
[[nodiscard]] SparseHypercubeSpec design_best_sparse_hypercube(int n, int k_max);

}  // namespace shc
