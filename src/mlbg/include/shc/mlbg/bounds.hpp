// Closed-form degree bounds from the paper (Theorems 1, 2, 3, 5, 7 and
// Corollaries 1, 2).  All functions take n = log2 N and are exact
// integer computations (no floating point), so bench tables and tests
// can compare constructed degrees against them reliably.  Each throws a
// std::invalid_argument naming itself and the offending arguments when
// they lie outside the domain its comment states (the counting bounds
// would otherwise loop forever at k = 0).
#pragma once

#include <cstdint>

namespace shc {

/// Theorem 1: for k >= theorem1_k_threshold(N) there is a k-mlbg on N
/// vertices with maximum degree <= 3 (the Figure-1 tree family).
/// Requires N >= 1.
[[nodiscard]] int theorem1_k_threshold(std::uint64_t N);

/// Theorems 2 and 3 combined: a lower bound on the maximum degree of any
/// k-mlbg with N = 2^n vertices.
///   k = 1:       Delta >= n (the source must call n distinct neighbors);
///   k = 2,3,4:   Delta >= ceil(n^(1/k))            (Theorem 2);
///   k >= 5:      smallest Delta >= 3 with 3((Delta-1)^k - 1) >= n
///                (Theorem 3's counting argument, solved exactly).
/// Requires n >= 1 and k >= 1.
[[nodiscard]] int lower_bound_max_degree(int n, int k);

/// The exact counting lower bound: the smallest Delta such that a ball
/// of radius k in a Delta-regular tree reaches >= n vertices beyond the
/// root, i.e. Delta * sum_{i=0}^{k-1} (Delta-1)^i >= n.  Slightly
/// sharper than the closed forms; used in bench tables for comparison.
/// Requires n >= 1 and k >= 1.
[[nodiscard]] int counting_lower_bound(int n, int k);

/// Theorem 5 (k = 2): there is a 2-mlbg of order 2^n with
/// Delta <= 2 * ceil(sqrt(2n + 4)) - 4.  Requires n >= 1.
[[nodiscard]] int theorem5_upper(int n);

/// Theorem 7 (k >= 3): there is a k-mlbg of order 2^n with
/// Delta <= (2k - 1) * ceil(n^(1/k)) - k, for n > k.
/// For k = 2 this returns the abstract's unified form 3*ceil(sqrt(n))-2,
/// which Theorem 5 refines.  Requires n > k >= 2.
[[nodiscard]] int theorem7_upper(int n, int k);

/// Corollary 1: for k >= ceil(log2 n) the construction gives
/// Delta <= 4 * ceil(log2 n) - 2 (= 4 ceil(log2 log2 N) - 2).
/// Requires n >= 2.
[[nodiscard]] int corollary1_upper(int n);

/// Diameter bound from the paper's footnote 1: any k-mlbg of order 2^n
/// has diameter <= k * n.
[[nodiscard]] int diameter_upper(int n, int k) noexcept;

}  // namespace shc
