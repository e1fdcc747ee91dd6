#include "shc/mlbg/params.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "shc/bits/bitstring.hpp"

namespace shc {
namespace {

/// ceil(m^(i/k)) computed exactly: the smallest x >= 1 with x^k >= m^i.
int ceil_pow_frac(int m, int i, int k) {
  assert(m >= 1 && i >= 0 && k >= 1 && i <= k);  // shc-lint: allow(assert-guard)
  const std::int64_t target = ipow(m, i);
  int x = 1;
  while (ipow(x, k) < target) ++x;
  return x;
}

/// Entry guard of the cut designers: Release builds compile assert
/// out, and an unguarded k < 2 or n <= k indexes past the dynamic
/// program's tables.  `capped` adds the n <= kMaxCubeDim bound that
/// optimal_cuts' tables and every spec share.
void require_design_args(const char* fn, int n, int k, bool capped) {
  if (k >= 2 && n > k && (!capped || n <= kMaxCubeDim)) return;
  throw std::invalid_argument(
      std::string(fn) + ": need n > k >= 2" +
      (capped ? " and n <= " + std::to_string(kMaxCubeDim) : std::string()) +
      " (got n = " + std::to_string(n) + ", k = " + std::to_string(k) + ")");
}

/// Cost of one level: cross dimensions split among the Lemma-2 label
/// count of the window.
int level_cost(int win, int span) {
  assert(win >= 1 && span >= 0);  // shc-lint: allow(assert-guard)
  return static_cast<int>(
      ceil_div(span, static_cast<std::int64_t>(lemma2_num_labels(win))));
}

}  // namespace

int theorem5_core(int n) {
  if (n < 2) {
    throw std::invalid_argument("theorem5_core: need n >= 2, got " + std::to_string(n));
  }
  const int m = ceil_root(2 * std::int64_t{n} + 4, 2) - 2;
  return std::clamp(m, 1, n - 1);
}

std::vector<int> theorem7_cuts(int n, int k) {
  require_design_args("theorem7_cuts", n, k, false);
  if (k == 2) return {theorem5_core(n)};
  const int m = n - k;
  std::vector<int> cuts(static_cast<std::size_t>(k) - 1);
  for (int i = 1; i <= k - 1; ++i) {
    cuts[static_cast<std::size_t>(i) - 1] = ceil_pow_frac(m, i, k) + i - 1;
  }
  // Repair pass: strictly increasing inside [1, n-1].  The paper's
  // choice already satisfies this for n >> k; small n needs nudging.
  cuts.front() = std::max(cuts.front(), 1);
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    cuts[i] = std::max(cuts[i], cuts[i - 1] + 1);
  }
  cuts.back() = std::min(cuts.back(), n - 1);
  for (std::size_t i = cuts.size() - 1; i > 0; --i) {
    cuts[i - 1] = std::min(cuts[i - 1], cuts[i] - 1);
  }
  assert(cuts.front() >= 1);  // shc-lint: allow(assert-guard)
  return cuts;
}

int realized_max_degree(int n, const std::vector<int>& cuts) {
  if (cuts.empty() || cuts.front() < 1 || cuts.back() >= n ||
      std::adjacent_find(cuts.begin(), cuts.end(), std::greater_equal<>()) != cuts.end()) {
    throw std::invalid_argument(
        "realized_max_degree: cuts must be nonempty, strictly increasing and in [1, n), n = " +
        std::to_string(n));
  }
  int degree = cuts.front();
  int prev = 0;
  for (std::size_t t = 0; t < cuts.size(); ++t) {
    const int cur = cuts[t];
    const int next = (t + 1 < cuts.size()) ? cuts[t + 1] : n;
    degree += level_cost(cur - prev, next - cur);
    prev = cur;
  }
  return degree;
}

std::vector<int> optimal_cuts(int n, int k) {
  require_design_args("optimal_cuts", n, k, true);
  const int levels = k - 1;
  constexpr int kInf = std::numeric_limits<int>::max() / 4;

  // best[t][prev][cur] = min cost of levels t..levels-1 given window
  // (prev, cur]; level indices 0-based, n_k = n fixed.
  const std::size_t side = static_cast<std::size_t>(n) + 1;
  auto idx = [side](int t, int prev, int cur) {
    return (static_cast<std::size_t>(t) * side + static_cast<std::size_t>(prev)) * side +
           static_cast<std::size_t>(cur);
  };
  std::vector<int> best(static_cast<std::size_t>(levels) * side * side, -1);

  auto solve = [&](auto&& self, int t, int prev, int cur) -> int {
    int& memo = best[idx(t, prev, cur)];
    if (memo >= 0) return memo;
    if (t == levels - 1) {
      return memo = level_cost(cur - prev, n - cur);
    }
    int value = kInf;
    // Leave room for the remaining strictly increasing cuts.
    const int hi = n - (levels - 1 - t);
    for (int next = cur + 1; next <= hi; ++next) {
      value = std::min(value,
                       level_cost(cur - prev, next - cur) + self(self, t + 1, cur, next));
    }
    return memo = value;
  };

  int best_total = kInf;
  int best_first = 1;
  for (int c1 = 1; c1 <= n - levels; ++c1) {
    const int total = c1 + solve(solve, 0, 0, c1);
    if (total < best_total) {
      best_total = total;
      best_first = c1;
    }
  }

  // Reconstruct the argmin chain.
  std::vector<int> cuts;
  cuts.reserve(static_cast<std::size_t>(levels));
  cuts.push_back(best_first);
  int prev = 0;
  for (int t = 0; t < levels - 1; ++t) {
    const int cur = cuts.back();
    const int want = solve(solve, t, prev, cur);
    const int hi = n - (levels - 1 - t);
    for (int next = cur + 1; next <= hi; ++next) {
      if (level_cost(cur - prev, next - cur) + solve(solve, t + 1, cur, next) == want) {
        cuts.push_back(next);
        break;
      }
    }
    assert(static_cast<int>(cuts.size()) == t + 2 &&  // shc-lint: allow(assert-guard)
           "reconstruction must advance");
    prev = cur;
  }
  assert(realized_max_degree(n, cuts) == best_total);  // shc-lint: allow(assert-guard)
  return cuts;
}

SparseHypercubeSpec design_sparse_hypercube(int n, int k) {
  require_design_args("design_sparse_hypercube", n, k, true);
  return SparseHypercubeSpec::construct(n, optimal_cuts(n, k));
}

SparseHypercubeSpec design_best_sparse_hypercube(int n, int k_max) {
  if (n <= 2 || k_max < 2) {
    throw std::invalid_argument(
        "design_best_sparse_hypercube: need n > 2 and k_max >= 2 (got n = " +
        std::to_string(n) + ", k_max = " + std::to_string(k_max) + ")");
  }
  int best_degree = std::numeric_limits<int>::max();
  std::vector<int> best_cuts;
  for (int j = 2; j <= k_max && j < n; ++j) {
    const auto cuts = optimal_cuts(n, j);
    const int degree = realized_max_degree(n, cuts);
    // Strict improvement keeps the smallest k (shortest calls) on ties.
    if (degree < best_degree) {
      best_degree = degree;
      best_cuts = cuts;
    }
  }
  return SparseHypercubeSpec::construct(n, best_cuts);
}

}  // namespace shc
