// Tests for the closed-form bounds (Theorems 1-3, 5, 7; Corollaries 1-2)
// and the parameter selectors, including conformance of constructed
// degrees to the published bounds across sweeps.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "shc/bits/bitstring.hpp"
#include "shc/mlbg/bounds.hpp"
#include "shc/mlbg/params.hpp"

namespace shc {
namespace {

TEST(Theorem1, ThresholdMatchesTreeDiameter) {
  // For N = 3 * 2^h - 2 the threshold is exactly the tree diameter 2h.
  for (int h = 1; h <= 12; ++h) {
    const std::uint64_t N = 3 * (std::uint64_t{1} << h) - 2;
    EXPECT_EQ(theorem1_k_threshold(N), 2 * h) << "h=" << h;
  }
}

TEST(Theorem1, ThresholdMonotoneInN) {
  for (std::uint64_t N = 2; N < 4000; ++N) {
    EXPECT_LE(theorem1_k_threshold(N), theorem1_k_threshold(N + 1));
  }
}

TEST(LowerBound, Theorem2ClosedForms) {
  // k = 2: ceil(sqrt(n)); k = 3: ceil(n^(1/3)); k = 4: ceil(n^(1/4)).
  EXPECT_EQ(lower_bound_max_degree(16, 2), 4);
  EXPECT_EQ(lower_bound_max_degree(17, 2), 5);
  EXPECT_EQ(lower_bound_max_degree(27, 3), 3);
  EXPECT_EQ(lower_bound_max_degree(28, 3), 4);
  EXPECT_EQ(lower_bound_max_degree(16, 4), 2);
  EXPECT_EQ(lower_bound_max_degree(17, 4), 3);
}

TEST(LowerBound, StoreAndForwardIsN) {
  for (int n = 1; n <= 20; ++n) EXPECT_EQ(lower_bound_max_degree(n, 1), n);
}

TEST(LowerBound, Theorem3ForLargeK) {
  // n <= 3((Delta-1)^k - 1): for k = 5, Delta = 3 covers n <= 93.
  EXPECT_EQ(lower_bound_max_degree(93, 5), 3);
  EXPECT_EQ(lower_bound_max_degree(94, 5), 4);
  // Every lower bound is at least 3 in the Theorem-3 regime (the cycle
  // argument rules out Delta = 2 for n > k >= 5).
  for (int k = 5; k <= 8; ++k) {
    for (int n = k + 1; n <= 40; ++n) {
      EXPECT_GE(lower_bound_max_degree(n, k), 3);
    }
  }
}

TEST(LowerBound, CountingBoundDominatesClosedForm) {
  // The exact counting bound is never weaker than the published one for
  // k in the Theorem-2 range.
  for (int k = 2; k <= 4; ++k) {
    for (int n = 2; n <= 60; ++n) {
      EXPECT_GE(counting_lower_bound(n, k), lower_bound_max_degree(n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Theorem5, UpperBoundValues) {
  // Delta <= 2*ceil(sqrt(2n+4)) - 4.
  EXPECT_EQ(theorem5_upper(1), 2 * 3 - 4);  // paper's n = 1 check: 2
  EXPECT_EQ(theorem5_upper(16), 2 * 6 - 4);
  EXPECT_EQ(theorem5_upper(30), 2 * 8 - 4);
}

TEST(Theorem5, ConstructionConformsForAllN) {
  for (int n = 2; n <= 40; ++n) {
    const int m = theorem5_core(n);
    ASSERT_GE(m, 1);
    ASSERT_LT(m, n);
    const int delta = realized_max_degree(n, {m});
    EXPECT_LE(delta, theorem5_upper(n)) << "n=" << n << " m=" << m;
    // And the lower bound is respected with room at most ~2x+const
    // (the paper: within twice the lower bound for the best m).
    EXPECT_GE(delta, lower_bound_max_degree(n, 2));
  }
}

TEST(Theorem5, SpecialCaseMEqualsLambdaStructure) {
  // Note after Theorem 5: if m = 2^p - 1 and n = m(m+2) then
  // Delta = (n - m)/lambda + m = 2m < 2*sqrt(n).
  for (int p = 1; p <= 3; ++p) {
    const int m = (1 << p) - 1;
    const int n = m * (m + 2);
    if (n < 2) continue;
    const int delta = realized_max_degree(n, {m});
    EXPECT_EQ(delta, 2 * m);
    EXPECT_LT(delta, 2 * ceil_root(n, 2) + 1);
  }
}

TEST(Designers, RejectOutOfRangeArgumentsWithTypedExceptions) {
  // Guards that survive Release builds: k < 2 or n <= k used to index
  // past optimal_cuts' tables.
  for (const auto& [n, k] : std::vector<std::pair<int, int>>{
           {20, 1}, {20, 0}, {0, 2}, {0, 0}, {3, 3}, {2, 5}, {-4, 2}}) {
    EXPECT_THROW(static_cast<void>(theorem7_cuts(n, k)), std::invalid_argument)
        << n << "," << k;
    EXPECT_THROW(static_cast<void>(optimal_cuts(n, k)), std::invalid_argument)
        << n << "," << k;
    EXPECT_THROW(static_cast<void>(design_sparse_hypercube(n, k)),
                 std::invalid_argument)
        << n << "," << k;
  }
  EXPECT_THROW(static_cast<void>(optimal_cuts(64, 3)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(design_best_sparse_hypercube(20, 1)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(design_best_sparse_hypercube(2, 4)),
               std::invalid_argument);
  try {
    static_cast<void>(design_sparse_hypercube(20, 1));
    ADD_FAILURE() << "design_sparse_hypercube(20, 1) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "design_sparse_hypercube: need n > k >= 2 and n <= 63 "
                 "(got n = 20, k = 1)");
  }
}

TEST(Theorem7, CutsAreValid) {
  for (int k = 3; k <= 6; ++k) {
    for (int n = k + 1; n <= 50; ++n) {
      const auto cuts = theorem7_cuts(n, k);
      ASSERT_EQ(cuts.size(), static_cast<std::size_t>(k - 1));
      EXPECT_GE(cuts.front(), 1);
      EXPECT_LT(cuts.back(), n);
      for (std::size_t i = 1; i < cuts.size(); ++i) EXPECT_LT(cuts[i - 1], cuts[i]);
    }
  }
}

class Theorem7Conformance : public ::testing::TestWithParam<int> {};

TEST_P(Theorem7Conformance, RealizedDegreeWithinBound) {
  const int k = GetParam();
  // The paper proves the bound for the closed-form cuts when n is large
  // enough relative to k; we check the asymptotic regime n >= k^2.
  for (int n = std::max(k + 1, k * k); n <= 60; ++n) {
    const auto cuts = theorem7_cuts(n, k);
    const int delta = realized_max_degree(n, cuts);
    EXPECT_LE(delta, theorem7_upper(n, k)) << "n=" << n << " k=" << k;
    EXPECT_GE(delta, lower_bound_max_degree(n, k)) << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, Theorem7Conformance, ::testing::Values(3, 4, 5, 6));

TEST(OptimalCuts, NeverWorseThanClosedForm) {
  for (int k = 2; k <= 5; ++k) {
    for (int n = std::max(k + 1, k * k); n <= 40; ++n) {
      const auto closed = (k == 2) ? std::vector<int>{theorem5_core(n)}
                                   : theorem7_cuts(n, k);
      const auto best = optimal_cuts(n, k);
      ASSERT_EQ(best.size(), static_cast<std::size_t>(k - 1));
      EXPECT_LE(realized_max_degree(n, best), realized_max_degree(n, closed))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(OptimalCuts, MatchesRealizedSpecDegree) {
  for (int k = 2; k <= 4; ++k) {
    const int n = 12;
    const auto cuts = optimal_cuts(n, k);
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    EXPECT_EQ(static_cast<int>(spec.max_degree()), realized_max_degree(n, cuts));
  }
}

TEST(Corollary1, LogRegimeBound) {
  // For k = ceil(log2 n) the realized degree stays within
  // 4*ceil(log2 n) - 2.
  for (int n = 8; n <= 40; ++n) {
    const int k = ceil_log2(static_cast<std::uint64_t>(n));
    if (k < 2 || n <= k) continue;
    const auto cuts = optimal_cuts(n, k);
    EXPECT_LE(realized_max_degree(n, cuts), corollary1_upper(n)) << "n=" << n;
  }
}

TEST(Corollary2, ConstantKIsThetaOfKthRoot) {
  // Ratio between realized degree and n^(1/k) stays bounded by 2k-1
  // above and 1 below — the tightness claim for constant k.
  for (int k = 2; k <= 4; ++k) {
    for (int n = k * k; n <= 60; ++n) {
      const int delta = realized_max_degree(n, optimal_cuts(n, k));
      const int root = ceil_root(n, k);
      EXPECT_LE(delta, (2 * k - 1) * root) << "n=" << n << " k=" << k;
      EXPECT_GE(delta, root - 1) << "n=" << n << " k=" << k;
    }
  }
}

TEST(DiameterBound, FootnoteOne) {
  EXPECT_EQ(diameter_upper(10, 2), 20);
  EXPECT_EQ(diameter_upper(15, 3), 45);
}

TEST(Theorem5Core, FormulaAndClamping) {
  EXPECT_EQ(theorem5_core(2), 1);       // clamped to < n
  for (int n = 2; n <= 50; ++n) {
    const int m = theorem5_core(n);
    EXPECT_GE(m, 1);
    EXPECT_LT(m, n);
  }
  // Unclamped formula: ceil(sqrt(2*16+4)) - 2 = 6 - 2 = 4.
  EXPECT_EQ(theorem5_core(16), 4);
}

TEST(ParamsGuards, BadInputsThrowNamedErrors) {
  // Both are public entry points: a Release build must refuse bad input
  // rather than compute from it.
  EXPECT_THROW(static_cast<void>(theorem5_core(1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(theorem5_core(-5)), std::invalid_argument);
  EXPECT_EQ(theorem5_core(std::numeric_limits<int>::max()), 65535);  // no int overflow
  for (const std::vector<int>& cuts :
       {std::vector<int>{}, {0}, {10}, {11}, {5, 3}, {3, 3}, {-2, 4}}) {
    EXPECT_THROW(static_cast<void>(realized_max_degree(10, cuts)), std::invalid_argument);
  }
  EXPECT_EQ(realized_max_degree(10, {3, 6}), 3 + 1 + 1);
}

}  // namespace
}  // namespace shc
