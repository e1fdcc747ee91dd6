// Cross-module property sweeps: the construction's guarantees must hold
// for *any* Condition-A labeling (not just the shipped ones), for wide
// (n, k) ranges via closed forms, and for sampled sources at larger n.
#include <gtest/gtest.h>

#include "shc/shc.hpp"

namespace shc {
namespace {

// Theorem 4/6 is labeling-agnostic: plug exact-search labelings (which
// differ from Hamming/Lemma-2 ones) into the construction and re-verify.
class ExactLabelingConstruction : public ::testing::TestWithParam<int> {};

TEST_P(ExactLabelingConstruction, BroadcastStillMinimumTime) {
  const int m = GetParam();
  const auto exact = max_condition_a_labels(m);
  const auto labeling = find_condition_a_labeling(m, exact.lambda);
  ASSERT_TRUE(labeling.has_value());
  ASSERT_TRUE(labeling->satisfies_condition_a());

  const int n = m + 4;
  const auto spec = SparseHypercubeSpec::construct_base(n, m, *labeling);
  const SpecView view(spec);
  for (Vertex s = 0; s < spec.num_vertices(); s += 3) {
    const auto rep =
        validate_minimum_time_k_line(view, make_broadcast_schedule(spec, s), 2);
    ASSERT_TRUE(rep.ok) << "m=" << m << " s=" << s << ": " << rep.error;
    EXPECT_TRUE(rep.minimum_time);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallM, ExactLabelingConstruction, ::testing::Range(1, 5));

// Degree formula vs bound, exhaustively across the whole supported range
// of (n, k) — pure closed forms, no materialization.
TEST(WideSweep, EveryConstructionRespectsItsBound) {
  for (int k = 2; k <= 8; ++k) {
    for (int n = std::max(k + 1, k * k); n <= 63; ++n) {
      const auto cuts = (k == 2) ? std::vector<int>{theorem5_core(n)}
                                 : theorem7_cuts(n, k);
      const int realized = realized_max_degree(n, cuts);
      const int bound = (k == 2) ? theorem5_upper(n) : theorem7_upper(n, k);
      EXPECT_LE(realized, bound) << "n=" << n << " k=" << k;
      EXPECT_GE(realized, lower_bound_max_degree(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

// Monotonicity: the optimal degree never increases when the call budget
// grows (Property 2 made quantitative).
TEST(WideSweep, OptimalDegreeMonotoneInK) {
  for (int n : {12, 20, 32, 48, 63}) {
    int prev = realized_max_degree(n, optimal_cuts(n, 2));
    for (int k = 3; k <= 8 && k < n; ++k) {
      // The best over j <= k is what monotonicity speaks about.
      int best = prev;
      best = std::min(best, realized_max_degree(n, optimal_cuts(n, k)));
      EXPECT_LE(best, prev) << "n=" << n << " k=" << k;
      prev = best;
    }
  }
}

// Larger-n spot checks with sampled sources (full sweeps live at n <= 10).
class LargerNSampledSources : public ::testing::TestWithParam<int> {};

TEST_P(LargerNSampledSources, BroadcastValidates) {
  const int n = GetParam();
  for (int k : {2, 3}) {
    const auto spec = design_sparse_hypercube(n, k);
    const SpecView view(spec);
    // Sample sources across the id range plus structured corners.
    std::vector<Vertex> sources{0, spec.num_vertices() - 1, spec.num_vertices() / 2};
    for (int i = 1; i <= 5; ++i) {
      sources.push_back((spec.num_vertices() / 7) * static_cast<Vertex>(i) + 3);
    }
    for (Vertex s : sources) {
      const auto rep = validate_minimum_time_k_line(
          view, make_broadcast_schedule(spec, s % spec.num_vertices()), k);
      ASSERT_TRUE(rep.ok) << "n=" << n << " k=" << k << " s=" << s << ": " << rep.error;
      EXPECT_TRUE(rep.minimum_time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, LargerNSampledSources, ::testing::Values(11, 12, 13, 14));

// The implicit oracle stays consistent at n far beyond materialization:
// symmetric adjacency, correct degrees, route_flip validity.
class HugeNOracle : public ::testing::TestWithParam<int> {};

TEST_P(HugeNOracle, OracleSelfConsistent) {
  const int n = GetParam();
  const auto spec = design_sparse_hypercube(n, 4);
  Vertex u = 0x1234'5678'9ABC'DEF0ULL & mask_low(n);
  for (int trial = 0; trial < 200; ++trial) {
    u = (u * 6364136223846793005ULL + 1442695040888963407ULL) & mask_low(n);
    std::size_t degree = 0;
    for (Dim i = 1; i <= n; ++i) {
      const Vertex v = flip(u, i);
      EXPECT_EQ(spec.has_edge(u, v), spec.has_edge(v, u));
      if (spec.has_edge_dim(u, i)) ++degree;
      const auto path = route_flip(spec, u, i);
      EXPECT_LE(static_cast<int>(path.size()) - 1, spec.k());
      for (std::size_t j = 0; j + 1 < path.size(); ++j) {
        EXPECT_TRUE(spec.has_edge(path[j], path[j + 1]));
      }
      EXPECT_EQ(path.back() >> i, v >> i);
    }
    EXPECT_EQ(degree, spec.degree(u));
    EXPECT_LE(degree, spec.max_degree());
    EXPECT_GE(degree, spec.min_degree());
  }
}

INSTANTIATE_TEST_SUITE_P(BigN, HugeNOracle, ::testing::Values(24, 32, 48, 63));

// Gossip stays valid for any root choice on a sweep of specs.
TEST(WideSweep, GossipFromManyRoots) {
  const auto spec = SparseHypercubeSpec::construct(8, {2, 4});
  const SpecView view(spec);
  for (Vertex root = 0; root < spec.num_vertices(); root += 17) {
    const auto rep = validate_gossip(view, sparse_gather_broadcast_gossip(spec, root),
                                     spec.k());
    ASSERT_TRUE(rep.ok) << "root " << root << ": " << rep.error;
    EXPECT_TRUE(rep.complete);
  }
}

}  // namespace
}  // namespace shc
