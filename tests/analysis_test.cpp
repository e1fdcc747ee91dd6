// Tests for routing and structural analysis (footnote 1 made executable).
#include <gtest/gtest.h>

#include "shc/graph/algorithms.hpp"
#include "shc/mlbg/analysis.hpp"
#include "shc/mlbg/params.hpp"

namespace shc {
namespace {

class GreedyRouteSweep : public ::testing::TestWithParam<std::pair<int, std::vector<int>>> {};

TEST_P(GreedyRouteSweep, ReachesTargetWithinFootnoteBound) {
  const auto& [n, cuts] = GetParam();
  const auto spec = SparseHypercubeSpec::construct(n, cuts);
  const Graph g = spec.materialize();
  for (Vertex u = 0; u < spec.num_vertices(); u += 11) {
    const auto dist = bfs_distances(g, static_cast<VertexId>(u));
    for (Vertex v = 0; v < spec.num_vertices(); v += 7) {
      const auto walk = greedy_route(spec, u, v);
      ASSERT_EQ(walk.front(), u);
      ASSERT_EQ(walk.back(), v);
      // Every hop is an edge.
      for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
        EXPECT_TRUE(spec.has_edge(walk[i], walk[i + 1]));
      }
      const int hops = static_cast<int>(walk.size()) - 1;
      EXPECT_LE(hops, spec.k() * n);  // footnote 1
      EXPECT_GE(hops, static_cast<int>(dist[static_cast<VertexId>(v)]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyRouteSweep,
    ::testing::Values(std::pair{5, std::vector<int>{2}},
                      std::pair{7, std::vector<int>{3}},
                      std::pair{8, std::vector<int>{2, 4}},
                      std::pair{9, std::vector<int>{2, 4, 6}}));

TEST(GreedyRoute, SelfRouteIsTrivial) {
  const auto spec = SparseHypercubeSpec::construct_base(5, 2);
  const auto walk = greedy_route(spec, 9, 9);
  EXPECT_EQ(walk, (std::vector<Vertex>{9}));
}

TEST(GreedyRoute, WorksAtHugeN) {
  const auto spec = design_sparse_hypercube(48, 4);
  const Vertex a = 0x0123456789ABULL & mask_low(48);
  const Vertex b = 0xBA9876543210ULL & mask_low(48);
  const auto walk = greedy_route(spec, a, b);
  EXPECT_EQ(walk.front(), a);
  EXPECT_EQ(walk.back(), b);
  EXPECT_LE(static_cast<int>(walk.size()) - 1, 4 * 48);
}

TEST(SampleRouting, StatsAreConsistent) {
  const auto spec = design_sparse_hypercube(12, 3);
  const auto stats = sample_routing(spec, 500, 42);
  EXPECT_EQ(stats.pairs, 500u);
  EXPECT_TRUE(stats.within_bound);
  EXPECT_GE(stats.mean_stretch, 1.0);
  EXPECT_LE(stats.mean_stretch, stats.max_stretch);
  EXPECT_EQ(stats.footnote_bound, 36);
  EXPECT_GE(stats.max_hops, 1);
  // Deterministic for a fixed seed.
  const auto again = sample_routing(spec, 500, 42);
  EXPECT_EQ(again.total_hops, stats.total_hops);
}

TEST(DimensionProfile, SumsToEdgeCount) {
  for (auto [n, cuts] : std::vector<std::pair<int, std::vector<int>>>{
           {6, {2}}, {8, {3}}, {9, {2, 4}}, {10, {2, 4, 7}}}) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    const auto profile = dimension_edge_profile(spec);
    ASSERT_EQ(profile.size(), static_cast<std::size_t>(n));
    std::uint64_t total = 0;
    for (std::uint64_t e : profile) total += e;
    EXPECT_EQ(total, spec.num_edges()) << "n=" << n;
    // Core dimensions carry the full 2^(n-1) complement.
    for (int i = 1; i <= spec.core_dim(); ++i) {
      EXPECT_EQ(profile[static_cast<std::size_t>(i - 1)], cube_order(n - 1));
    }
    // Rule-2 dimensions are strictly sparser.
    for (int i = spec.core_dim() + 1; i <= n; ++i) {
      EXPECT_LT(profile[static_cast<std::size_t>(i - 1)], cube_order(n - 1));
    }
  }
}

TEST(DimensionProfile, MatchesMaterializedCounts) {
  const auto spec = SparseHypercubeSpec::construct_base(8, 3);
  const Graph g = spec.materialize();
  std::vector<std::uint64_t> counted(8, 0);
  for (const Edge& e : g.edges()) {
    ++counted[static_cast<std::size_t>(differing_dim(e.a, e.b) - 1)];
  }
  EXPECT_EQ(counted, dimension_edge_profile(spec));
}

TEST(BroadcastTree, ShapeOfMinimumTimeSchedule) {
  const auto spec = SparseHypercubeSpec::construct_base(6, 2);
  const auto schedule = make_broadcast_schedule(spec, 5);
  const auto stats = analyze_broadcast_tree(schedule);
  EXPECT_EQ(stats.vertices, spec.num_vertices());
  EXPECT_EQ(stats.height, 6);
  // The source calls in every round.
  EXPECT_EQ(stats.max_fanout, 6u);
  // Exactly doubling: 2, 4, 8, 16, 32, 64 informed.
  ASSERT_EQ(stats.informed_per_round.size(), 6u);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_EQ(stats.informed_per_round[t], std::uint64_t{2} << t);
  }
  // Fanout histogram of a binomial-type tree: 2^(n-1-f) vertices of
  // fanout f for f < n, plus the source at fanout n.
  ASSERT_EQ(stats.fanout_histogram.size(), 7u);
  EXPECT_EQ(stats.fanout_histogram[0], 32u);
  EXPECT_EQ(stats.fanout_histogram[5], 1u);
  EXPECT_EQ(stats.fanout_histogram[6], 1u);
}

TEST(BroadcastTree, EmptySchedule) {
  FlatSchedule s;
  s.source = 3;
  const auto stats = analyze_broadcast_tree(s);
  EXPECT_EQ(stats.vertices, 1u);
  EXPECT_EQ(stats.height, 0);
  EXPECT_EQ(stats.max_fanout, 0u);
}

}  // namespace
}  // namespace shc
