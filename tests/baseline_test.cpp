// Tests for the baseline broadcast schemes: path/star line broadcast and
// the tree scheduler behind Theorem 1.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "shc/baseline/hypercube_broadcast.hpp"
#include "shc/baseline/path_star.hpp"
#include "shc/baseline/tree_broadcast.hpp"
#include "shc/bits/bitstring.hpp"
#include "shc/graph/algorithms.hpp"
#include "shc/graph/generators.hpp"
#include "shc/mlbg/bounds.hpp"
#include "shc/sim/network.hpp"
#include "shc/sim/validator.hpp"

namespace shc {
namespace {

ValidationReport check_line(const Graph& g, const FlatSchedule& s) {
  const GraphView view(g);
  // Unbounded-length line model: k = N - 1.
  return validate_minimum_time_k_line(view, s, static_cast<int>(g.num_vertices()) - 1);
}

class PathBroadcastAllSources : public ::testing::TestWithParam<VertexId> {};

TEST_P(PathBroadcastAllSources, MinimumTimeFromEverySource) {
  const VertexId N = GetParam();
  const Graph g = make_path(N);
  for (VertexId s = 0; s < N; ++s) {
    const auto schedule = path_line_broadcast(N, s);
    const auto rep = check_line(g, schedule);
    ASSERT_TRUE(rep.ok) << "N=" << N << " s=" << s << ": " << rep.error;
    EXPECT_TRUE(rep.minimum_time) << "N=" << N << " s=" << s << " rounds=" << rep.rounds;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PathBroadcastAllSources,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64,
                                           100, 127, 128, 129));

class StarBroadcastAllSources : public ::testing::TestWithParam<VertexId> {};

TEST_P(StarBroadcastAllSources, MinimumTimeFromEverySource) {
  const VertexId N = GetParam();
  const Graph g = make_star(N);
  for (VertexId s = 0; s < N; ++s) {
    const auto schedule = star_line_broadcast(N, s);
    const auto rep = check_line(g, schedule);
    ASSERT_TRUE(rep.ok) << "N=" << N << " s=" << s << ": " << rep.error;
    EXPECT_TRUE(rep.minimum_time) << "N=" << N << " s=" << s;
    // The star is a 2-mlbg: every call has length <= 2.
    EXPECT_LE(rep.max_call_length, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StarBroadcastAllSources,
                         ::testing::Values(2, 3, 4, 5, 8, 9, 16, 33, 64, 100));

TEST(StarBroadcast, IsTwoMlbgWitness) {
  // Definition 3: minimum-time schemes from EVERY vertex with k = 2.
  const VertexId N = 20;
  const Graph g = make_star(N);
  const GraphView view(g);
  for (VertexId s = 0; s < N; ++s) {
    const auto rep = validate_minimum_time_k_line(view, star_line_broadcast(N, s), 2);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.minimum_time);
  }
}

TEST(TreeBroadcast, PathAndStarViaGenericScheduler) {
  for (VertexId N : {2u, 5u, 16u, 31u}) {
    for (const Graph& g : {make_path(N), make_star(N)}) {
      const auto result = tree_line_broadcast(g, 0);
      const auto rep = check_line(g, result.schedule);
      ASSERT_TRUE(rep.ok) << rep.error;
      EXPECT_TRUE(result.achieved_minimum)
          << "N=" << N << " rounds=" << result.rounds << "/" << result.minimum_rounds;
    }
  }
}

class Theorem1TreeBroadcast : public ::testing::TestWithParam<int> {};

// Theorem 1's witness: the Figure-1 tree broadcasts in ceil(log2 N)
// rounds from every vertex, with calls no longer than the diameter 2h —
// so it is a k-mlbg for every k >= 2 ceil(log2((N+2)/3)).
TEST_P(Theorem1TreeBroadcast, MinimumTimeFromEverySourceWithDiameterCalls) {
  const int h = GetParam();
  const Graph g = make_theorem1_tree(h);
  const GraphView view(g);
  const int k_threshold = theorem1_k_threshold(g.num_vertices());
  EXPECT_EQ(k_threshold, 2 * h);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto result = theorem1_tree_broadcast(h, s);
    const auto rep = validate_minimum_time_k_line(view, result.schedule, k_threshold);
    ASSERT_TRUE(rep.ok) << "h=" << h << " s=" << s << ": " << rep.error;
    EXPECT_TRUE(rep.minimum_time) << "h=" << h << " s=" << s << " rounds=" << rep.rounds;
    EXPECT_LE(rep.max_call_length, k_threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, Theorem1TreeBroadcast, ::testing::Range(1, 7));

// The generic scheduler is heuristic on this family; it must still be
// feasible and stay within a factor of the optimum.
TEST(Theorem1TreeGeneric, GenericSchedulerFeasibleNearOptimal) {
  for (int h = 2; h <= 5; ++h) {
    const Graph g = make_theorem1_tree(h);
    for (VertexId s = 0; s < g.num_vertices(); s += 11) {
      const auto result = tree_line_broadcast(g, s);
      const auto rep = check_line(g, result.schedule);
      ASSERT_TRUE(rep.ok) << rep.error;
      EXPECT_LE(result.rounds, 2 * result.minimum_rounds) << "h=" << h << " s=" << s;
    }
  }
}

TEST(TreeBroadcast, CompleteBinaryTreesAchieveMinimum) {
  for (int h = 1; h <= 6; ++h) {
    const Graph g = make_complete_binary_tree(h);
    for (VertexId s = 0; s < g.num_vertices(); s += 3) {
      const auto result = tree_line_broadcast(g, s);
      const auto rep = check_line(g, result.schedule);
      ASSERT_TRUE(rep.ok) << rep.error;
      EXPECT_TRUE(result.achieved_minimum) << "h=" << h << " s=" << s;
    }
  }
}

TEST(TreeBroadcast, CaterpillarsAchieveMinimum) {
  for (auto [spine, legs] : {std::pair{3u, 2u}, std::pair{5u, 3u}, std::pair{8u, 1u}}) {
    const Graph g = make_caterpillar(spine, legs);
    const auto result = tree_line_broadcast(g, 0);
    const auto rep = check_line(g, result.schedule);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(result.achieved_minimum)
        << "spine=" << spine << " legs=" << legs << " rounds=" << result.rounds;
  }
}

class RandomTreeBroadcast : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomTreeBroadcast, AlwaysFeasibleUsuallyOptimal) {
  std::mt19937_64 rng(GetParam());
  for (VertexId N : {10u, 33u, 64u, 100u}) {
    const Graph g = make_random_tree(N, rng);
    const auto result = tree_line_broadcast(g, 0);
    const auto rep = check_line(g, result.schedule);
    ASSERT_TRUE(rep.ok) << "seed=" << GetParam() << " N=" << N << ": " << rep.error;
    // Farley [14] guarantees an optimal schedule exists; the greedy
    // scheduler is heuristic on unstructured trees (long skinny trees
    // serialize trunk edges) — require feasibility and a 2x factor; the
    // structured families above are pinned to exact optimality.
    EXPECT_LE(result.rounds, 2 * result.minimum_rounds)
        << "seed=" << GetParam() << " N=" << N;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeBroadcast,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(TreeBroadcast, SingleVertexIsTrivial) {
  GraphBuilder b(1);
  const Graph g = std::move(b).build();
  const auto result = tree_line_broadcast(g, 0);
  EXPECT_EQ(result.rounds, 0);
  EXPECT_TRUE(result.achieved_minimum);
}

// Caller-input guards are typed exceptions, not asserts: a Release
// build used to skip them and write past the informed set.
TEST(BaselineInputGuards, TreeBroadcastRejectsBadSourceAndNonTrees) {
  EXPECT_THROW((void)tree_line_broadcast(make_path(5), 5), std::invalid_argument);
  EXPECT_THROW((void)tree_line_broadcast(make_cycle(5), 0), std::invalid_argument);
  GraphBuilder b(0);
  const Graph empty = std::move(b).build();
  EXPECT_THROW((void)tree_line_broadcast(empty, 0), std::invalid_argument);
}

TEST(BaselineInputGuards, Theorem1RejectsBadHeightAndSource) {
  EXPECT_THROW((void)theorem1_tree_broadcast(0, 0), std::invalid_argument);
  EXPECT_THROW((void)theorem1_tree_broadcast(-2, 0), std::invalid_argument);
  EXPECT_THROW((void)theorem1_tree_broadcast(31, 0), std::invalid_argument);
  // h = 3: N = 3 * 2^3 - 2 = 22 vertices, so 22 is out of range.
  EXPECT_THROW((void)theorem1_tree_broadcast(3, 22), std::invalid_argument);
  EXPECT_NO_THROW((void)theorem1_tree_broadcast(3, 21));
}

TEST(BaselineInputGuards, HypercubeBroadcastRejectsBadDimensionAndSource) {
  EXPECT_THROW((void)hypercube_binomial_broadcast(0, 0), std::invalid_argument);
  EXPECT_THROW((void)hypercube_binomial_broadcast(29, 0), std::invalid_argument);
  EXPECT_THROW((void)hypercube_binomial_broadcast(4, 16), std::invalid_argument);
  EXPECT_NO_THROW((void)hypercube_binomial_broadcast(4, 15));
}

TEST(BaselineInputGuards, PathAndStarRejectBadSizeAndSource) {
  EXPECT_THROW((void)path_line_broadcast(0, 0), std::invalid_argument);
  EXPECT_THROW((void)path_line_broadcast(8, 8), std::invalid_argument);
  EXPECT_THROW((void)star_line_broadcast(1, 0), std::invalid_argument);
  EXPECT_THROW((void)star_line_broadcast(8, 9), std::invalid_argument);
}

}  // namespace
}  // namespace shc
