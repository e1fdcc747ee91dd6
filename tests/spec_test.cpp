// Tests for the sparse hypercube construction (Construct_BASE and the
// recursive Construct), including exact reproduction of the paper's
// Examples 2 and 3 (Figures 2 and 3).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "shc/bits/bitstring.hpp"
#include "shc/graph/algorithms.hpp"
#include "shc/graph/generators.hpp"
#include "shc/mlbg/spec.hpp"

namespace shc {
namespace {

TEST(PartitionDims, NearEvenAscending) {
  const auto p = partition_dims(2, 4, 2);  // dims {3, 4} into 2 classes
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], (std::vector<Dim>{3}));
  EXPECT_EQ(p[1], (std::vector<Dim>{4}));

  const auto q = partition_dims(3, 15, 4);  // Example 3's 12 dims into 4
  ASSERT_EQ(q.size(), 4u);
  for (const auto& s : q) EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(q[0], (std::vector<Dim>{4, 5, 6}));
  EXPECT_EQ(q[3], (std::vector<Dim>{13, 14, 15}));
}

TEST(PartitionDims, AllowsEmptyClasses) {
  const auto p = partition_dims(5, 7, 4);  // 2 dims into 4 classes
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].size(), 1u);
  EXPECT_EQ(p[1].size(), 1u);
  EXPECT_TRUE(p[2].empty());
  EXPECT_TRUE(p[3].empty());
  // Sizes differ by at most one (the paper's Step 2 requirement).
}

TEST(PartitionDims, RefusesAnInvertedRangeOrNoClasses) {
  EXPECT_THROW(static_cast<void>(partition_dims(5, 4, 2)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(partition_dims(2, 4, 0)), std::invalid_argument);
}

/// The message construct(n, cuts) throws, or "" when it accepts.
std::string construct_error(int n, std::vector<int> cuts) {
  try {
    static_cast<void>(SparseHypercubeSpec::construct(n, std::move(cuts)));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RecursiveConstruct, RefusesBadCutsWithNamedErrors) {
  EXPECT_EQ(construct_error(10, {}), "construct: cuts must not be empty");
  EXPECT_EQ(construct_error(10, {5, 3}), "construct: cuts must be strictly increasing");
  EXPECT_EQ(construct_error(10, {3, 3}), "construct: cuts must be strictly increasing");
  EXPECT_EQ(construct_error(10, {0}), "construct: cuts must be >= 1, got 0");
  EXPECT_EQ(construct_error(10, {10}), "construct: last cut 10 must be below n = 10");
  EXPECT_EQ(construct_error(10, {11}), "construct: last cut 11 must be below n = 10");
  EXPECT_EQ(construct_error(1, {1}), "construct: n must be in [2, 63], got 1");
  EXPECT_EQ(construct_error(64, {3}), "construct: n must be in [2, 63], got 64");
  EXPECT_EQ(construct_error(40, {30}),
            "construct: level 0 window (0, 30] is 30 dims wide, above the 24 a labeling spans");
  EXPECT_EQ(construct_error(40, {3, 33}),
            "construct: level 1 window (3, 33] is 30 dims wide, above the 24 a labeling spans");
  EXPECT_EQ(construct_error(10, {3, 6}), "");
  EXPECT_THROW(static_cast<void>(SparseHypercubeSpec::construct_base(4, 4)),
               std::invalid_argument);
}

TEST(RecursiveConstruct, RefusesALabelingThatDoesNotFitItsWindow) {
  const auto error = [](std::vector<int> cuts, std::vector<CubeLabeling> labelings) {
    try {
      static_cast<void>(
          SparseHypercubeSpec::construct(8, std::move(cuts), std::move(labelings)));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(error({2, 5}, {example1_labeling_m2()}),
            "construct: need one labeling per cut, got 1");
  EXPECT_EQ(error({3}, {example1_labeling_m2()}),
            "construct: labeling 0 is not a Condition-A labeling of its 3-dim window");
  EXPECT_EQ(error({2, 5}, {example1_labeling_m2(), example1_labeling_m2()}),
            "construct: labeling 1 is not a Condition-A labeling of its 3-dim window");
  EXPECT_EQ(error({2}, {CubeLabeling(2, 2, {0, 0, 0, 1})}),
            "construct: labeling 0 is not a Condition-A labeling of its 2-dim window");
  EXPECT_EQ(error({2}, {example1_labeling_m2()}), "");
}

TEST(RecursiveConstruct, MaterializeRefusesBeyondN26) {
  EXPECT_THROW(static_cast<void>(SparseHypercubeSpec::construct(27, {4}).materialize()),
               std::invalid_argument);
}

/// Example 2: G_{4,2} with the Example-1 labeling of Q_2 and the
/// partition S_1 = {3}, S_2 = {4}.
SparseHypercubeSpec make_g42() {
  return SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());
}

TEST(Example2, G42BasicShape) {
  const auto g42 = make_g42();
  EXPECT_EQ(g42.n(), 4);
  EXPECT_EQ(g42.k(), 2);
  EXPECT_EQ(g42.num_vertices(), 16u);
  EXPECT_EQ(g42.core_dim(), 2);
  // 16 Rule-1 edges (two full dims) + 4 dim-3 edges + 4 dim-4 edges.
  EXPECT_EQ(g42.num_edges(), 24u);
  EXPECT_EQ(g42.max_degree(), 3u);
  EXPECT_EQ(g42.min_degree(), 3u);
}

TEST(Example2, G42EdgeRulesMatchPaper) {
  const auto g42 = make_g42();
  const auto bit = [](std::string_view s) { return *parse_bitstring(s); };
  // Rule 1: all dimension-1 and dimension-2 edges exist.
  for (Vertex u = 0; u < 16; ++u) {
    EXPECT_TRUE(g42.has_edge(u, flip(u, 1)));
    EXPECT_TRUE(g42.has_edge(u, flip(u, 2)));
  }
  // Paper's worked facts: 0011 -- 0111 (dim 3, label c1 owns {3});
  // 0000 -- 1000 absent (dim 4 owned by c2, 0000 has label c1).
  EXPECT_TRUE(g42.has_edge(bit("0011"), bit("0111")));
  EXPECT_FALSE(g42.has_edge(bit("0000"), bit("1000")));
  EXPECT_TRUE(g42.has_edge(bit("0010"), bit("1010")));   // 0010 has c2, owns dim 4
  EXPECT_FALSE(g42.has_edge(bit("0010"), bit("0110")));  // dim 3 needs c1
  // Non-cube pairs are never edges.
  EXPECT_FALSE(g42.has_edge(bit("0000"), bit("0011")));
  EXPECT_FALSE(g42.has_edge(bit("0101"), bit("0101")));
}

TEST(Example2, G42LabelsFollowSuffix) {
  const auto g42 = make_g42();
  // g(u) = f*(u_2 u_1): suffixes 00/11 -> c1 (0), 01/10 -> c2 (1).
  for (Vertex u = 0; u < 16; ++u) {
    const Vertex suffix = u & 0b11;
    const Label expect = (suffix == 0b00 || suffix == 0b11) ? 0 : 1;
    EXPECT_EQ(g42.label_at(u, 0), expect) << "u=" << u;
  }
}

TEST(Example3, G153DegreeSix) {
  // Construct_BASE(15, 3) with the Example-1 m=3 labeling: 4 labels,
  // 12 cross dims split 3+3+3+3, so every vertex has degree 3 + 3 = 6.
  const auto g = SparseHypercubeSpec::construct_base(15, 3, example1_labeling_m3());
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_EQ(g.min_degree(), 6u);
  EXPECT_LT(g.max_degree(), 15u / 2 + 1);  // "less than half of Delta(Q_15)"
  // Closed-form edge count: regular of degree 6 on 2^15 vertices.
  EXPECT_EQ(g.num_edges(), (cube_order(15) * 6) / 2);
  // Worked example: 000...0 is connected to flips of dims 13, 14, 15
  // only among cross dims (label c1 owns the top block with ascending
  // partition order reversed — in our ascending convention label c1
  // owns {4,5,6}).
  const Vertex zero = 0;
  EXPECT_EQ(g.label_at(zero, 0), 0u);
  for (Dim i : {4, 5, 6}) EXPECT_TRUE(g.has_edge_dim(zero, i));
  for (Dim i = 7; i <= 15; ++i) EXPECT_FALSE(g.has_edge_dim(zero, i));
}

class OracleMatchesMaterialized
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(OracleMatchesMaterialized, EdgeForEdge) {
  const auto [n, m] = GetParam();
  const auto spec = SparseHypercubeSpec::construct_base(n, m);
  const Graph g = spec.materialize();
  EXPECT_EQ(g.num_edges(), spec.num_edges());
  EXPECT_EQ(g.max_degree(), spec.max_degree());
  EXPECT_EQ(g.min_degree(), spec.min_degree());
  for (Vertex u = 0; u < spec.num_vertices(); ++u) {
    EXPECT_EQ(g.degree(static_cast<VertexId>(u)), spec.degree(u));
    for (Dim i = 1; i <= n; ++i) {
      EXPECT_EQ(g.has_edge(static_cast<VertexId>(u), static_cast<VertexId>(flip(u, i))),
                spec.has_edge_dim(u, i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BaseSweep, OracleMatchesMaterialized,
                         ::testing::Values(std::pair{3, 1}, std::pair{3, 2},
                                           std::pair{4, 2}, std::pair{5, 2},
                                           std::pair{6, 3}, std::pair{7, 3},
                                           std::pair{8, 3}, std::pair{9, 4},
                                           std::pair{10, 4}));

class SparseCubeInvariants : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SparseCubeInvariants, SpanningConnectedSubgraphOfQn) {
  const auto [n, m] = GetParam();
  const auto spec = SparseHypercubeSpec::construct_base(n, m);
  const Graph g = spec.materialize();
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_spanning_subgraph(g, make_hypercube(n)));
  // Strictly sparser than Q_n whenever some label class has > 1 dims...
  EXPECT_LT(g.num_edges(), make_hypercube(n).num_edges());
}

INSTANTIATE_TEST_SUITE_P(BaseSweep, SparseCubeInvariants,
                         ::testing::Values(std::pair{4, 2}, std::pair{5, 2},
                                           std::pair{6, 2}, std::pair{7, 3},
                                           std::pair{9, 3}, std::pair{11, 4}));

TEST(RecursiveConstruct, Example6Shape) {
  // Construct_REC(7, 4, 2): labels on window (2,4], dims (4,7] split
  // between 2 labels as {5,6} / {7} (ascending convention; the paper
  // picks S_1 = {7,6}, S_2 = {5} — same degree profile).
  const auto g = SparseHypercubeSpec::construct(
      7, {2, 4}, {example1_labeling_m2(), example1_labeling_m2()});
  EXPECT_EQ(g.k(), 3);
  EXPECT_EQ(g.core_dim(), 2);
  ASSERT_EQ(g.levels().size(), 2u);
  EXPECT_EQ(g.levels()[0].win_lo, 0);
  EXPECT_EQ(g.levels()[0].win_hi, 2);
  EXPECT_EQ(g.levels()[0].dim_lo, 2);
  EXPECT_EQ(g.levels()[0].dim_hi, 4);
  EXPECT_EQ(g.levels()[1].win_lo, 2);
  EXPECT_EQ(g.levels()[1].win_hi, 4);
  EXPECT_EQ(g.levels()[1].dim_lo, 4);
  EXPECT_EQ(g.levels()[1].dim_hi, 7);
  // Degree: 2 core + 1 (level-1 classes of size 1) + {1 or 2}.
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(g.max_degree(), 5u);
  // Rule 1 restricted to the suffix graph: dims 1..4 follow G_{4,2}.
  const auto g42 = make_g42();
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Dim i = 1; i <= 4; ++i) {
      EXPECT_EQ(g.has_edge_dim(u, i), g42.has_edge_dim(u & mask_low(4), i));
    }
  }
}

TEST(RecursiveConstruct, LevelOfDimAndDegreeConsistency) {
  const auto g = SparseHypercubeSpec::construct(10, {2, 4, 7});
  EXPECT_EQ(g.k(), 4);
  EXPECT_EQ(g.level_of_dim(1), -1);
  EXPECT_EQ(g.level_of_dim(2), -1);
  EXPECT_EQ(g.level_of_dim(3), 0);
  EXPECT_EQ(g.level_of_dim(4), 0);
  EXPECT_EQ(g.level_of_dim(5), 1);
  EXPECT_EQ(g.level_of_dim(7), 1);
  EXPECT_EQ(g.level_of_dim(8), 2);
  EXPECT_EQ(g.level_of_dim(10), 2);
  // Degree via oracle scan equals closed-form degree().
  const Graph mat = g.materialize();
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(mat.degree(static_cast<VertexId>(u)), g.degree(u));
  }
  EXPECT_EQ(mat.num_edges(), g.num_edges());
  EXPECT_TRUE(is_connected(mat));
}

TEST(RecursiveConstruct, NeighborsMatchOracle) {
  const auto g = SparseHypercubeSpec::construct(8, {2, 5});
  for (Vertex u = 0; u < g.num_vertices(); u += 7) {
    const auto nb = g.neighbors(u);
    EXPECT_EQ(nb.size(), g.degree(u));
    for (Vertex v : nb) EXPECT_TRUE(g.has_edge(u, v));
  }
}

TEST(SpecView, AdaptsSpec) {
  const auto spec = make_g42();
  const SpecView view(spec);
  EXPECT_EQ(view.num_vertices(), 16u);
  EXPECT_TRUE(view.has_edge(0b0011, 0b0111));
  EXPECT_FALSE(view.has_edge(0b0000, 0b1000));
}

}  // namespace
}  // namespace shc
