// Tests for the Section-5 model extensions: the vertex-disjoint call
// variant and the Property-2-aware designer.
#include <gtest/gtest.h>

#include "shc/baseline/path_star.hpp"
#include "shc/graph/generators.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/sim/validator.hpp"

namespace shc {
namespace {

ValidationOptions vertex_disjoint_opts(int k) {
  ValidationOptions opt;
  opt.k = k;
  opt.require_vertex_disjoint = true;
  return opt;
}

// The sparse-hypercube schemes satisfy the stronger vertex-disjoint
// model: concurrent calls live in disjoint subcubes of the processed
// prefix, so they share no vertex at all.
class VertexDisjointSweep
    : public ::testing::TestWithParam<std::pair<int, std::vector<int>>> {};

TEST_P(VertexDisjointSweep, BroadcastKSatisfiesStrongerModel) {
  const auto& [n, cuts] = GetParam();
  const auto spec = SparseHypercubeSpec::construct(n, cuts);
  const SpecView view(spec);
  for (Vertex s = 0; s < spec.num_vertices(); s += 7) {
    const auto schedule = make_broadcast_schedule(spec, s);
    const auto rep = validate_broadcast(view, schedule, vertex_disjoint_opts(spec.k()));
    ASSERT_TRUE(rep.ok) << "source " << s << ": " << rep.error;
    EXPECT_TRUE(rep.minimum_time);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VertexDisjointSweep,
    ::testing::Values(std::pair{5, std::vector<int>{2}},
                      std::pair{7, std::vector<int>{3}},
                      std::pair{8, std::vector<int>{2, 4}},
                      std::pair{10, std::vector<int>{2, 4, 7}}));

TEST(VertexDisjoint, StarSwitchingViolatesIt) {
  // Star broadcast switches two calls through the center in the same
  // round; it is edge-disjoint but not vertex-disjoint.
  const Graph g = make_star(8);
  const GraphView view(g);
  const auto schedule = star_line_broadcast(8, 1);
  EXPECT_TRUE(validate_minimum_time_k_line(view, schedule, 2).ok);
  const auto strict = validate_broadcast(view, schedule, vertex_disjoint_opts(2));
  EXPECT_FALSE(strict.ok);
  EXPECT_NE(strict.error.find("vertex-disjoint"), std::string::npos);
}

TEST(VertexDisjoint, DirectCallSchedulesUnaffected) {
  const Graph g = make_hypercube(4);
  const GraphView view(g);
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0b0000, 0b1000});
  s.begin_round();
  s.add_call({0b0000, 0b0100});
  s.add_call({0b1000, 0b1100});
  ValidationOptions opt = vertex_disjoint_opts(1);
  opt.require_completion = false;
  EXPECT_TRUE(validate_broadcast(view, s, opt).ok);
}

TEST(DesignBest, NeverWorseThanAnySmallerK) {
  for (int n : {8, 12, 16, 24, 32, 48}) {
    for (int k_max = 2; k_max <= 6 && k_max < n; ++k_max) {
      const auto best = design_best_sparse_hypercube(n, k_max);
      EXPECT_LE(best.k(), k_max);
      for (int j = 2; j <= k_max && j < n; ++j) {
        EXPECT_LE(best.max_degree(),
                  static_cast<std::size_t>(realized_max_degree(n, optimal_cuts(n, j))))
            << "n=" << n << " k_max=" << k_max << " j=" << j;
      }
    }
  }
}

TEST(DesignBest, MonotoneNonIncreasingInKmax) {
  const int n = 20;
  std::size_t prev = 1000;
  for (int k_max = 2; k_max <= 8; ++k_max) {
    const auto spec = design_best_sparse_hypercube(n, k_max);
    EXPECT_LE(spec.max_degree(), prev) << "k_max=" << k_max;
    prev = spec.max_degree();
  }
}

TEST(DesignBest, ResultStillBroadcastsOptimally) {
  const auto spec = design_best_sparse_hypercube(10, 6);
  const SpecView view(spec);
  // Property 1: a spec.k()-line schedule is valid under any k >= spec.k(),
  // in particular under the requested budget 6.
  const auto schedule = make_broadcast_schedule(spec, 99);
  const auto rep = validate_minimum_time_k_line(view, schedule, 6);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.minimum_time);
  EXPECT_LE(rep.max_call_length, spec.k());
}

TEST(DesignBest, SmallNPrefersSmallK) {
  // At n = 6 extra levels only add rounding waste; the best design uses
  // a small k even when k_max is generous.
  const auto spec = design_best_sparse_hypercube(6, 5);
  EXPECT_LE(spec.k(), 3);
}

}  // namespace
}  // namespace shc
