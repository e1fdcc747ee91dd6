// End-to-end integration tests: design -> construct -> broadcast ->
// validate -> analyze, plus cross-module invariants that tie the paper's
// claims together.
#include <gtest/gtest.h>

#include <sstream>

#include "shc/shc.hpp"

namespace shc {
namespace {

// Property 1 / Property 2: a minimum-time k-line schedule is also a
// minimum-time (k+1)-line schedule, so G_k subset G_{k+1}.
TEST(Integration, SchedulesRemainValidForLargerK) {
  const auto spec = SparseHypercubeSpec::construct(7, {2, 4});
  const SpecView view(spec);
  const auto schedule = make_broadcast_schedule(spec, 5);
  for (int k = spec.k(); k <= spec.k() + 3; ++k) {
    const auto rep = validate_minimum_time_k_line(view, schedule, k);
    EXPECT_TRUE(rep.ok) << "k=" << k << ": " << rep.error;
    EXPECT_TRUE(rep.minimum_time);
  }
}

// Q_n's binomial schedule is a 1-line schedule and hence also valid on
// the FULL cube under any k; the sparse cube needs k >= spec.k().
TEST(Integration, SparseCubeScheduleFailsUnderSmallerK) {
  const auto spec = SparseHypercubeSpec::construct_base(6, 2);
  const SpecView view(spec);
  const auto schedule = make_broadcast_schedule(spec, 0);
  EXPECT_TRUE(validate_minimum_time_k_line(view, schedule, 2).ok);
  // The same schedule contains length-2 calls, so k = 1 must fail.
  EXPECT_FALSE(validate_minimum_time_k_line(view, schedule, 1).ok);
}

TEST(Integration, DiameterWithinFootnoteBound) {
  for (auto [n, cuts] : std::vector<std::pair<int, std::vector<int>>>{
           {6, {2}}, {8, {3}}, {8, {2, 4}}, {10, {2, 4, 7}}}) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    const Graph g = spec.materialize();
    EXPECT_LE(diameter(g), static_cast<std::uint32_t>(diameter_upper(n, spec.k())))
        << "n=" << n;
  }
}

TEST(Integration, DegreeReductionVersusQn) {
  // Example-3 scale: the sparse cube's degree is well below Q_n's n.
  const auto spec = SparseHypercubeSpec::construct_base(15, 3, example1_labeling_m3());
  EXPECT_EQ(spec.max_degree(), 6u);
  EXPECT_LT(spec.max_degree() * 2, 15u);
  // Edge count shrinks accordingly: 6 * 2^14 vs 15 * 2^14.
  EXPECT_EQ(spec.num_edges(), 6u * cube_order(14));
}

TEST(Integration, DesignBuildBroadcastAnalyze) {
  const int n = 10;
  for (int k = 2; k <= 5; ++k) {
    const auto spec = design_sparse_hypercube(n, k);
    EXPECT_EQ(spec.k(), k);
    EXPECT_LE(static_cast<int>(spec.max_degree()),
              k == 2 ? theorem5_upper(n) : theorem7_upper(n, k));

    const auto schedule = make_broadcast_schedule(spec, 777 % spec.num_vertices());
    const SpecView view(spec);
    const auto rep = validate_minimum_time_k_line(view, schedule, k);
    ASSERT_TRUE(rep.ok) << "k=" << k << ": " << rep.error;
    EXPECT_TRUE(rep.minimum_time);

    const auto stats = analyze_congestion(schedule);
    EXPECT_EQ(stats.max_edge_load_per_round, 1);
    EXPECT_EQ(stats.total_edge_hops, static_cast<std::uint64_t>(schedule.num_calls()) +
                                         [&] {
                                           std::uint64_t extra = 0;
                                           for (int t = 0; t < schedule.num_rounds(); ++t)
                                             for (const auto c : schedule.round(t))
                                               extra += static_cast<std::uint64_t>(
                                                   c.length() - 1);
                                           return extra;
                                         }());
  }
}

TEST(Integration, MaterializedSparseCubesAreSpanningSubgraphsOfQn) {
  for (int k = 2; k <= 4; ++k) {
    const int n = 9;
    const auto spec = design_sparse_hypercube(n, k);
    const Graph g = spec.materialize();
    const Graph qn = make_hypercube(n);
    EXPECT_TRUE(is_spanning_subgraph(g, qn));
    EXPECT_TRUE(is_connected(g));
    EXPECT_LT(g.num_edges(), qn.num_edges());
  }
}

TEST(Integration, LowerBoundNeverExceedsRealizedDegree) {
  for (int k = 2; k <= 5; ++k) {
    for (int n = k + 1; n <= 22; ++n) {
      const auto cuts = optimal_cuts(n, k);
      EXPECT_GE(realized_max_degree(n, cuts), lower_bound_max_degree(n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Integration, DotExportContainsAllEdges) {
  const auto spec = SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());
  const Graph g = spec.materialize();
  std::ostringstream os;
  write_dot(os, g, "g42", 4);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph g42 {"), std::string::npos);
  EXPECT_NE(dot.find("label=\"0011\""), std::string::npos);
  std::size_t edge_lines = 0;
  for (std::size_t pos = 0; (pos = dot.find(" -- ", pos)) != std::string::npos; ++pos) {
    ++edge_lines;
  }
  EXPECT_EQ(edge_lines, g.num_edges());
}

TEST(Integration, TextTableFormats) {
  TextTable t({"n", "Delta"});
  t.add_row({"8", "4"});
  t.add_row({"16", "5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("n  Delta"), std::string::npos);
  EXPECT_NE(out.find("16"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

// The paper's Property-1 stack end-to-end: the 1-line binomial schedule
// on Q_n validates under every k >= 1 on the full cube.
TEST(Integration, BinomialScheduleValidForAllK) {
  const int n = 6;
  const CubeOracle qn(n);
  const auto schedule = hypercube_binomial_broadcast(n, 21);
  for (int k : {1, 2, 5, 63}) {
    EXPECT_TRUE(validate_minimum_time_k_line(qn, schedule, k).ok);
  }
}

}  // namespace
}  // namespace shc
