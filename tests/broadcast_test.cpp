// Tests for route_flip and the Broadcast_2 / Broadcast_k schemes
// (Theorems 4 and 6), all certified through the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "shc/bits/bitstring.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/validator.hpp"

namespace shc {
namespace {

SparseHypercubeSpec make_g42() {
  return SparseHypercubeSpec::construct_base(4, 2, example1_labeling_m2());
}

TEST(RouteFlip, DirectEdgeWhenPresent) {
  const auto g42 = make_g42();
  for (Vertex u = 0; u < 16; ++u) {
    for (Dim i = 1; i <= 2; ++i) {  // core dims always direct
      const auto p = route_flip(g42, u, i);
      ASSERT_EQ(p.size(), 2u);
      EXPECT_EQ(p.front(), u);
      EXPECT_EQ(p.back(), flip(u, i));
    }
  }
}

TEST(RouteFlip, DetourLengthTwoForMissingCrossEdge) {
  const auto g42 = make_g42();
  const Vertex u = *parse_bitstring("0000");
  ASSERT_FALSE(g42.has_edge_dim(u, 4));
  const auto p = route_flip(g42, u, 4);
  ASSERT_EQ(p.size(), 3u);  // length-2 call through a Rule-1 neighbor
  EXPECT_EQ(p.front(), u);
  // Intermediate vertex is a core-dim neighbor whose label owns dim 4.
  EXPECT_TRUE(cube_adjacent(u, p[1]));
  EXPECT_TRUE(g42.has_edge(u, p[1]));
  EXPECT_TRUE(g42.has_edge(p[1], p[2]));
  EXPECT_EQ(p.back(), flip(p[1], 4));
  // Receiver agrees with flip(u, 4) on all dims above the core.
  EXPECT_EQ(p.back() >> 2, flip(u, 4) >> 2);
}

TEST(RouteFlip, EveryDimEveryVertexWithinBound) {
  for (const auto& spec :
       {SparseHypercubeSpec::construct(7, {2, 4}), SparseHypercubeSpec::construct(9, {2, 4, 6})}) {
    for (Vertex u = 0; u < spec.num_vertices(); ++u) {
      for (Dim i = 1; i <= spec.n(); ++i) {
        const auto p = route_flip(spec, u, i);
        ASSERT_GE(p.size(), 2u);
        EXPECT_EQ(p.front(), u);
        EXPECT_LE(static_cast<int>(p.size()) - 1, route_length_bound(spec, i));
        EXPECT_LE(static_cast<int>(p.size()) - 1, spec.k());
        // Every hop is an edge of the sparse cube.
        for (std::size_t j = 0; j + 1 < p.size(); ++j) {
          EXPECT_TRUE(spec.has_edge(p[j], p[j + 1]));
        }
        // The receiver realizes the dim-i flip above the disturbance zone.
        EXPECT_EQ(coord(p.back(), i), 1 - coord(u, i));
        EXPECT_EQ(p.back() >> i, flip(u, i) >> i);
      }
    }
  }
}

// Designed-spec sweep across k in {2, 3, 4}: every dimension's realized
// route stays within route_length_bound (hence within k), starts at u,
// and ends at a vertex realizing the dimension-i flip above the detour's
// disturbance zone — the documented route_flip contract.
TEST(RouteFlip, LengthBoundHoldsAcrossDesignedKSweep) {
  const int n = 9;
  for (int k = 2; k <= 4; ++k) {
    const auto spec = design_sparse_hypercube(n, k);
    ASSERT_EQ(spec.k(), k);
    for (Vertex u = 0; u < spec.num_vertices(); ++u) {
      for (Dim i = 1; i <= spec.n(); ++i) {
        const int bound = route_length_bound(spec, i);
        EXPECT_GE(bound, 1);
        EXPECT_LE(bound, k) << "k=" << k << " dim " << i;
        const auto p = route_flip(spec, u, i);
        ASSERT_GE(p.size(), 2u);
        // Starts at u...
        EXPECT_EQ(p.front(), u);
        // ...realizes the dimension-i flip above the disturbance zone...
        EXPECT_EQ(coord(p.back(), i), 1 - coord(u, i));
        EXPECT_EQ(p.back() >> i, flip(u, i) >> i);
        // ...within the per-dimension bound, over real edges.
        EXPECT_LE(static_cast<int>(p.size()) - 1, bound)
            << "k=" << k << " u=" << u << " dim " << i;
        for (std::size_t j = 0; j + 1 < p.size(); ++j) {
          EXPECT_TRUE(spec.has_edge(p[j], p[j + 1]));
        }
        // Core dimensions must be direct edges (bound 1 is tight).
        if (spec.level_of_dim(i) < 0) {
          EXPECT_EQ(p.size(), 2u);
        }
      }
    }
  }
}

TEST(Broadcast2, Example4TraceFromZero) {
  const auto g42 = make_g42();
  const auto schedule = make_broadcast_schedule(g42, 0);
  ASSERT_EQ(schedule.num_rounds(), 4);
  // Round 1: the single call from 0000 must be a length-2 detour into
  // the 1xxx half (dim 4 is not owned by 0000's label).
  ASSERT_EQ(schedule.round(0).size(), 1u);
  const FlatSchedule::CallView first = schedule.round(0)[0];
  EXPECT_EQ(first.caller(), 0u);
  EXPECT_EQ(first.length(), 2);
  EXPECT_EQ(coord(first.receiver(), 4), 1);
  // The paper's trace reaches 1010 via 0010; ours may pick the other
  // Condition-A witness (1001 via 0001) — both are legal detours.
  EXPECT_TRUE(first.receiver() == *parse_bitstring("1010") ||
              first.receiver() == *parse_bitstring("1001"));
  // Round 2: two calls, receivers in the two still-empty dim-3 halves.
  ASSERT_EQ(schedule.round(1).size(), 2u);
  // Rounds 3-4: subcube flood with direct edges only.
  for (int t = 2; t < 4; ++t) {
    for (const FlatSchedule::CallView c : schedule.round(t)) EXPECT_EQ(c.length(), 1);
  }
  const auto report = validate_minimum_time_k_line(SpecView{g42}, schedule, 2);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.minimum_time);
}

TEST(Broadcast2, LiteralSchemeMatchesUnified) {
  const auto spec = SparseHypercubeSpec::construct_base(6, 3);
  for (Vertex s = 0; s < spec.num_vertices(); s += 5) {
    const auto a = make_broadcast_schedule(spec, s);
    const auto b = make_broadcast2_literal(spec, s);
    ASSERT_EQ(a.num_rounds(), b.num_rounds());
    for (int t = 0; t < a.num_rounds(); ++t) {
      ASSERT_EQ(a.round(t).size(), b.round(t).size()) << "round " << t;
      for (std::size_t c = 0; c < a.round(t).size(); ++c) {
        const auto pa = a.round(t)[c];
        const auto pb = b.round(t)[c];
        EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
            << "round " << t << " call " << c;
      }
    }
    // Arena-level equality.
    EXPECT_TRUE(a == b);
  }
}

struct BroadcastCase {
  int n;
  std::vector<int> cuts;
};

class BroadcastAllSources : public ::testing::TestWithParam<BroadcastCase> {};

// Theorem 4 / Theorem 6: minimum-time k-line broadcast from EVERY source.
TEST_P(BroadcastAllSources, ValidatesMinimumTime) {
  const auto& param = GetParam();
  const auto spec = SparseHypercubeSpec::construct(param.n, param.cuts);
  const SpecView view(spec);
  const int k = spec.k();
  for (Vertex s = 0; s < spec.num_vertices(); ++s) {
    const auto schedule = make_broadcast_schedule(spec, s);
    const auto report = validate_minimum_time_k_line(view, schedule, k);
    ASSERT_TRUE(report.ok) << "source " << s << ": " << report.error;
    EXPECT_TRUE(report.minimum_time) << "source " << s;
    EXPECT_EQ(report.rounds, param.n);
    EXPECT_LE(report.max_call_length, k);
    EXPECT_EQ(report.informed, spec.num_vertices());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BroadcastAllSources,
    ::testing::Values(BroadcastCase{3, {1}}, BroadcastCase{4, {2}},
                      BroadcastCase{5, {2}}, BroadcastCase{6, {2}},
                      BroadcastCase{7, {3}}, BroadcastCase{8, {3}},
                      BroadcastCase{6, {2, 4}}, BroadcastCase{7, {2, 4}},
                      BroadcastCase{8, {2, 4}}, BroadcastCase{9, {2, 5}},
                      BroadcastCase{8, {2, 4, 6}}, BroadcastCase{10, {2, 4, 7}},
                      BroadcastCase{10, {1, 3, 5, 7}}),
    [](const auto& info) {
      std::string name = "n" + std::to_string(info.param.n) + "k" +
                         std::to_string(info.param.cuts.size() + 1);
      // Appending piecewise (not via `"_" + std::to_string(c)`) dodges
      // GCC 12's bogus -Wrestrict on operator+(const char*, string&&),
      // which -Werror would otherwise promote.
      for (int c : info.param.cuts) {
        name += '_';
        name += std::to_string(c);
      }
      return name;
    });

TEST(Broadcast, ExactDoublingEveryRound) {
  const auto spec = SparseHypercubeSpec::construct(7, {2, 4});
  const auto schedule = make_broadcast_schedule(spec, 19);
  std::size_t informed = 1;
  for (int t = 0; t < schedule.num_rounds(); ++t) {
    EXPECT_EQ(schedule.round(t).size(), informed);  // every informed vertex calls
    informed *= 2;
  }
  EXPECT_EQ(informed, spec.num_vertices());
}

TEST(Broadcast, DesignedNetworksBroadcastFromEverySource) {
  for (int k = 2; k <= 4; ++k) {
    const int n = 9;
    const auto spec = design_sparse_hypercube(n, k);
    EXPECT_EQ(spec.k(), k);
    const SpecView view(spec);
    for (Vertex s = 0; s < spec.num_vertices(); s += 13) {
      const auto report =
          validate_minimum_time_k_line(view, make_broadcast_schedule(spec, s), k);
      ASSERT_TRUE(report.ok) << "k=" << k << " source " << s << ": " << report.error;
      EXPECT_TRUE(report.minimum_time);
    }
  }
}

TEST(Broadcast, MaxCallLengthMatchesLevelStructure) {
  // A k = 4 construction must place at least one call of length > 2
  // somewhere (otherwise it would already be a 2-mlbg of lower degree
  // than the lower bound allows) and never exceed k.
  const auto spec = SparseHypercubeSpec::construct(10, {2, 4, 7});
  const auto schedule = make_broadcast_schedule(spec, 0);
  EXPECT_LE(schedule.max_call_length(), spec.k());
  EXPECT_GE(schedule.max_call_length(), 3);
}

/// Runs `fn`, expecting std::invalid_argument whose message names `value`.
template <class Fn>
void expect_invalid_naming(Fn&& fn, const std::string& value) {
  try {
    fn();
    ADD_FAILURE() << "no std::invalid_argument (expected one naming " << value << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
  }
}

/// Sink that counts rounds; emit_broadcast_rounds must refuse before
/// producing any.
struct CountingRoundSink {
  int rounds = 0;
  Vertex last = 0;
  void begin_round() { ++rounds; }
  void end_round() {}
  void end_call() {}
  void push_vertex(Vertex v) { last = v; }
  [[nodiscard]] Vertex last_vertex() const { return last; }
};

TEST(BroadcastGuards, EntryPointsThrowTypedErrorsNamingTheValue) {
  const auto g29 = design_sparse_hypercube(29, 2);
  expect_invalid_naming([&] { (void)make_broadcast_schedule(g29, 0); }, "n = 29");
  expect_invalid_naming([&] { (void)make_broadcast2_literal(g29, 0); }, "n = 29");

  const auto g10 = design_sparse_hypercube(10, 2);
  expect_invalid_naming([&] { (void)make_broadcast_schedule(g10, 1024); }, "source 1024");
  expect_invalid_naming([&] { (void)make_broadcast2_literal(g10, 1024); }, "source 1024");
  expect_invalid_naming([&] { (void)route_flip(g10, 0, 11); }, "dimension 11");
  expect_invalid_naming([&] { (void)route_flip(g10, 0, 0); }, "dimension 0");

  const auto g10k3 = design_sparse_hypercube(10, 3);
  ASSERT_EQ(g10k3.k(), 3);
  expect_invalid_naming([&] { (void)make_broadcast2_literal(g10k3, 0); }, "k = 3");

  CountingRoundSink sink;
  const auto g33 = SparseHypercubeSpec::construct(33, {7});
  expect_invalid_naming([&] { emit_broadcast_rounds(g33, 0, sink); }, "n = 33");
  expect_invalid_naming([&] { emit_broadcast_rounds(g10, 1024, sink); }, "source 1024");
  EXPECT_EQ(sink.rounds, 0);
}

TEST(FormatSchedule, ShowsRoundsAndVias) {
  const auto g42 = make_g42();
  const auto s = make_broadcast_schedule(g42, 0);
  const std::string text = format_schedule(s, 4);
  EXPECT_NE(text.find("broadcast from 0000 in 4 round(s)"), std::string::npos);
  EXPECT_NE(text.find("round 1:"), std::string::npos);
  EXPECT_NE(text.find("via"), std::string::npos);  // the round-1 detour
}

}  // namespace
}  // namespace shc
