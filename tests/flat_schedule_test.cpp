// Unit tests for the flat arena-backed schedule engine: the cursor
// builder, round/call views, the formatter, and the allocation-shape
// guarantees the producers rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "shc/baseline/hypercube_broadcast.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/congestion.hpp"
#include "shc/sim/flat_schedule.hpp"
#include "shc/sim/validator.hpp"

namespace shc {
namespace {

FlatSchedule q2_flat() {
  // Q_2 from 00: round 1: 00->10; round 2: 00->01, 10->11.
  FlatSchedule s;
  s.source = 0b00;
  s.begin_round();
  s.add_call({0b00, 0b10});
  s.begin_round();
  s.add_call({0b00, 0b01});
  s.add_call({0b10, 0b11});
  return s;
}

TEST(FlatSchedule, CursorBuilderAndViews) {
  const FlatSchedule s = q2_flat();
  EXPECT_EQ(s.num_rounds(), 2);
  EXPECT_EQ(s.num_calls(), 3u);
  EXPECT_EQ(s.num_path_vertices(), 6u);
  EXPECT_EQ(s.max_call_length(), 1);

  ASSERT_EQ(s.round(0).size(), 1u);
  ASSERT_EQ(s.round(1).size(), 2u);
  const FlatSchedule::CallView c = s.round(1)[1];
  EXPECT_EQ(c.caller(), 0b10u);
  EXPECT_EQ(c.receiver(), 0b11u);
  EXPECT_EQ(c.length(), 1);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 0b10u);

  // Range-for over a round yields the calls in insertion order.
  std::vector<Vertex> callers;
  for (const FlatSchedule::CallView call : s.round(1)) {
    callers.push_back(call.caller());
  }
  EXPECT_EQ(callers, (std::vector<Vertex>{0b00, 0b10}));
}

TEST(FlatSchedule, RoundViewIteratorIsAConformingForwardIterator) {
  using It = FlatSchedule::RoundView::iterator;
  static_assert(std::forward_iterator<It>,
                "RoundView::iterator must model std::forward_iterator");
  // The C++20 concept dispatches on iterator_concept; the C++17 traits
  // category honestly stays input (by-value proxy reference).
  static_assert(std::is_same_v<std::iterator_traits<It>::iterator_category,
                               std::input_iterator_tag>);
  static_assert(std::is_same_v<std::iterator_traits<It>::value_type,
                               FlatSchedule::CallView>);

  const FlatSchedule s = q2_flat();
  const FlatSchedule::RoundView round = s.round(1);

  // std::distance and <algorithm> now work over a round.
  EXPECT_EQ(std::distance(round.begin(), round.end()), 2);
  EXPECT_EQ(std::count_if(round.begin(), round.end(),
                          [](FlatSchedule::CallView c) { return c.length() == 1; }),
            2);

  // Post-increment returns the pre-increment position.
  It it = round.begin();
  const It old = it++;
  EXPECT_EQ((*old).caller(), 0b00u);
  EXPECT_EQ((*it).caller(), 0b10u);
  EXPECT_EQ(++it, round.end());
}

TEST(FlatSchedule, IncrementalCallConstruction) {
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.push_vertex(0);
  s.push_vertex(1);
  EXPECT_EQ(s.last_vertex(), 1u);
  s.push_vertex(3);
  s.end_call();
  EXPECT_EQ(s.num_calls(), 1u);
  EXPECT_EQ(s.call(0).length(), 2);
  EXPECT_EQ(s.call(0).receiver(), 3u);
}

TEST(FlatSchedule, TruncateRounds) {
  FlatSchedule s = q2_flat();
  s.truncate_rounds(1);
  EXPECT_EQ(s.num_rounds(), 1);
  EXPECT_EQ(s.num_calls(), 1u);
  EXPECT_EQ(s.num_path_vertices(), 2u);
  s.truncate_rounds(0);
  EXPECT_EQ(s.num_rounds(), 0);
  EXPECT_EQ(s.num_calls(), 0u);
  // The truncated schedule can keep growing.
  s.begin_round();
  s.add_call({0b00, 0b01});
  EXPECT_EQ(s.num_calls(), 1u);
}

TEST(FlatSchedule, SpecViewValidatesWithoutMaterialization) {
  const auto spec = design_sparse_hypercube(12, 2);
  const auto schedule = make_broadcast_schedule(spec, 7);
  const SpecView view(spec);
  const auto rep = validate_minimum_time_k_line(view, schedule, spec.k());
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.minimum_time);
  EXPECT_EQ(rep.informed, spec.num_vertices());
  EXPECT_LE(rep.max_call_length, spec.k());
}

TEST(FlatSchedule, ProducerReservationsAreExactEnoughToAvoidGrowth) {
  // The binomial producer reserves its arenas up front; growing the
  // schedule must not reallocate (pointer stability of the first call's
  // data across construction is implied by capacity sufficiency, which
  // heap_bytes() exposes: capacity in bytes equals the final footprint
  // computed from counts).
  const auto schedule = hypercube_binomial_broadcast(10, 0);
  EXPECT_EQ(schedule.num_calls(), cube_order(10) - 1);
  EXPECT_EQ(schedule.num_path_vertices(), 2 * (cube_order(10) - 1));
  EXPECT_LE(schedule.heap_bytes(),
            (2 * (cube_order(10) - 1)) * sizeof(Vertex) +
                cube_order(10) * sizeof(std::size_t) + 16 * sizeof(std::size_t));
}

TEST(FlatSchedule, DropCallsPreservesRoundStructure) {
  const auto spec = SparseHypercubeSpec::construct_base(6, 2);
  const auto schedule = make_broadcast_schedule(spec, 0);
  std::mt19937_64 rng(5);
  const FlatSchedule degraded = drop_calls(schedule, 0.5, rng);
  EXPECT_EQ(degraded.num_rounds(), schedule.num_rounds());
  EXPECT_LT(degraded.num_calls(), schedule.num_calls());
  EXPECT_EQ(degraded.source, schedule.source);
}

TEST(FlatSchedule, FormatPrintsEveryRoundAndCall) {
  EXPECT_EQ(format_schedule(q2_flat(), 2),
            "broadcast from 00 in 2 round(s)\n"
            "  round 1:\n"
            "    00 -> 10  (length 1)\n"
            "  round 2:\n"
            "    00 -> 01  (length 1)\n"
            "    10 -> 11  (length 1)\n");
}

}  // namespace
}  // namespace shc
