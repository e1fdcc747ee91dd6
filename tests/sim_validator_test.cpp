// Adversarial tests for the k-line model validator: every clause of
// Definition 1 must be enforced, and correct schedules must pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "shc/baseline/hypercube_broadcast.hpp"
#include "shc/graph/generators.hpp"
#include "shc/sim/network.hpp"
#include "shc/sim/validator.hpp"

namespace shc {
namespace {

FlatSchedule q2_good() {
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

TEST(Validator, AcceptsCorrectSchedule) {
  const CubeOracle q2(2);
  const auto rep = validate_minimum_time_k_line(q2, q2_good(), 1);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.minimum_time);
  EXPECT_EQ(rep.rounds, 2);
  EXPECT_EQ(rep.informed, 4u);
  EXPECT_EQ(rep.total_calls, 3u);
  EXPECT_EQ(rep.max_call_length, 1);
}

TEST(Validator, RejectsUninformedCaller) {
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 0b00;
  s.begin_round();
  s.add_call({0b01, 0b11});  // 01 is not informed yet
  s.begin_round();
  s.add_call({0b00, 0b01});
  s.add_call({0b10, 0b11});
  const auto rep = validate_minimum_time_k_line(q2, s, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("not informed"), std::string::npos);
}

// Regression: an empty or single-vertex path used to be undefined
// behavior waiting to happen (caller()/receiver() on an empty path).
// The accessors assert in debug builds, and the validator rejects
// degenerate calls explicitly instead of touching them.
TEST(Validator, RejectsEmptyAndZeroLengthCallsExplicitly) {
  const CubeOracle q2(2);
  ValidationOptions opt;
  opt.k = 1;
  opt.require_completion = false;

  FlatSchedule empty_path;
  empty_path.source = 0;
  empty_path.begin_round();
  empty_path.end_call_unchecked();  // no vertices at all
  ASSERT_EQ(empty_path.num_calls(), 1u);
  EXPECT_EQ(empty_path.call(0).size(), 0u);
  const auto rep_empty = validate_broadcast(q2, empty_path, opt);
  EXPECT_FALSE(rep_empty.ok);
  EXPECT_NE(rep_empty.error.find("empty or zero-length call"), std::string::npos);

  FlatSchedule zero_length;
  zero_length.source = 0;
  zero_length.begin_round();
  zero_length.push_vertex(0b00);  // caller, no receiver
  zero_length.end_call_unchecked();
  ASSERT_EQ(zero_length.num_calls(), 1u);
  EXPECT_EQ(zero_length.call(0).size(), 1u);
  const auto rep_zero = validate_broadcast(q2, zero_length, opt);
  EXPECT_FALSE(rep_zero.ok);
  EXPECT_NE(rep_zero.error.find("empty or zero-length call"), std::string::npos);
}

// Regression: the vertex-disjoint model tracks touched vertices in a
// bitmap indexed by vertex id; an out-of-range interior path vertex must
// be reported cleanly before that bitmap is touched.
TEST(Validator, VertexDisjointRejectsOutOfRangeInteriorVertex) {
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0b00, Vertex{1000000}, 0b01});
  ValidationOptions opt;
  opt.k = 2;
  opt.require_completion = false;
  opt.require_vertex_disjoint = true;
  const auto rep = validate_broadcast(q2, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("out of range"), std::string::npos);
}

TEST(Validator, RejectsOverlongCall) {
  const CubeOracle q3(3);
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0b000, 0b001, 0b011});  // length 2
  ValidationOptions opt;
  opt.k = 1;
  opt.require_completion = false;
  const auto rep = validate_broadcast(q3, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("> k="), std::string::npos);
  opt.k = 2;
  EXPECT_TRUE(validate_broadcast(q3, s, opt).ok);
}

TEST(Validator, RejectsEdgeConflictWithinRound) {
  // Path graph 0-1-2-3: round 1: 0->2 via 1; round 2: 0->1 and 2->3.
  // The conflicting version replaces 2->3 with the nonsense walk
  // 2,1,0,1, which collides with the call 0->1.
  const Graph path_graph = make_path(4);
  const GraphView path(path_graph);
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0, 1, 2});
  s.begin_round();
  s.add_call({0, 1});
  s.add_call({2, 3});
  ValidationOptions opt;
  opt.k = 3;
  EXPECT_TRUE(validate_broadcast(path, s, opt).ok);

  FlatSchedule bad;
  bad.source = 0;
  bad.begin_round();
  bad.add_call({0, 1, 2});
  bad.begin_round();
  bad.add_call({0, 1});
  bad.add_call({2, 1, 0, 1});  // nonsense walk
  const auto rep = validate_broadcast(path, bad, opt);
  EXPECT_FALSE(rep.ok);
}

TEST(Validator, RejectsSharedEdgeSameRound) {
  const Graph path_graph = make_path(4);
  const GraphView path(path_graph);
  FlatSchedule s;
  s.source = 1;
  // Round 1: 1->0.  Round 2: 1->2 and 0->3 via 1,2 — the edge {1,2} is
  // used by both calls.
  s.begin_round();
  s.add_call({1, 0});
  s.begin_round();
  s.add_call({1, 2});
  s.add_call({0, 1, 2, 3});
  ValidationOptions opt;
  opt.k = 3;
  const auto rep = validate_broadcast(path, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("used 2 times"), std::string::npos);
  // With capacity 2 (dilated network) the same schedule passes.
  opt.edge_capacity = 2;
  EXPECT_TRUE(validate_broadcast(path, s, opt).ok) << validate_broadcast(path, s, opt).error;
}

TEST(Validator, RejectsReceiverConflict) {
  const Graph star_graph = make_star(4);
  const GraphView star(star_graph);
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0, 1});
  s.begin_round();
  s.add_call({0, 2});
  s.add_call({1, 0, 2});  // both target 2
  ValidationOptions opt;
  opt.k = 2;
  const auto rep = validate_broadcast(star, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("two calls"), std::string::npos);
}

TEST(Validator, RejectsNonEdgeHop) {
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0b00, 0b11});  // distance 2, not an edge
  ValidationOptions opt;
  opt.k = 2;
  opt.require_completion = false;
  const auto rep = validate_broadcast(q2, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("no edge"), std::string::npos);
}

TEST(Validator, RejectsRedundantReceiverWhenStrict) {
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 0b00;
  s.begin_round();
  s.add_call({0b00, 0b10});
  s.begin_round();
  s.add_call({0b00, 0b01});
  s.add_call({0b10, 0b00});  // calls the source again
  ValidationOptions opt;
  opt.k = 1;
  opt.require_completion = false;
  EXPECT_FALSE(validate_broadcast(q2, s, opt).ok);
  opt.forbid_redundant_receivers = false;
  // Still fails completion if required, but the call itself is legal.
  EXPECT_TRUE(validate_broadcast(q2, s, opt).ok);
}

TEST(Validator, RejectsIncompleteBroadcast) {
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0b00, 0b01});
  const auto rep = validate_minimum_time_k_line(q2, s, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("incomplete"), std::string::npos);
}

TEST(Validator, RejectsEmptyRound) {
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 0b00;
  s.begin_round();  // an empty first round
  s.begin_round();
  s.add_call({0b00, 0b10});
  s.begin_round();
  s.add_call({0b00, 0b01});
  s.add_call({0b10, 0b11});
  const auto rep = validate_minimum_time_k_line(q2, s, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, "round 1: empty round");
}

TEST(Validator, MinimumTimeFlagRequiresExactRounds) {
  // A valid but slow schedule: Q_2 informed one vertex per round.
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 0b00;
  s.begin_round();
  s.add_call({0b00, 0b01});
  s.begin_round();
  s.add_call({0b00, 0b10});
  s.begin_round();
  s.add_call({0b01, 0b11});
  const auto rep = validate_minimum_time_k_line(q2, s, 1);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(rep.minimum_time);
  EXPECT_EQ(rep.rounds, 3);
}

TEST(Validator, SourceOutOfRange) {
  const CubeOracle q2(2);
  FlatSchedule s;
  s.source = 7;
  EXPECT_FALSE(validate_minimum_time_k_line(q2, s, 1).ok);
}

// Replays `vertices` (duplicates included) into a VertexSet of `order`
// and a std::set side by side, checking insert's return value, size and
// membership after every step, then clear() and reuse.
void expect_vertex_set_matches_reference(std::uint64_t order,
                                         const std::vector<Vertex>& vertices) {
  detail::VertexSet set(order);
  std::set<Vertex> ref;
  for (const Vertex v : vertices) {
    EXPECT_EQ(set.insert(v), ref.insert(v).second) << "order " << order << " v " << v;
    EXPECT_EQ(set.size(), ref.size());
    EXPECT_TRUE(set.contains(v));
  }
  for (const Vertex v : vertices) EXPECT_TRUE(set.contains(v));
  for (const Vertex v : {Vertex{0}, order / 3, order - 1}) {
    EXPECT_EQ(set.contains(v), ref.contains(v)) << "order " << order << " v " << v;
  }
  const bool was_dense = set.dense();
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.dense(), was_dense) << "clear() keeps the representation";
  for (const Vertex v : vertices) EXPECT_FALSE(set.contains(v));
  std::set<Vertex> again;
  for (const Vertex v : vertices) EXPECT_EQ(set.insert(v), again.insert(v).second);
  EXPECT_EQ(set.size(), ref.size()) << "reuse after clear()";
  for (const Vertex v : vertices) EXPECT_TRUE(set.contains(v));
}

TEST(VertexSet, SemanticsHoldAcrossTheSwitchToABitmap) {
  // 2^16 + 37 vertices (a partial last bitmap word): the set turns
  // dense when its count reaches order / 256 = 256.
  const std::uint64_t order = (std::uint64_t{1} << 16) + 37;
  detail::VertexSet set(order);
  EXPECT_FALSE(set.dense());
  std::vector<Vertex> inserted;
  for (std::uint64_t i = 0; i < 600; ++i) {
    const Vertex v = i == 0 ? order - 1 : (i * 109) % order;
    EXPECT_TRUE(set.insert(v)) << v;
    inserted.push_back(v);
    EXPECT_EQ(set.size(), i + 1);
    EXPECT_EQ(set.dense(), set.size() >= order / 256) << "after " << i + 1;
    // Duplicates on both sides of the switch: the vertex just added and
    // the first one, inserted while the set was still hashed.
    EXPECT_FALSE(set.insert(v));
    EXPECT_FALSE(set.insert(inserted.front()));
    EXPECT_EQ(set.size(), i + 1);
  }
  for (const Vertex v : inserted) EXPECT_TRUE(set.contains(v)) << v;
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(order - 2));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.dense()) << "the bitmap survives clear()";
  for (const Vertex v : inserted) EXPECT_FALSE(set.contains(v)) << v;
  EXPECT_TRUE(set.insert(inserted[7]));
  EXPECT_FALSE(set.insert(inserted[7]));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(inserted[7]));
  EXPECT_FALSE(set.contains(inserted[8]));

  // The same walk, with duplicates interleaved, against a reference set
  // for orders below, at and above the density threshold.
  for (const std::uint64_t ord : {std::uint64_t{2}, std::uint64_t{255},
                                  std::uint64_t{256}, std::uint64_t{4096}, order}) {
    std::vector<Vertex> walk;
    for (std::uint64_t i = 0; i < 400; ++i) walk.push_back((i * i * 31 + 7) % ord);
    walk.push_back(0);
    walk.push_back(ord - 1);
    expect_vertex_set_matches_reference(ord, walk);
  }
}

TEST(VertexSet, LargestBitmapOrderAndBeyondKeepTheirExtremeVertices) {
  // 2^32 is the largest order that may ever switch to a bitmap (it would
  // at 2^24 members, out of reach here); 2^40 must stay hashed for good.
  const std::uint64_t top32 = (std::uint64_t{1} << 32) - 1;
  expect_vertex_set_matches_reference(
      std::uint64_t{1} << 32, {0, top32, 0, top32, top32 >> 1, 1, top32});
  const std::uint64_t order40 = std::uint64_t{1} << 40;
  detail::VertexSet set(order40);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    EXPECT_TRUE(set.insert(order40 - 1 - i * 0x10001));
  }
  EXPECT_FALSE(set.insert(order40 - 1));
  EXPECT_TRUE(set.insert(0));
  EXPECT_EQ(set.size(), 5001u);
  EXPECT_FALSE(set.dense()) << "orders above 2^32 never switch";
  EXPECT_TRUE(set.contains(order40 - 1));
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.contains(order40 - 2));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(order40 - 1));
  EXPECT_TRUE(set.insert(order40 - 1));
  EXPECT_EQ(set.size(), 1u);
}

class BinomialBroadcastProperty : public ::testing::TestWithParam<int> {};

TEST_P(BinomialBroadcastProperty, ValidatesAsOneLineFromEverySource) {
  const int n = GetParam();
  const CubeOracle qn(n);
  for (Vertex s = 0; s < cube_order(n); s += (n >= 6 ? 5 : 1)) {
    const auto schedule = hypercube_binomial_broadcast(n, s);
    const auto rep = validate_minimum_time_k_line(qn, schedule, 1);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.minimum_time);
    EXPECT_EQ(rep.max_call_length, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Cubes, BinomialBroadcastProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace shc
