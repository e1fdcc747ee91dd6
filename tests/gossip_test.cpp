// Tests for k-line gossip (the paper's Section-5 open direction).
#include <gtest/gtest.h>

#include "shc/gossip/gossip.hpp"
#include "shc/gossip/symbolic_gossip.hpp"
#include "shc/labeling/labeling.hpp"
#include "shc/sim/network.hpp"

namespace shc {
namespace {

class HypercubeGossip : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeGossip, DimensionExchangeIsOptimal) {
  const int n = GetParam();
  const CubeOracle qn(n);
  const auto schedule = hypercube_exchange_gossip(n);
  const auto rep = validate_gossip(qn, schedule, 1);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.complete);
  EXPECT_TRUE(rep.minimum_time);
  EXPECT_EQ(rep.rounds, n);
  EXPECT_EQ(rep.max_call_length, 1);
  EXPECT_EQ(rep.total_exchanges,
            static_cast<std::uint64_t>(n) * cube_order(n - 1));
}

INSTANTIATE_TEST_SUITE_P(Cubes, HypercubeGossip, ::testing::Range(1, 11));

TEST(HypercubeGossip, EachRoundIsAPerfectMatching) {
  const auto schedule = hypercube_exchange_gossip(5);
  for (int t = 0; t < schedule.num_rounds(); ++t) {
    EXPECT_EQ(schedule.round(t).size(), cube_order(4));
  }
}

class SparseGossip : public ::testing::TestWithParam<std::pair<int, std::vector<int>>> {};

TEST_P(SparseGossip, GatherBroadcastCompletesInTwoN) {
  const auto& [n, cuts] = GetParam();
  const auto spec = SparseHypercubeSpec::construct(n, cuts);
  const SpecView view(spec);
  for (Vertex root : {Vertex{0}, spec.num_vertices() - 1}) {
    const auto schedule = sparse_gather_broadcast_gossip(spec, root);
    const auto rep = validate_gossip(view, schedule, spec.k());
    ASSERT_TRUE(rep.ok) << "root " << root << ": " << rep.error;
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.rounds, 2 * n);
    EXPECT_FALSE(rep.minimum_time);  // 2n > n: the open-problem gap
    EXPECT_LE(rep.max_call_length, spec.k());
    EXPECT_EQ(rep.total_exchanges, 2 * (spec.num_vertices() - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseGossip,
    ::testing::Values(std::pair{5, std::vector<int>{2}},
                      std::pair{7, std::vector<int>{3}},
                      std::pair{8, std::vector<int>{2, 4}},
                      std::pair{9, std::vector<int>{2, 4, 6}}));

TEST(GossipValidator, RejectsDoubleExchange) {
  const CubeOracle q2(2);
  GossipSchedule s;
  s.begin_round();
  s.add_call({0b00, 0b01});
  s.add_call({0b00, 0b10});
  const auto rep = validate_gossip(q2, s, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("two exchanges"), std::string::npos);

  // Double-booked the other way round: vertex 1 receives in one
  // exchange and calls in the next.
  const CubeOracle q4(4);
  GossipSchedule chained;
  chained.begin_round();
  chained.add_call({0, 1});
  chained.add_call({1, 3});
  const auto chained_rep = validate_gossip(q4, chained, 1);
  EXPECT_FALSE(chained_rep.ok);
  EXPECT_NE(chained_rep.error.find("two exchanges"), std::string::npos)
      << chained_rep.error;
}

TEST(GossipValidator, RejectsOutOfRangeInteriorPathVertex) {
  // Regression: only the two endpoints used to be range-checked, so an
  // out-of-range *interior* vertex reached the adjacency oracle raw.
  const CubeOracle q2(2);
  GossipSchedule s;
  s.begin_round();
  s.add_call({0b00, 0b101, 0b01});  // interior vertex 5 >= order 4
  const auto rep = validate_gossip(q2, s, 2);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("path vertex out of range"), std::string::npos)
      << rep.error;
}

TEST(GossipValidator, RejectsOversizedNetworkInsteadOfAllocating) {
  // Regression: the N <= 2^13 guard was a debug-only assert; in Release
  // an oversized oracle silently allocated the O(N^2)-bit matrix.
  const CubeOracle q14(14);  // 2^14 vertices, one past the guard
  const GossipSchedule empty;
  const auto rep = validate_gossip(q14, empty, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("2^13"), std::string::npos) << rep.error;
  EXPECT_EQ(rep.rounds, 0);
}

TEST(GossipValidator, RejectsSharedEdge) {
  const CubeOracle q3(3);
  GossipSchedule s;
  // Both exchanges route through edge {000, 001}.
  s.begin_round();
  s.add_call({0b010, 0b000, 0b001});
  s.add_call({0b011, 0b001, 0b000});
  const auto rep = validate_gossip(q3, s, 2);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("used twice"), std::string::npos);
}

TEST(GossipValidator, RejectsOverlongExchange) {
  const CubeOracle q3(3);
  GossipSchedule s;
  s.begin_round();
  s.add_call({0b000, 0b001, 0b011});
  EXPECT_FALSE(validate_gossip(q3, s, 1).ok);
  // ... but k = 2 accepts the path; completion still fails.
  const auto rep = validate_gossip(q3, s, 2);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("incomplete"), std::string::npos);
}

TEST(GossipValidator, DetectsIncompleteness) {
  const CubeOracle q2(2);
  GossipSchedule s;
  s.begin_round();
  s.add_call({0b00, 0b01});
  s.add_call({0b10, 0b11});
  // After one matching round nobody knows the opposite pair's tokens.
  const auto rep = validate_gossip(q2, s, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.complete);

  // A gossip that never involves vertex 3 strands its token.
  GossipSchedule stranded;
  stranded.begin_round();
  stranded.add_call({0, 1});
  stranded.begin_round();
  stranded.add_call({0, 2});
  const auto stranded_rep = validate_gossip(q2, stranded, 1);
  EXPECT_FALSE(stranded_rep.ok);
  EXPECT_FALSE(stranded_rep.complete);
  EXPECT_EQ(stranded_rep.error, "gossip incomplete after all rounds");
}

TEST(GossipValidator, KnowledgeActuallyMerges) {
  const CubeOracle q2(2);
  const auto schedule = hypercube_exchange_gossip(2);
  const auto rep = validate_gossip(q2, schedule, 1);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.rounds, 2);
}

TEST(SparseGossip, GatherPhaseAloneIsIncomplete) {
  const auto spec = SparseHypercubeSpec::construct_base(5, 2);
  const SpecView view(spec);
  auto schedule = sparse_gather_broadcast_gossip(spec, 0);
  schedule.truncate_rounds(5);  // keep only the gather half
  const auto rep = validate_gossip(view, schedule, 2);
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.complete);
}

// ---- past the exact wall ----------------------------------------------

TEST(SparseGossip, PastTheExactWallTheSymbolicEngineCertifies) {
  // n = 14 is one past the exact validator's 2^13 wall: the exact path
  // must refuse and name the engine that certifies at scale, and that
  // engine must certify the same gather-broadcast gossip in full.
  const auto spec = SparseHypercubeSpec::construct_base(14, 4);
  const SpecView view(spec);
  const auto exact =
      validate_gossip(view, sparse_gather_broadcast_gossip(spec, 0), spec.k());
  EXPECT_FALSE(exact.ok);
  EXPECT_NE(exact.error.find("certify_gossip_symbolic"), std::string::npos)
      << exact.error;

  const auto cert = certify_gossip_symbolic(spec, 0);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.complete);
  EXPECT_EQ(cert.report.rounds, 28);
  EXPECT_EQ(cert.report.total_exchanges, 2 * (cube_order(14) - 1));
  EXPECT_FALSE(cert.report.minimum_time);
}

}  // namespace
}  // namespace shc
