// Tests for edge-load accounting and failure injection (the Section-5
// congestion discussion).
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/check_options.hpp"
#include "shc/sim/congestion.hpp"
#include "shc/sim/validator.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

FlatSchedule tiny_schedule() {
  // Path 0-1-2-3: round 1: 0->2 via 1; round 2: 0->1, 2->3.
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0, 1, 2});
  s.begin_round();
  s.add_call({0, 1});
  s.add_call({2, 3});
  return s;
}

TEST(Congestion, CountsLoadsOnKnownSchedule) {
  const auto stats = analyze_congestion(tiny_schedule());
  EXPECT_EQ(stats.distinct_edges_used, 3u);  // {0,1}, {1,2}, {2,3}
  EXPECT_EQ(stats.total_edge_hops, 4u);
  EXPECT_EQ(stats.max_edge_load_total, 2);   // {0,1} used in both rounds
  EXPECT_EQ(stats.max_edge_load_per_round, 1);
  EXPECT_DOUBLE_EQ(stats.mean_edge_load, 4.0 / 3.0);
  // Histogram: two edges with load 1, one with load 2.
  ASSERT_EQ(stats.load_histogram.size(), 3u);
  EXPECT_EQ(stats.load_histogram[1], 2u);
  EXPECT_EQ(stats.load_histogram[2], 1u);
}

TEST(Congestion, RequiredCapacityIsOneForFeasibleSchedules) {
  const auto spec = SparseHypercubeSpec::construct(7, {2, 4});
  for (Vertex s : {Vertex{0}, Vertex{77}, Vertex{127}}) {
    const auto schedule = make_broadcast_schedule(spec, s);
    EXPECT_EQ(required_edge_capacity(schedule), 1) << "source " << s;
  }
}

TEST(Congestion, RejectsThreadCountBelowOne) {
  EXPECT_THROW((void)analyze_congestion(tiny_schedule(), 0), std::invalid_argument);
  EXPECT_THROW((void)analyze_congestion(tiny_schedule(), -3), std::invalid_argument);
}

TEST(Congestion, LentPoolShardsOverItsWorkersAndIgnoresThreads) {
  // A lent pool sets the shard count; the thread knob is not read, so
  // even a count past the cap builds nothing and throws nothing.
  const auto schedule = make_broadcast_schedule(SparseHypercubeSpec::construct(10, {3}), 0);
  const CongestionStats serial = analyze_congestion(schedule);
  for (const int workers : {1, 2, 3}) {
    WorkerPool lent(workers);
    EXPECT_EQ(analyze_congestion(schedule, 1, &lent), serial) << "workers=" << workers;
    EXPECT_EQ(analyze_congestion(schedule, kMaxCheckThreads + 1, &lent), serial)
        << "workers=" << workers;
  }
}

TEST(Congestion, EmptyScheduleIsZero) {
  const auto stats = analyze_congestion(FlatSchedule{});
  EXPECT_EQ(stats.distinct_edges_used, 0u);
  EXPECT_EQ(stats.total_edge_hops, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_edge_load, 0.0);
}

TEST(Congestion, SparseCubeCarriesMoreLoadPerEdgeThanQn) {
  // The qualitative Section-5 claim: with fewer edges, the broadcast's
  // total hops spread over fewer distinct edges.
  const auto spec = SparseHypercubeSpec::construct_base(8, 3);
  const auto sparse_stats = analyze_congestion(make_broadcast_schedule(spec, 0));
  // The same traffic volume on Q_8 (binomial) touches one edge per call.
  EXPECT_GT(sparse_stats.total_edge_hops, cube_order(8) - 1);
  EXPECT_GE(sparse_stats.max_edge_load_total, 2);
}

TEST(FailureInjection, DroppedCallsBreakCompletion) {
  const auto spec = SparseHypercubeSpec::construct_base(6, 2);
  const auto schedule = make_broadcast_schedule(spec, 0);
  std::mt19937_64 rng(42);
  const auto degraded = drop_calls(schedule, 0.3, rng);
  ASSERT_LT(degraded.num_calls(), schedule.num_calls());
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = 2;
  const auto rep = validate_broadcast(view, degraded, opt);
  EXPECT_FALSE(rep.ok);  // something was lost (64 calls at 30% drop)
}

TEST(FailureInjection, ZeroRateIsIdentity) {
  const auto spec = SparseHypercubeSpec::construct_base(5, 2);
  const auto schedule = make_broadcast_schedule(spec, 3);
  std::mt19937_64 rng(1);
  const auto copy = drop_calls(schedule, 0.0, rng);
  EXPECT_EQ(copy.num_calls(), schedule.num_calls());
  const SpecView view(spec);
  EXPECT_TRUE(validate_minimum_time_k_line(view, copy, 2).ok);
}

TEST(CompetingTraffic, CollisionCountsBounded) {
  const auto spec = SparseHypercubeSpec::construct_base(8, 3);
  const auto schedule = make_broadcast_schedule(spec, 0);
  std::mt19937_64 rng(7);
  const std::size_t flows = 50;
  const auto collisions = competing_traffic_collisions(schedule, 8, 2, flows, rng);
  ASSERT_EQ(collisions.size(), static_cast<std::size_t>(schedule.num_rounds()));
  for (std::size_t c : collisions) EXPECT_LE(c, flows);
  // Later rounds carry more broadcast calls, so collisions should not
  // be uniformly zero.
  std::size_t total = 0;
  for (std::size_t c : collisions) total += c;
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace shc
