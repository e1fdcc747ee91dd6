// Parity suite for the streaming validation pipeline.
//
// The contract under test: the streaming sink (whose sharded round
// kernel falls back to the serial one on any anomaly) produces reports
// *bit-for-bit identical* to the serial validate_broadcast at every
// thread count on every input — clean schedules, mutilated
// schedules, and handcrafted violations of each clause — and
// sharded analyze_congestion reproduces the serial congestion stats
// including the histogram.  The streaming pipeline additionally bounds
// its arena by the largest single round.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/congestion.hpp"
#include "shc/sim/network.hpp"
#include "shc/sim/round_sink.hpp"
#include "shc/sim/streaming_validator.hpp"
#include "shc/sim/validator.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

static_assert(RoundSink<FlatSchedule>,
              "the whole-arena builder is a RoundSink");
static_assert(RoundSink<StreamingBroadcastValidator<SpecView>>,
              "the streaming validator is a RoundSink");
static_assert(RoundSink<StreamingBroadcastValidator<CubeOracle>>,
              "the full-cube oracle streams too");

/// k = 2, 3, 4 sweep specs (k = cuts.size() + 1).
std::vector<std::pair<int, std::vector<int>>> sweep_specs() {
  return {{8, {3}}, {8, {2, 4}}, {9, {2, 4, 6}}};
}

void expect_same_report(const ValidationReport& serial,
                        const ValidationReport& other, const char* what) {
  EXPECT_TRUE(serial == other)
      << what << " diverged from serial:\n  serial: ok=" << serial.ok << " \""
      << serial.error << "\" rounds=" << serial.rounds
      << " informed=" << serial.informed << " calls=" << serial.total_calls
      << " maxlen=" << serial.max_call_length << "\n  other:  ok=" << other.ok
      << " \"" << other.error << "\" rounds=" << other.rounds
      << " informed=" << other.informed << " calls=" << other.total_calls
      << " maxlen=" << other.max_call_length;
}

void expect_all_validators_agree(const SpecView& view, const FlatSchedule& s,
                                 const ValidationOptions& opt, const char* what) {
  const ValidationReport serial = validate_broadcast(view, s, opt);
  for (int threads : {1, 2, 4}) {
    expect_same_report(serial, validate_broadcast_streaming(view, s, opt, threads),
                       what);
  }
}

TEST(ValidatorParity, CleanSchedulesAcrossK234) {
  for (const auto& [n, cuts] : sweep_specs()) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    const SpecView view(spec);
    ValidationOptions opt;
    opt.k = spec.k();
    for (Vertex source : {Vertex{0}, spec.num_vertices() - 1}) {
      const auto schedule = make_broadcast_schedule(spec, source);
      const auto serial = validate_broadcast(view, schedule, opt);
      ASSERT_TRUE(serial.ok) << "k=" << spec.k() << ": " << serial.error;
      ASSERT_TRUE(serial.minimum_time);
      expect_all_validators_agree(view, schedule, opt,
                                  "clean Broadcast_k schedule");
    }
  }
}

TEST(ValidatorParity, DropCallsMutilationsDetectedIdentically) {
  for (const auto& [n, cuts] : sweep_specs()) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    const SpecView view(spec);
    ValidationOptions opt;
    opt.k = spec.k();
    const auto schedule = make_broadcast_schedule(spec, 0);
    std::mt19937_64 rng(2026);
    for (int trial = 0; trial < 4; ++trial) {
      const auto degraded = drop_calls(schedule, 0.25, rng);
      const auto serial = validate_broadcast(view, degraded, opt);
      EXPECT_FALSE(serial.ok);  // 2^8 - 1 calls at 25% drop always loses some
      expect_all_validators_agree(view, degraded, opt, "drop_calls mutilation");
    }
  }
}

TEST(ValidatorParity, BorrowedPoolsReproduceTheSerialReport) {
  // A lent pool replaces the validator's own: at 1, 2 and 4 borrowed
  // workers the streamed reports, clean and mutilated, are the serial
  // validator's, and the pool serves every run in turn.
  for (const int workers : {1, 2, 4}) {
    WorkerPool pool(workers);
    for (const auto& [n, cuts] : sweep_specs()) {
      const auto spec = SparseHypercubeSpec::construct(n, cuts);
      const SpecView view(spec);
      ValidationOptions opt;
      opt.k = spec.k();
      const auto schedule = make_broadcast_schedule(spec, 0);
      const auto cert = certify_broadcast_streaming(spec, 0, opt, 1, &pool);
      ASSERT_TRUE(cert.report.ok) << cert.report.error;
      expect_same_report(validate_broadcast(view, schedule, opt), cert.report,
                         "certify on a borrowed pool");

      std::mt19937_64 rng(2026);
      const auto degraded = drop_calls(schedule, 0.25, rng);
      StreamingBroadcastValidator<SpecView> sink(view, 0, opt, 1, &pool);
      for (int t = 0; t < degraded.num_rounds() && !sink.aborted(); ++t) {
        sink.begin_round();
        for (const FlatSchedule::CallView call : degraded.round(t)) {
          for (const Vertex v : call) sink.push_vertex(v);
          sink.end_call();
        }
        sink.end_round();
      }
      expect_same_report(validate_broadcast(view, degraded, opt), sink.finish(),
                         "mutilated schedule on a borrowed pool");
    }
  }
}

TEST(ValidatorParity, VertexDisjointModelAcrossK234) {
  for (const auto& [n, cuts] : sweep_specs()) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    const SpecView view(spec);
    ValidationOptions opt;
    opt.k = spec.k();
    opt.require_vertex_disjoint = true;
    const auto schedule = make_broadcast_schedule(spec, 0);
    expect_all_validators_agree(view, schedule, opt, "vertex-disjoint model");
  }
}

TEST(ValidatorParity, HandcraftedViolationsOfEveryClause) {
  const CubeOracle q3(3);
  // Handcrafted schedules exercise every failure clause; each must
  // produce the identical report from both validators.
  struct Case {
    const char* name;
    FlatSchedule schedule;
    ValidationOptions opt;
  };
  std::vector<Case> cases;

  ValidationOptions k2;
  k2.k = 2;

  {
    Case c{"empty round", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    cases.push_back(std::move(c));
  }
  {
    // A one-vertex call, sealed without the builder's >= 2 check.
    Case c{"degenerate call", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.push_vertex(0);
    c.schedule.end_call_unchecked();
    cases.push_back(std::move(c));
  }
  {
    Case c{"caller not informed", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({1, 3});
    cases.push_back(std::move(c));
  }
  {
    Case c{"call too long", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1, 3, 2});  // length 3 > k=2
    cases.push_back(std::move(c));
  }
  {
    Case c{"receiver already informed", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    c.schedule.begin_round();
    c.schedule.add_call({1, 0});
    cases.push_back(std::move(c));
  }
  {
    Case c{"receiver targeted twice", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    c.schedule.begin_round();
    c.schedule.add_call({0, 4});
    c.schedule.add_call({1, 3});
    c.schedule.add_call({1, 3});
    cases.push_back(std::move(c));
  }
  {
    Case c{"no such edge", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 5});  // 0 xor 5 = 101: not cube-adjacent
    cases.push_back(std::move(c));
  }
  {
    // Single-hop duplicate edge, only reachable when redundant
    // receivers are allowed — pins the fast path's rule that edge
    // checks may be skipped for single-hop rounds *only* under
    // forbid_redundant_receivers.
    ValidationOptions redundant_ok = k2;
    redundant_ok.forbid_redundant_receivers = false;
    Case c{"single-hop edge used twice", {}, redundant_ok};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    c.schedule.add_call({1, 0});  // same undirected edge {0,1}
    cases.push_back(std::move(c));
  }
  {
    Case c{"edge over capacity", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    c.schedule.begin_round();
    c.schedule.add_call({0, 4, 5});
    c.schedule.add_call({1, 5, 4});  // edge {4,5} used twice
    cases.push_back(std::move(c));
  }
  {
    Case c{"endpoint out of range", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 9});
    cases.push_back(std::move(c));
  }
  {
    Case c{"interior path vertex out of range", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 9, 1});
    cases.push_back(std::move(c));
  }
  {
    ValidationOptions vd = k2;
    vd.require_vertex_disjoint = true;
    Case c{"vertex touched by two calls", {}, vd};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    c.schedule.begin_round();
    c.schedule.add_call({0, 2, 3});
    c.schedule.add_call({1, 3, 7});  // both touch vertex 3
    cases.push_back(std::move(c));
  }
  {
    Case c{"incomplete broadcast", {}, k2};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    cases.push_back(std::move(c));
  }
  {
    Case c{"source out of range", {}, k2};
    c.schedule.source = 9;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    cases.push_back(std::move(c));
  }
  {
    // Clean partial schedule under require_completion = false: the one
    // success case in this list, so the ok-path is compared too.
    ValidationOptions partial = k2;
    partial.require_completion = false;
    Case c{"partial without completion requirement", {}, partial};
    c.schedule.source = 0;
    c.schedule.begin_round();
    c.schedule.add_call({0, 1});
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    const ValidationReport serial =
        validate_broadcast(q3, c.schedule, c.opt);
    for (int threads : {1, 2, 3}) {
      expect_same_report(
          serial, validate_broadcast_streaming(q3, c.schedule, c.opt, threads),
          c.name);
    }
  }
}

TEST(CongestionParity, ParallelShardsReproduceSerialStatsExactly) {
  for (const auto& [n, cuts] : sweep_specs()) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    const auto schedule = make_broadcast_schedule(spec, 0);
    const CongestionStats serial = analyze_congestion(schedule);
    for (int threads : {1, 2, 4, 7}) {
      const CongestionStats par = analyze_congestion(schedule, threads);
      EXPECT_TRUE(serial == par)
          << "threads=" << threads << ": distinct " << serial.distinct_edges_used
          << " vs " << par.distinct_edges_used << ", hops "
          << serial.total_edge_hops << " vs " << par.total_edge_hops
          << ", max " << serial.max_edge_load_total << " vs "
          << par.max_edge_load_total << ", hist " << serial.load_histogram.size()
          << " vs " << par.load_histogram.size();
    }
  }

  // A mutilated schedule shards identically too.
  const auto spec = SparseHypercubeSpec::construct_base(8, 3);
  std::mt19937_64 rng(7);
  const auto degraded = drop_calls(make_broadcast_schedule(spec, 0), 0.3, rng);
  EXPECT_TRUE(analyze_congestion(degraded) ==
              analyze_congestion(degraded, 3));
}

TEST(CongestionParity, MergeFoldsEdgeDisjointShards) {
  // Two stats over disjoint edge sets merge to the union's stats.
  FlatSchedule a;
  a.source = 0;
  a.begin_round();
  a.add_call({0, 1});
  a.add_call({0, 1});  // edge {0,1} load 2 (infeasible, but stats don't care)
  FlatSchedule b;
  b.source = 0;
  b.begin_round();
  b.add_call({2, 3});

  CongestionStats merged = analyze_congestion(a);
  merged.merge(analyze_congestion(b));
  EXPECT_EQ(merged.distinct_edges_used, 2u);
  EXPECT_EQ(merged.total_edge_hops, 3u);
  EXPECT_EQ(merged.max_edge_load_total, 2);
  ASSERT_EQ(merged.load_histogram.size(), 3u);
  EXPECT_EQ(merged.load_histogram[1], 1u);
  EXPECT_EQ(merged.load_histogram[2], 1u);
  EXPECT_DOUBLE_EQ(merged.mean_edge_load, 1.5);
}

TEST(StreamingPipeline, EmitIntoFlatScheduleSinkEqualsMaterializedBuilder) {
  const auto spec = design_sparse_hypercube(10, 3);
  const auto direct = make_broadcast_schedule(spec, 5);
  FlatSchedule sink;
  sink.source = 5;
  emit_broadcast_rounds(spec, 5, sink);
  EXPECT_TRUE(direct == sink);
}

TEST(StreamingPipeline, CertifiesWithRoundBoundedArena) {
  const auto spec = design_sparse_hypercube(14, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto cert = certify_broadcast_streaming(spec, 0, opt, 2);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.minimum_time);
  EXPECT_EQ(cert.calls, spec.num_vertices() - 1);
  EXPECT_EQ(cert.report.total_calls, spec.num_vertices() - 1);

  // The streaming memory claim: scratch never exceeds the largest
  // single round, which is itself far below the whole schedule.
  EXPECT_GT(cert.peak_round_arena_bytes, 0u);
  EXPECT_LE(cert.peak_round_arena_bytes, cert.largest_round_arena_bytes);
  EXPECT_LT(cert.largest_round_arena_bytes, cert.whole_schedule_arena_bytes);

  // And the verdict equals the serial validator's on the materialized
  // schedule.
  const auto schedule = make_broadcast_schedule(spec, 0);
  const SpecView view(spec);
  expect_same_report(validate_broadcast(view, schedule, opt), cert.report,
                     "streaming certification");
}

TEST(StreamingPipeline, RejectsOversizedNInsteadOfAllocating) {
  // The n <= 32 limit is a hard error, not a debug assert: user input
  // (shc_sweep --big) reaches this path, and beyond 32 the producer
  // frontier alone would be a 2^n-vertex allocation.
  const auto spec = SparseHypercubeSpec::construct_base(33, 3);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto cert = certify_broadcast_streaming(spec, 0, opt, 1);
  EXPECT_FALSE(cert.report.ok);
  EXPECT_NE(cert.report.error.find("limit 32"), std::string::npos)
      << cert.report.error;
  EXPECT_EQ(cert.calls, 0u);

  // An out-of-range source gets the serial validator's report, in all
  // build types, instead of tripping the producer's Debug assert.
  const auto small = SparseHypercubeSpec::construct_base(5, 2);
  ValidationOptions opt5;
  opt5.k = small.k();
  const auto bad_source =
      certify_broadcast_streaming(small, small.num_vertices(), opt5, 1);
  EXPECT_FALSE(bad_source.report.ok);
  EXPECT_EQ(bad_source.report.error, "source out of range");
}

TEST(StreamingPipeline, AbortsProducerAfterFirstFailedRound) {
  // A sink that failed reports aborted(); emit_broadcast_rounds checks
  // it between rounds, so a doomed run does not stream all 2^n calls.
  const auto spec = SparseHypercubeSpec::construct_base(6, 2);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = 1;  // scheme needs k = 2: round 1..  fails as soon as a detour appears
  StreamingBroadcastValidator<SpecView> sink(view, 0, opt, 2);
  emit_broadcast_rounds(spec, 0, sink);
  const auto rep = sink.finish();
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(sink.aborted());
  // Strictly fewer calls were streamed than the schedule holds.
  EXPECT_LT(sink.calls_seen(), spec.num_vertices() - 1);
}

}  // namespace
}  // namespace shc
