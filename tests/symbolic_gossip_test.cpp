// Parity and adversarial suite for the symbolic gossip engine.
//
// Contract under test: on the shared range (n <= 13, k in {2, 3, 4},
// both producers) certify_gossip_symbolic /
// certify_exchange_gossip_symbolic produce a GossipReport bit-for-bit
// identical to exact validate_gossip's — on the clean schedules AND on
// the truncated-schedule failure, whose "gossip incomplete after all
// rounds" verdict is shared.  Beyond the wall, the engine certifies
// n = 40 gather-broadcast (2^41 - 2 exchanges) and the checked
// counters refuse the n = 63 dimension-exchange total (n * 2^(n-1)
// overflows 64 bits) instead of wrapping.  Handcrafted violations of
// the group structure are rejected, and the WorkerPool-sharded checks
// reproduce the single-thread reports exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

// ASan detection across GCC (__SANITIZE_ADDRESS__) and Clang
// (__has_feature); used to keep one magnitude-boundary run out of the
// ~45x-slower sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define SHC_ASAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SHC_ASAN_ENABLED 1
#endif
#endif

#include "shc/gossip/gossip.hpp"
#include "shc/gossip/symbolic_gossip.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/network.hpp"

namespace shc {
namespace {

static_assert(SymbolicRoundSink<SymbolicGossipValidator<SpecView>>,
              "the symbolic gossip validator is a symbolic round sink");
static_assert(SymbolicOracle<CubeOracle>,
              "CubeOracle answers dimension-indexed adjacency with supports");
static_assert(AdjacencyOracle<CubeOracle>,
              "CubeOracle also serves the exact validators");

void expect_same_report(const GossipReport& exact, const GossipReport& sym,
                        const char* what) {
  EXPECT_TRUE(exact == sym)
      << what << ":\n  exact:    ok=" << exact.ok << " \"" << exact.error
      << "\" rounds=" << exact.rounds << " complete=" << exact.complete
      << " min_time=" << exact.minimum_time
      << " maxlen=" << exact.max_call_length
      << " exchanges=" << exact.total_exchanges << "\n  symbolic: ok="
      << sym.ok << " \"" << sym.error << "\" rounds=" << sym.rounds
      << " complete=" << sym.complete << " min_time=" << sym.minimum_time
      << " maxlen=" << sym.max_call_length
      << " exchanges=" << sym.total_exchanges;
}

// ---- dimension-exchange parity ----------------------------------------

TEST(SymbolicGossipParity, ExchangeReportsMatchExactForAllNUpTo13) {
  for (int n = 1; n <= 13; ++n) {
    const CubeOracle qn(n);
    const auto exact = validate_gossip(qn, hypercube_exchange_gossip(n), 1);
    const auto sym = certify_exchange_gossip_symbolic(n);
    expect_same_report(exact, sym.report, ("n=" + std::to_string(n)).c_str());
    ASSERT_TRUE(sym.report.ok) << sym.report.error;
    EXPECT_TRUE(sym.report.minimum_time);
    EXPECT_EQ(sym.report.total_exchanges,
              static_cast<std::uint64_t>(n) * cube_order(n - 1));
    EXPECT_EQ(sym.checks.groups, static_cast<std::uint64_t>(n));
    if (n >= 2) {
      EXPECT_GT(sym.checks.sampled_calls, 0u)
          << "bit-level spot checks must actually run";
    }
  }
}

TEST(SymbolicGossipParity, ExchangeExpansionIsCallForCallIdentical) {
  // The symbolic producer pins coordinate i to 0 exactly like the
  // concrete one picks u < v, so the expansions are *identical*
  // schedules, not merely equal multisets.
  for (const int n : {1, 3, 6, 10}) {
    const GossipSchedule expanded =
        GossipSchedule::from_symbolic(hypercube_exchange_gossip_symbolic(n));
    EXPECT_TRUE(expanded == hypercube_exchange_gossip(n)) << "n=" << n;
  }
}

// ---- gather-broadcast parity ------------------------------------------

TEST(SymbolicGossipParity, GatherBroadcastReportsMatchExactGridN13K234) {
  for (int n = 4; n <= 13; ++n) {
    for (int k = 2; k <= 4; ++k) {
      if (n <= k + 1) continue;
      const auto spec = design_sparse_hypercube(n, k);
      const SpecView view(spec);
      for (const Vertex root : {Vertex{0}, spec.num_vertices() - 1}) {
        const auto exact = validate_gossip(
            view, sparse_gather_broadcast_gossip(spec, root), spec.k());
        const auto sym = certify_gossip_symbolic(spec, root);
        expect_same_report(
            exact, sym.report,
            ("n=" + std::to_string(n) + " k=" + std::to_string(k) + " root=" +
             std::to_string(root))
                .c_str());
        ASSERT_TRUE(sym.report.ok) << sym.report.error;
        EXPECT_TRUE(sym.report.complete);
        EXPECT_EQ(sym.report.rounds, 2 * n);
        EXPECT_FALSE(sym.report.minimum_time);  // 2n > n: the open-problem gap
        EXPECT_EQ(sym.report.total_exchanges, 2 * (cube_order(n) - 1));
      }
    }
  }
}

TEST(SymbolicGossipParity, CustomCutsMatchToo) {
  for (const auto& [n, cuts] : std::vector<std::pair<int, std::vector<int>>>{
           {10, {3}}, {12, {3, 6}}, {13, {2, 5, 9}}}) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    const SpecView view(spec);
    const auto exact =
        validate_gossip(view, sparse_gather_broadcast_gossip(spec, 0), spec.k());
    const auto sym = certify_gossip_symbolic(spec, 0);
    expect_same_report(exact, sym.report, "custom cuts");
    EXPECT_TRUE(sym.report.ok) << sym.report.error;
  }
}

TEST(SymbolicGossipParity, ExpansionValidatesLikeTheConcreteProducer) {
  const auto spec = design_sparse_hypercube(10, 2);
  const SpecView view(spec);
  const GossipSchedule expanded =
      GossipSchedule::from_symbolic(make_symbolic_gossip_schedule(spec, 0));
  const GossipSchedule concrete = sparse_gather_broadcast_gossip(spec, 0);
  EXPECT_EQ(expanded.num_calls(), concrete.num_calls());
  EXPECT_EQ(expanded.num_path_vertices(), concrete.num_path_vertices());
  expect_same_report(validate_gossip(view, concrete, spec.k()),
                     validate_gossip(view, expanded, spec.k()), "expansion");
}

TEST(SymbolicGossipParity, TruncatedScheduleFailureIsBitForBitToo) {
  // Dropping the last round leaves knowledge incomplete; the symbolic
  // engine shares the exact validator's message for this one failure,
  // so even the failing reports compare bit-for-bit.
  const auto spec = design_sparse_hypercube(9, 2);
  const SpecView view(spec);
  auto sym = make_symbolic_gossip_schedule(spec, 0);
  sym.rounds.pop_back();
  const auto exact =
      validate_gossip(view, GossipSchedule::from_symbolic(sym), spec.k());
  const auto symbolic = validate_gossip_symbolic(view, sym, spec.k());
  EXPECT_FALSE(symbolic.ok);
  EXPECT_NE(symbolic.error.find("gossip incomplete after all rounds"),
            std::string::npos)
      << symbolic.error;
  expect_same_report(exact, symbolic, "truncated");
}

TEST(SymbolicGossipParity, SeededSampleReplayMirrorsTheExactKernel) {
  // Cranked-up sampling expands a large share of every round through
  // the exact structural kernel; the verdict must not change.
  const auto spec = design_sparse_hypercube(10, 3);
  SymbolicGossipOptions sopt;
  sopt.sample_groups_per_round = 64;
  sopt.sample_calls_per_group = 64;
  const auto sym = certify_gossip_symbolic(spec, 0, sopt);
  ASSERT_TRUE(sym.report.ok) << sym.report.error;
  EXPECT_GT(sym.checks.sampled_calls, 1000u);
}

// ---- parallel checks ---------------------------------------------------

TEST(SymbolicGossipThreads, ShardedChecksReproduceTheSerialReport) {
  const auto spec = design_sparse_hypercube(12, 3);
  SymbolicGossipOptions serial;
  SymbolicGossipOptions sharded;
  sharded.threads = 4;
  const auto a = certify_gossip_symbolic(spec, 0, serial);
  const auto b = certify_gossip_symbolic(spec, 0, sharded);
  expect_same_report(a.report, b.report, "threads=4 vs threads=1");
  ASSERT_TRUE(a.report.ok) << a.report.error;
}

TEST(SymbolicGossipThreads, ShardedChecksReproduceTheSerialFailureReport) {
  // Truncated gather-broadcast: the knowledge partition (whose heavy
  // reductions run as pooled merge trees when threads > 1) is exercised
  // all the way to the "incomplete" verdict — the failing report must
  // also be bit-for-bit thread-count independent.
  const auto spec = design_sparse_hypercube(12, 3);
  const SpecView view(spec);
  auto s = make_symbolic_gossip_schedule(spec, 0);
  s.rounds.resize(static_cast<std::size_t>(s.rounds.size() - 2));
  SymbolicGossipOptions sharded;
  sharded.threads = 4;
  const auto serial_rep = validate_gossip_symbolic(view, s, spec.k());
  const auto sharded_rep = validate_gossip_symbolic(view, s, spec.k(), sharded);
  expect_same_report(serial_rep, sharded_rep, "threads=4 vs threads=1 failing");
  EXPECT_FALSE(serial_rep.ok);
  EXPECT_FALSE(serial_rep.complete);
}

// ---- handcrafted violations -------------------------------------------

GossipReport check_on_cube(const SymbolicSchedule& s, int n, int k) {
  const CubeOracle oracle(n);
  return validate_gossip_symbolic(oracle, s, k);
}

/// Expands `s` exchange for exchange and checks that exact
/// validate_gossip rejects it too, in the round the symbolic engine
/// named.
void expect_exact_rejects_in_same_round(const SymbolicSchedule& s, int k,
                                        const GossipReport& sym) {
  const CubeOracle oracle(s.n);
  const auto exact = validate_gossip(oracle, GossipSchedule::from_symbolic(s), k);
  EXPECT_FALSE(exact.ok);
  EXPECT_EQ(exact.rounds, sym.rounds) << exact.error;
  const std::string prefix = "round " + std::to_string(sym.rounds) + ": ";
  EXPECT_EQ(exact.error.rfind(prefix, 0), 0u) << exact.error;
}

TEST(SymbolicGossipViolations, DroppedGroupLeavesKnowledgeIncomplete) {
  auto s = hypercube_exchange_gossip_symbolic(5);
  s.rounds[2].groups.clear();
  s.rounds[2].group_pattern.clear();
  const auto rep = check_on_cube(s, 5, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("incomplete"), std::string::npos) << rep.error;
}

TEST(SymbolicGossipViolations, OverlappingEndpointsDetected) {
  // Duplicate a round's only group: every caller appears in two
  // exchanges — the symbolic form of "vertex in two exchanges".
  auto s = hypercube_exchange_gossip_symbolic(5);
  s.rounds[1].groups.push_back(s.rounds[1].groups[0]);
  s.rounds[1].group_pattern.push_back(s.rounds[1].group_pattern[0]);
  const auto rep = check_on_cube(s, 5, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error,
            "round 2: a vertex takes part in two exchanges (endpoint "
            "subcubes overlap)");
  expect_exact_rejects_in_same_round(s, 1, rep);
}

TEST(SymbolicGossipViolations, CountMismatchIsMultiplicityAccountingError) {
  auto s = hypercube_exchange_gossip_symbolic(5);
  s.rounds[0].groups[0].count += 1;
  const auto rep = check_on_cube(s, 5, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("multiplicity accounting"), std::string::npos)
      << rep.error;
}

TEST(SymbolicGossipViolations, SelfExchangeCycleRejected) {
  // A 4-hop cycle returning to its start uses four distinct edges but
  // pairs every caller with itself — the exact validator would see the
  // endpoint twice; the symbolic engine rejects the pattern directly.
  SymbolicScheduleBuilder b(0, 4);
  b.begin_round();
  CallGroup g;
  g.prefix = 0;
  g.free_mask = 0;
  g.count = 1;
  const Vertex patt[] = {0, 1, 3, 2, 0};
  b.end_call_group(g, patt);
  b.end_round();
  const auto rep = check_on_cube(std::move(b).take(), 4, 4);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("exchange with itself"), std::string::npos)
      << rep.error;
}

TEST(SymbolicGossipViolations, SharedEdgeBetweenGroupsDetected) {
  // 2 -> 0 -> 1 and 3 -> 1 -> 0 on Q_3: endpoints {2,1} and {3,0} are
  // disjoint, but both paths route through edge {0, 1}.
  SymbolicScheduleBuilder b(0, 3);
  b.begin_round();
  CallGroup g;
  g.prefix = 0b010;
  g.free_mask = 0;
  g.count = 1;
  const Vertex p1[] = {0, 0b010, 0b011};
  b.end_call_group(g, p1);
  g.prefix = 0b011;
  const Vertex p2[] = {0, 0b010, 0b011};
  b.end_call_group(g, p2);
  b.end_round();
  const auto s = std::move(b).take();
  const auto rep = check_on_cube(s, 3, 2);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, "round 1: edge collision between concurrent call groups");
  expect_exact_rejects_in_same_round(s, 2, rep);
}

TEST(SymbolicGossipViolations, GatherHalfAloneIsIncomplete) {
  // The bidirectional-union accounting in action: after only the
  // gather half, the root's class is complete but the leaf classes are
  // not — completion must fail.
  const auto spec = design_sparse_hypercube(9, 2);
  const SpecView view(spec);
  auto s = make_symbolic_gossip_schedule(spec, 0);
  s.rounds.resize(static_cast<std::size_t>(s.rounds.size() / 2));
  const auto rep = validate_gossip_symbolic(view, s, spec.k());
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.complete);
  EXPECT_NE(rep.error.find("incomplete"), std::string::npos) << rep.error;
}

TEST(SymbolicGossipViolations, SampledReplayCatchesGraphDisagreement) {
  // Produce against one spec, validate against a sparser one: the
  // symbolic representative checks or the concrete sampled replay must
  // notice the routes are not edges.
  const auto produce = SparseHypercubeSpec::construct_base(10, 3);
  const auto sym = make_symbolic_gossip_schedule(produce, 0);
  const auto other = SparseHypercubeSpec::construct_base(10, 4);
  const SpecView view(other);
  SymbolicGossipOptions sopt;
  sopt.sample_groups_per_round = 64;
  sopt.sample_calls_per_group = 64;
  const auto rep = validate_gossip_symbolic(view, sym, /*k=*/4, sopt);
  EXPECT_FALSE(rep.ok) << "routes of construct_base(10,3) are not edges of "
                          "construct_base(10,4)";
}

TEST(SymbolicGossipViolations, DimensionMismatchRefused) {
  const auto s = hypercube_exchange_gossip_symbolic(5);
  const auto rep = check_on_cube(s, 6, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("does not match"), std::string::npos) << rep.error;
}

// ---- ledger-budget refusals ---------------------------------------------

/// Options whose occupancy-ledger buckets get no budget at all: any
/// bucket holding two claims is refused before its walk starts.
SymbolicGossipOptions starved_ledger() {
  SymbolicGossipOptions sopt;
  sopt.ledger_budget_per_claim = 0;
  return sopt;
}

TEST(SymbolicGossipBudgets, EndpointRefusalNamesRoundBudgetAndKnob) {
  // Round 2 repeats its only group: its two identical caller claims
  // share one endpoint bucket, which a zero budget cannot walk.  Round
  // 1's two endpoint cubes differ on a pinned bit, so they sit in
  // separate buckets and need no walk.
  auto s = hypercube_exchange_gossip_symbolic(5);
  s.rounds[1].groups.push_back(s.rounds[1].groups[0]);
  s.rounds[1].group_pattern.push_back(s.rounds[1].group_pattern[0]);
  const CubeOracle oracle(5);
  const auto rep = validate_gossip_symbolic(oracle, s, 1, starved_ledger());
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error,
            "round 2: endpoint disjointness analysis exceeded its budget "
            "(ledger bucket budget 0; raise "
            "SymbolicGossipOptions::ledger_budget_per_claim)");
}

TEST(SymbolicGossipBudgets, EdgeCollisionRefusalNamesRoundBudgetAndKnob) {
  // The shared-edge round of SharedEdgeBetweenGroupsDetected: its four
  // endpoints are distinct vertices (one bucket each), but both
  // dimension-2 hops claim edge {0, 1}, and that bucket gets no budget.
  SymbolicScheduleBuilder b(0, 3);
  b.begin_round();
  CallGroup g;
  g.prefix = 0b010;
  g.free_mask = 0;
  g.count = 1;
  const Vertex patt[] = {0, 0b010, 0b011};
  b.end_call_group(g, patt);
  g.prefix = 0b011;
  b.end_call_group(g, patt);
  b.end_round();
  const auto s = std::move(b).take();
  const CubeOracle oracle(3);
  const auto rep = validate_gossip_symbolic(oracle, s, 2, starved_ledger());
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error,
            "round 1: collision analysis exceeded its budget (ledger bucket "
            "budget 0; raise SymbolicGossipOptions::ledger_budget_per_claim)");
}

// ---- the boundary ------------------------------------------------------

TEST(SymbolicGossipBoundary, ExchangeGossipCertifiesAtN59WithExactCount) {
  // n = 59 is the largest n where the dimension-exchange total
  // n * 2^(n-1) still fits 64 bits; the whole certification is O(n)
  // groups, so "past the 2^13 wall" costs microseconds here.
  const auto cert = certify_exchange_gossip_symbolic(59);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.minimum_time);
  EXPECT_EQ(cert.report.rounds, 59);
  EXPECT_EQ(cert.report.total_exchanges, 59u * (std::uint64_t{1} << 58));
  // The pair total 2^59 x 2^59 is past 64 bits — saturated, flagged.
  EXPECT_FALSE(cert.checks.classes.known_pairs_exact);
}

TEST(SymbolicGossipBoundary, ExchangeCountOverflowRefusedExactlyAtN60) {
  // n = 60 is the first dimension where the total n * 2^(n-1) breaks
  // 64 bits, and it breaks mid-run: each round adds 2^59 exchanges, so
  // the accumulator is exact through round 31 (31 * 2^59 < 2^64) and
  // round 32's accumulation would hit 2^64 on the nose.  The checked
  // counter must refuse at that exact round and leave the running total
  // untouched (refusal, not saturation: total_exchanges is
  // verdict-bearing).
  const auto cert = certify_exchange_gossip_symbolic(60);
  EXPECT_FALSE(cert.report.ok);
  EXPECT_EQ(cert.report.error,
            "round 32: total exchange count overflowed 64 bits");
  EXPECT_EQ(cert.report.total_exchanges, 31u * (std::uint64_t{1} << 59));
}

TEST(SymbolicGossipBoundary, ExchangeCountOverflowRefusedAtN63) {
  // 63 * 2^62 exceeds 2^64: the checked counter must refuse explicitly
  // (wrapping would certify garbage totals).
  const auto cert = certify_exchange_gossip_symbolic(63);
  EXPECT_FALSE(cert.report.ok);
  EXPECT_NE(cert.report.error.find("overflowed 64 bits"), std::string::npos)
      << cert.report.error;
}

TEST(SymbolicGossipBoundary, KnownPairsSaturateExplicitlyPastTwoPow64) {
  // At n = 59 completion, class-size x knowledge-count = 2^59 * 2^59:
  // the pair total (the N^2 the exact validator would store as bits)
  // saturates with the exactness flag cleared instead of wrapping.
  const auto cert = certify_exchange_gossip_symbolic(40);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_FALSE(cert.checks.classes.known_pairs_exact);
  EXPECT_EQ(cert.checks.classes.known_pairs, ~std::uint64_t{0});
}

TEST(SymbolicGossipBoundary, GatherBroadcastCertifiesPastTheWall) {
  // n = 22 gather-broadcast: 2^23 - 2 exchanges, hopelessly past the
  // exact validator's 2^13 wall, certified in well under a second.
  const auto spec = design_sparse_hypercube(22, 2);
  const auto cert = certify_gossip_symbolic(spec, 0);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.complete);
  EXPECT_EQ(cert.report.rounds, 44);
  EXPECT_EQ(cert.report.total_exchanges, 2 * (cube_order(22) - 1));
}

TEST(SymbolicGossipBoundary, GatherBroadcastCertifiesTheRepresentationLimit) {
  // n = 63 on construct_base(63, 6): 126 rounds, 2^64 - 2 exchanges —
  // one short of the counter's own limit — certifying the mutual
  // knowledge of 2^63 vertices in ~half a minute.  This is the
  // checked-arithmetic boundary the gossip counters exist for.
#ifdef SHC_ASAN_ENABLED
  // ~30 s release becomes ~25 min under ASan; the engine's memory
  // patterns are identically covered by the n = 22 test above, and the
  // counter boundary itself is magnitude, not layout.
  GTEST_SKIP() << "n = 63 boundary run is release-mode only";
#endif
  const auto spec = SparseHypercubeSpec::construct_base(63, 6);
  const auto cert = certify_gossip_symbolic(spec, 0);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.complete);
  EXPECT_EQ(cert.report.rounds, 126);
  EXPECT_EQ(cert.report.total_exchanges, ~std::uint64_t{0} - 1);
  EXPECT_EQ(cert.report.max_call_length, 2);
  EXPECT_FALSE(cert.checks.classes.known_pairs_exact);  // 2^63 x 2^63
}

// ---- producer guards (regression: were debug-only asserts) ------------

TEST(SymbolicGossipGuards, ConcreteExchangeProducerRefusesOversizedN) {
  EXPECT_THROW((void)hypercube_exchange_gossip(29), std::invalid_argument);
  EXPECT_THROW((void)hypercube_exchange_gossip(0), std::invalid_argument);
  try {
    (void)hypercube_exchange_gossip(29);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("symbolic"), std::string::npos)
        << "the failure must point at the symbolic producer: " << e.what();
  }
}

TEST(SymbolicGossipGuards, ConcreteGatherBroadcastRefusesOversizedN) {
  const auto spec = SparseHypercubeSpec::construct_base(21, 4);
  EXPECT_THROW((void)sparse_gather_broadcast_gossip(spec, 0),
               std::invalid_argument);
  try {
    (void)sparse_gather_broadcast_gossip(spec, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("certify_gossip_symbolic"),
              std::string::npos)
        << e.what();
  }
}

TEST(SymbolicGossipGuards, SourceOutOfRangeMatchesTheOtherEngines) {
  const auto spec = design_sparse_hypercube(10, 2);
  const auto cert = certify_gossip_symbolic(spec, cube_order(10));
  EXPECT_FALSE(cert.report.ok);
  EXPECT_EQ(cert.report.error, "source out of range");
}

// ---- group order and mutants against the exact oracle ------------------

/// `s` with each round's groups permuted by `order(idx)`; every group
/// keeps its own pattern.
template <class Order>
SymbolicSchedule permute_groups(SymbolicSchedule s, Order&& order) {
  for (SymbolicRound& round : s.rounds) {
    std::vector<std::size_t> idx(round.groups.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    order(idx);
    std::vector<CallGroup> groups;
    std::vector<std::uint32_t> patterns;
    for (const std::size_t i : idx) {
      groups.push_back(round.groups[i]);
      patterns.push_back(round.group_pattern[i]);
    }
    round.groups = std::move(groups);
    round.group_pattern = std::move(patterns);
  }
  return s;
}

/// The group orders under test: as produced, reversed, and three seeded
/// shuffles.
std::vector<std::pair<std::string, SymbolicSchedule>> group_orders(const SymbolicSchedule& s) {
  std::vector<std::pair<std::string, SymbolicSchedule>> out;
  out.emplace_back("group order", s);
  out.emplace_back("reversed", permute_groups(s, [](std::vector<std::size_t>& idx) {
                     std::reverse(idx.begin(), idx.end());
                   }));
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0xC0FFEE},
                                   std::uint64_t{0xBADC0DE}}) {
    std::mt19937_64 rng(seed);
    out.emplace_back("shuffled " + std::to_string(seed),
                     permute_groups(s, [&](std::vector<std::size_t>& idx) {
                       std::shuffle(idx.begin(), idx.end(), rng);
                     }));
  }
  return out;
}

GossipReport symbolic_at(const SpecView& view, const SymbolicSchedule& s, int k, int threads) {
  SymbolicGossipOptions sopt;
  sopt.threads = threads;
  return validate_gossip_symbolic(view, s, k, sopt);
}

/// The first round after round 1 with at least four groups, and a group
/// past its middle with more than one caller.
std::pair<std::size_t, std::size_t> mid_round_subcube_group(const SymbolicSchedule& s) {
  for (std::size_t r = 1; r < s.rounds.size(); ++r) {
    const std::vector<CallGroup>& groups = s.rounds[r].groups;
    if (groups.size() < 4) continue;
    for (std::size_t g = groups.size() / 2; g < groups.size(); ++g) {
      if (groups[g].free_mask != 0) return {r, g};
    }
  }
  ADD_FAILURE() << "no round with a mid-round subcube group";
  return {0, 0};
}

TEST(SymbolicGossipMutants, ReorderedRoundsGetTheExactVerdict) {
  // Reordering a round's groups leaves the schedule unchanged in the
  // paper's model, so the symbolic report must keep the exact
  // validator's verdict on the expanded mutant.
  for (const int n : {8, 10, 12}) {
    for (const int k : {2, 3}) {
      const auto spec = design_sparse_hypercube(n, k);
      const SpecView view(spec);
      for (const auto& [how, s] : group_orders(make_symbolic_gossip_schedule(spec, 0))) {
        const std::string what = "n=" + std::to_string(n) + " k=" + std::to_string(k) + ", " + how;
        const GossipReport exact =
            validate_gossip(view, GossipSchedule::from_symbolic(s), spec.k());
        ASSERT_TRUE(exact.ok) << what << ": " << exact.error;
        const GossipReport sym = symbolic_at(view, s, spec.k(), 1);
        EXPECT_EQ(sym.ok, exact.ok) << what << ": " << sym.error;
        EXPECT_EQ(sym.complete, exact.complete) << what;
        EXPECT_EQ(sym.rounds, exact.rounds) << what;
        EXPECT_EQ(sym.total_exchanges, exact.total_exchanges) << what;
        EXPECT_EQ(sym.minimum_time, exact.minimum_time) << what;
      }
    }
  }
}

TEST(SymbolicGossipMutants, DroppedAndDuplicatedGroupsFailInTheExactRound) {
  // A dropped group leaves knowledge incomplete at the end; a duplicated
  // group puts its endpoints into two exchanges in its own round.  Both
  // must fail in the exact validator's round, with one error string in
  // every group order and at every thread count.
  for (const int n : {8, 10, 12}) {
    for (const int k : {2, 3}) {
      const auto spec = design_sparse_hypercube(n, k);
      const SpecView view(spec);
      const SymbolicSchedule clean = make_symbolic_gossip_schedule(spec, 0);
      const auto [r, g] = mid_round_subcube_group(clean);
      SymbolicSchedule dropped = clean;
      SymbolicRound& lose = dropped.rounds[r];
      lose.groups.erase(lose.groups.begin() + static_cast<std::ptrdiff_t>(g));
      lose.group_pattern.erase(lose.group_pattern.begin() + static_cast<std::ptrdiff_t>(g));
      SymbolicSchedule duplicated = clean;
      SymbolicRound& twice = duplicated.rounds[r];
      twice.groups.push_back(twice.groups[g]);
      twice.group_pattern.push_back(twice.group_pattern[g]);
      for (const auto& [mutant, bad] : {std::pair{"dropped", dropped},
                                        std::pair{"duplicated", duplicated}}) {
        const std::string name =
            "n=" + std::to_string(n) + " k=" + std::to_string(k) + ", " + mutant;
        const GossipReport exact =
            validate_gossip(view, GossipSchedule::from_symbolic(bad), spec.k());
        ASSERT_FALSE(exact.ok) << name;
        const std::string want = symbolic_at(view, bad, spec.k(), 1).error;
        for (const auto& [how, s] : group_orders(bad)) {
          for (const int threads : {1, 2, 4}) {
            const std::string what = name + ", " + how + ", threads=" + std::to_string(threads);
            const GossipReport sym = symbolic_at(view, s, spec.k(), threads);
            EXPECT_FALSE(sym.ok) << what;
            EXPECT_EQ(sym.rounds, exact.rounds) << what << ": " << exact.error;
            EXPECT_EQ(sym.error, want) << what;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace shc
