// Facade suite: shc::certify must be a bit-for-bit repackaging of the
// direct certify_* engines — same ValidationReport/GossipReport (the
// structs' defaulted operator==), same stats counters — on clean and
// failing schedules alike, for all four workloads.  Plus the shared
// contract satellites: CommonCheckOptions aliases keep compiling, a
// borrowed WorkerPool reproduces the owned-pool report, every certify_*
// entry point rejects threads <= 0 with std::invalid_argument, and
// to_json_row emits the historical shc_sweep row schema.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "shc/api/certify.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/sim/congestion.hpp"
#include "shc/sim/streaming_validator.hpp"
#include "shc/sim/symbolic_validator.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

// The old spellings are inherited members now; the aliasing contract is
// that both option structs share one CommonCheckOptions base.
static_assert(std::is_base_of_v<CommonCheckOptions, SymbolicCheckOptions>);
static_assert(std::is_base_of_v<CommonCheckOptions, SymbolicGossipOptions>);

TEST(ApiFacade, StreamingParityCleanRun) {
  const auto spec = design_sparse_hypercube(12, 3);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto direct = certify_broadcast_streaming(spec, 0, opt, 1);

  CertifyRequest req;
  req.workload = Workload::kBroadcastStreaming;
  req.n = 12;
  req.k = 3;
  const CertifyResult res = certify(req);

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.report, direct.report);
  EXPECT_EQ(res.cuts, spec.cuts());
  EXPECT_EQ(res.calls, direct.calls);
  EXPECT_EQ(res.peak_round_arena_bytes, direct.peak_round_arena_bytes);
  EXPECT_EQ(res.largest_round_arena_bytes, direct.largest_round_arena_bytes);
  EXPECT_EQ(res.whole_schedule_arena_bytes, direct.whole_schedule_arena_bytes);
}

TEST(ApiFacade, StreamingParityFailingRun) {
  // Source out of range: the engine answers a failed report, not a
  // throw; the facade must forward it unchanged.
  const auto spec = design_sparse_hypercube(10, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto direct =
      certify_broadcast_streaming(spec, spec.num_vertices(), opt, 1);
  ASSERT_FALSE(direct.report.ok);

  CertifyRequest req;
  req.workload = Workload::kBroadcastStreaming;
  req.n = 10;
  req.k = 2;
  req.source = spec.num_vertices();
  const CertifyResult res = certify(req);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.report, direct.report);

  // Over the streaming limit: explicit refusal report, forwarded.
  CertifyRequest big;
  big.workload = Workload::kBroadcastStreaming;
  big.n = 33;
  big.k = 2;
  const CertifyResult bigres = certify(big);
  EXPECT_FALSE(bigres.ok);
  EXPECT_NE(bigres.report.error.find("streaming pipeline limit"),
            std::string::npos);
}

TEST(ApiFacade, SymbolicParityCleanRun) {
  const auto spec = design_sparse_hypercube(14, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto direct = certify_broadcast_symbolic(spec, 0, opt);

  CertifyRequest req;
  req.workload = Workload::kBroadcastSymbolic;
  req.n = 14;
  req.k = 2;
  const CertifyResult res = certify(req);

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.report, direct.report);
  EXPECT_EQ(res.checks.groups, direct.checks.groups);
  EXPECT_EQ(res.checks.peak_round_groups, direct.checks.peak_round_groups);
  EXPECT_EQ(res.checks.peak_frontier_subcubes,
            direct.checks.peak_frontier_subcubes);
  EXPECT_EQ(res.checks.occupancy_claims, direct.checks.occupancy_claims);
  EXPECT_EQ(res.checks.sampled_calls, direct.checks.sampled_calls);
  EXPECT_EQ(res.checks.rounds_checked, direct.checks.rounds_checked);
  EXPECT_EQ(res.producer.groups_emitted, direct.producer.groups_emitted);
}

TEST(ApiFacade, SymbolicParityFailingRun) {
  const auto spec = design_sparse_hypercube(12, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto direct =
      certify_broadcast_symbolic(spec, spec.num_vertices(), opt);
  ASSERT_FALSE(direct.report.ok);

  CertifyRequest req;
  req.workload = Workload::kBroadcastSymbolic;
  req.n = 12;
  req.k = 2;
  req.source = spec.num_vertices();
  const CertifyResult res = certify(req);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.report, direct.report);
}

TEST(ApiFacade, GossipParityCleanRun) {
  const auto spec = design_sparse_hypercube(10, 2);
  const auto direct = certify_gossip_symbolic(spec, 0);

  CertifyRequest req;
  req.workload = Workload::kGossipSymbolic;
  req.n = 10;
  req.k = 2;
  const CertifyResult res = certify(req);

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.gossip, direct.report);
  EXPECT_EQ(res.gossip_checks.groups, direct.checks.groups);
  EXPECT_EQ(res.gossip_checks.rounds_checked, direct.checks.rounds_checked);
  EXPECT_EQ(res.gossip_checks.classes.peak_classes,
            direct.checks.classes.peak_classes);
  // The mirrored broadcast-shaped verdict agrees with the gossip one.
  EXPECT_EQ(res.report.ok, direct.report.ok);
  EXPECT_EQ(res.report.total_calls, direct.report.total_exchanges);
}

TEST(ApiFacade, ExchangeGossipParityCleanAndOverflow) {
  const auto direct = certify_exchange_gossip_symbolic(8);
  CertifyRequest req;
  req.workload = Workload::kExchangeGossip;
  req.n = 8;
  const CertifyResult res = certify(req);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.gossip, direct.report);
  EXPECT_EQ(res.k, 1);

  // n = 60: the exchange count n * 2^(n-1) overflows 64 bits and the
  // engine refuses explicitly; the facade forwards the refusal.
  const auto overflow = certify_exchange_gossip_symbolic(60);
  ASSERT_FALSE(overflow.report.ok);
  CertifyRequest big;
  big.workload = Workload::kExchangeGossip;
  big.n = 60;
  const CertifyResult bigres = certify(big);
  EXPECT_FALSE(bigres.ok);
  EXPECT_EQ(bigres.gossip, overflow.report);
}

TEST(ApiFacade, ExplicitCutsMatchDesignedSpec) {
  // Passing a designed spec's cut vector explicitly must certify the
  // identical graph (construct(n, cuts) uses the Lemma-2 labelings,
  // same as the designer).
  const auto spec = design_sparse_hypercube(12, 3);
  CertifyRequest designed;
  designed.workload = Workload::kBroadcastSymbolic;
  designed.n = 12;
  designed.k = 3;
  CertifyRequest explicit_cuts = designed;
  explicit_cuts.cuts = spec.cuts();
  const CertifyResult a = certify(designed);
  const CertifyResult b = certify(explicit_cuts);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.cuts, b.cuts);
  EXPECT_EQ(a.checks.groups, b.checks.groups);
}

TEST(ApiFacade, BorrowedPoolReproducesOwnedPoolReport) {
  const auto spec = design_sparse_hypercube(14, 2);
  ValidationOptions opt;
  opt.k = spec.k();

  SymbolicCheckOptions owned;
  owned.threads = 4;
  const auto with_owned = certify_broadcast_symbolic(spec, 0, opt, owned);

  WorkerPool pool(4);
  SymbolicCheckOptions borrowed;
  borrowed.pool = &pool;
  const auto with_borrowed = certify_broadcast_symbolic(spec, 0, opt, borrowed);
  EXPECT_EQ(with_owned.report, with_borrowed.report);
  EXPECT_EQ(with_owned.checks.groups, with_borrowed.checks.groups);
  EXPECT_EQ(with_owned.checks.occupancy_claims,
            with_borrowed.checks.occupancy_claims);

  // The pool survives the validator and serves the gossip engine next —
  // the server's reuse pattern.
  SymbolicGossipOptions gopt;
  gopt.pool = &pool;
  const auto gossip_borrowed = certify_gossip_symbolic(spec, 0, gopt);
  const auto gossip_serial = certify_gossip_symbolic(spec, 0);
  EXPECT_EQ(gossip_borrowed.report, gossip_serial.report);
}

TEST(ApiFacade, EveryEngineRejectsNonPositiveThreads) {
  const auto spec = design_sparse_hypercube(8, 2);
  ValidationOptions opt;
  opt.k = spec.k();

  EXPECT_THROW(
      { auto c = certify_broadcast_streaming(spec, 0, opt, 0); (void)c; },
      std::invalid_argument);
  EXPECT_THROW(
      { auto c = certify_broadcast_streaming(spec, 0, opt, -3); (void)c; },
      std::invalid_argument);

  SymbolicCheckOptions sopt;
  sopt.threads = 0;
  EXPECT_THROW(
      { auto c = certify_broadcast_symbolic(spec, 0, opt, sopt); (void)c; },
      std::invalid_argument);

  SymbolicGossipOptions gopt;
  gopt.threads = -1;
  EXPECT_THROW(
      { auto c = certify_gossip_symbolic(spec, 0, gopt); (void)c; },
      std::invalid_argument);
  EXPECT_THROW(
      { auto c = certify_exchange_gossip_symbolic(8, gopt); (void)c; },
      std::invalid_argument);

  CertifyRequest req;
  req.n = 8;
  req.checks.threads = 0;
  EXPECT_THROW({ auto r = certify(req); (void)r; }, std::invalid_argument);
}

/// to_json_row minus its wall-time field.
std::string row_without_seconds(const CertifyResult& r) {
  std::string row = to_json_row(r);
  const std::size_t at = row.find(",\"seconds\":");
  if (at == std::string::npos) return row;
  const std::size_t end = row.find_first_of(",}", at + 1);
  return row.erase(at, end - at);
}

TEST(ApiFacade, SymbolicBroadcastRowsAreByteIdenticalAtOneTwoFourAndEightThreads) {
  // From two threads up the validator's checks run beside its frontier
  // insert; the row must not notice, clean or failing.  The failing
  // request starves the collision ledger's budget, so the rejection
  // comes from the check job after the concurrent insert has run.
  CertifyRequest clean;
  clean.workload = Workload::kBroadcastSymbolic;
  clean.n = 16;
  clean.k = 3;
  CertifyRequest failing = clean;
  failing.checks.ledger_budget_per_claim = 0;
  for (const bool ok : {true, false}) {
    CertifyRequest req = ok ? clean : failing;
    req.checks.threads = 1;
    const CertifyResult serial = certify(req);
    EXPECT_EQ(serial.ok, ok) << serial.report.error;
    if (!ok) {
      EXPECT_NE(serial.report.error.find("collision analysis exceeded its budget"),
                std::string::npos)
          << serial.report.error;
    }
    const std::string expect = row_without_seconds(serial);
    for (const int threads : {2, 4, 8}) {
      req.checks.threads = threads;
      const CertifyResult r = certify(req);
      EXPECT_EQ(row_without_seconds(r), expect) << "threads=" << threads;
      EXPECT_EQ(r.producer.final_frontier_subcubes, serial.producer.final_frontier_subcubes)
          << "threads=" << threads;
      EXPECT_EQ(r.producer.peak_frontier_subcubes, serial.producer.peak_frontier_subcubes)
          << "threads=" << threads;
    }
  }
}

TEST(ApiFacade, CongestionRowOnALentPoolMatchesTheSerialRow) {
  // The congestion analysis runs on the lent pool itself, as the
  // engines do, instead of building a second pool of its size.
  for (const Workload workload : {Workload::kBroadcastStreaming, Workload::kBroadcastSymbolic}) {
    CertifyRequest req;
    req.workload = workload;
    req.n = 12;
    req.k = 2;
    req.with_congestion = true;
    const CertifyResult serial = certify(req);
    ASSERT_TRUE(serial.ok) << serial.report.error;
    ASSERT_TRUE(serial.has_congestion);
    WorkerPool lent(2);
    req.checks.pool = &lent;
    const CertifyResult pooled = certify(req);
    EXPECT_TRUE(pooled.has_congestion);
    EXPECT_EQ(pooled.congestion, serial.congestion) << workload_name(workload);
    EXPECT_EQ(row_without_seconds(pooled), row_without_seconds(serial))
        << workload_name(workload);
  }
}

TEST(ApiFacade, EveryEngineRejectsThreadsAboveTheCapBeforeStartingAPool) {
  // One past kMaxCheckThreads: each entry must throw before it builds a
  // WorkerPool, so no worker thread is ever started here.
  constexpr int kOver = kMaxCheckThreads + 1;
  const auto spec = design_sparse_hypercube(8, 2);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();

  EXPECT_THROW(
      { auto c = certify_broadcast_streaming(spec, 0, opt, kOver); (void)c; },
      std::invalid_argument);
  EXPECT_THROW(
      { StreamingBroadcastValidator<SpecView> v(view, 0, opt, kOver); },
      std::invalid_argument);
  const FlatSchedule schedule = make_broadcast_schedule(spec, 0);
  EXPECT_THROW(
      { auto c = analyze_congestion(schedule, kOver); (void)c; },
      std::invalid_argument);

  SymbolicCheckOptions sopt;
  sopt.threads = kOver;
  EXPECT_THROW(
      { auto c = certify_broadcast_symbolic(spec, 0, opt, sopt); (void)c; },
      std::invalid_argument);
  EXPECT_THROW(
      { SymbolicBroadcastValidator<SpecView> v(view, 0, opt, sopt); },
      std::invalid_argument);

  SymbolicGossipOptions gopt;
  gopt.threads = kOver;
  EXPECT_THROW(
      { auto c = certify_gossip_symbolic(spec, 0, gopt); (void)c; },
      std::invalid_argument);
  EXPECT_THROW(
      { auto c = certify_exchange_gossip_symbolic(8, gopt); (void)c; },
      std::invalid_argument);

  CertifyRequest req;
  req.n = 8;
  req.checks.threads = kOver;
  try {
    (void)certify(req);
    ADD_FAILURE() << "certify accepted threads = " << kOver;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kOver)), std::string::npos)
        << e.what();
  }
  // The cap itself is accepted (no pool is built for a lent one).
  WorkerPool lent(1);
  req.checks.threads = kMaxCheckThreads;
  req.checks.pool = &lent;
  EXPECT_TRUE(certify(req).ok);
}

TEST(ApiFacade, JsonRowKeepsSweepSchema) {
  CertifyRequest req;
  req.workload = Workload::kBroadcastStreaming;
  req.n = 10;
  req.k = 2;
  req.with_congestion = true;
  const std::string row = to_json_row(certify(req));
  for (const char* key :
       {"\"n\":10", "\"k\":2", "\"cuts\":[", "\"model\":\"edge-disjoint\"",
        "\"ok\":true", "\"minimum_time\":true", "\"rounds\":", "\"calls\":",
        "\"peak_round_arena_bytes\":", "\"seconds\":",
        "\"distinct_edges_used\":", "\"required_edge_capacity\":"}) {
    EXPECT_NE(row.find(key), std::string::npos) << key << " missing: " << row;
  }
  EXPECT_EQ(row.find("\"engine\":"), std::string::npos)
      << "streaming rows are engine-tag-free (historical schema): " << row;

  CertifyRequest sym = req;
  sym.workload = Workload::kBroadcastSymbolic;
  sym.with_congestion = false;
  const std::string symrow = to_json_row(certify(sym));
  for (const char* key : {"\"engine\":\"symbolic\"", "\"groups\":",
                          "\"peak_frontier_subcubes\":", "\"seconds\":"}) {
    EXPECT_NE(symrow.find(key), std::string::npos) << key << " missing: " << symrow;
  }

  CertifyRequest gos = req;
  gos.workload = Workload::kGossipSymbolic;
  gos.with_congestion = false;
  const std::string gosrow = to_json_row(certify(gos));
  for (const char* key : {"\"engine\":\"symbolic-gossip\"", "\"complete\":true",
                          "\"exchanges\":", "\"peak_classes\":"}) {
    EXPECT_NE(gosrow.find(key), std::string::npos) << key << " missing: " << gosrow;
  }

  // Failing rows carry the escaped error.
  CertifyRequest bad = req;
  bad.source = 1u << 10;
  bad.with_congestion = false;
  const std::string badrow = to_json_row(certify(bad));
  EXPECT_NE(badrow.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(badrow.find("\"error\":\"source out of range\""), std::string::npos);
}

TEST(ApiFacade, WorkloadNamesRoundTrip) {
  for (const Workload w :
       {Workload::kBroadcastStreaming, Workload::kBroadcastSymbolic,
        Workload::kGossipSymbolic, Workload::kExchangeGossip}) {
    Workload back = Workload::kBroadcastStreaming;
    ASSERT_TRUE(workload_from_name(workload_name(w), &back));
    EXPECT_EQ(back, w);
  }
  Workload out;
  EXPECT_FALSE(workload_from_name("frisbee", &out));
}

TEST(ApiFacade, PredictedGroupCostRanksHeavyQueries) {
  CertifyRequest small;
  small.workload = Workload::kBroadcastSymbolic;
  small.n = 12;
  small.k = 2;

  CertifyRequest designed47;
  designed47.workload = Workload::kBroadcastSymbolic;
  designed47.n = 47;
  designed47.cuts = {theorem5_core(47)};

  CertifyRequest exchange;
  exchange.workload = Workload::kExchangeGossip;
  exchange.n = 16;

  EXPECT_GT(predicted_group_cost(designed47), predicted_group_cost(small));
  EXPECT_EQ(predicted_group_cost(exchange), 16u);
  // Streaming cost is the concrete call count, 2^n - 1.
  CertifyRequest stream;
  stream.workload = Workload::kBroadcastStreaming;
  stream.n = 12;
  EXPECT_EQ(predicted_group_cost(stream), (1u << 12) - 1);
  // Congestion stats materialize the concrete schedule at n <= 24, so
  // they cost its calls too, whatever engine certifies the broadcast.
  CertifyRequest congested;
  congested.workload = Workload::kBroadcastSymbolic;
  congested.n = 24;
  congested.k = 3;
  const std::uint64_t symbolic_cost = predicted_group_cost(congested);
  congested.with_congestion = true;
  EXPECT_EQ(predicted_group_cost(congested), (std::uint64_t{1} << 24) - 1);
  EXPECT_LT(symbolic_cost, predicted_group_cost(congested));
  congested.n = 25;  // past 24 nothing is materialized
  const std::uint64_t unmaterialized = predicted_group_cost(congested);
  congested.with_congestion = false;
  EXPECT_EQ(unmaterialized, predicted_group_cost(congested));
  // Deterministic: the admission decision must not flap between
  // identical requests.
  EXPECT_EQ(predicted_group_cost(designed47), predicted_group_cost(designed47));
}

}  // namespace
}  // namespace shc
