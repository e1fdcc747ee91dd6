// Parity and adversarial suite for the symbolic subcube engine.
//
// Contract under test: on the overlapping range (n <= 24, k in
// {2, 3, 4}) certify_broadcast_symbolic produces a ValidationReport
// bit-for-bit identical to validate_broadcast_streaming's, the
// from_symbolic expansion validates identically through the serial
// kernel, and analyze_congestion_symbolic reproduces the explicit
// congestion stats including the histogram.  Beyond the overlapping
// range, the engine certifies 2^63 - 1 calls at n = 63 — the
// representation boundary the overflow-audited counters exist for —
// and every handcrafted violation of the group structure is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/congestion.hpp"
#include "shc/sim/streaming_validator.hpp"
#include "shc/sim/symbolic_validator.hpp"
#include "shc/sim/validator.hpp"

namespace shc {
namespace {

static_assert(SymbolicRoundSink<SymbolicBroadcastValidator<SpecView>>,
              "the symbolic validator is a symbolic round sink");
static_assert(SymbolicOracle<SpecView>,
              "SpecView answers dimension-indexed adjacency with supports");

void expect_same_report(const ValidationReport& a, const ValidationReport& b,
                        const char* what) {
  EXPECT_TRUE(a == b) << what << ":\n  streaming: ok=" << a.ok << " \"" << a.error
                      << "\" rounds=" << a.rounds << " informed=" << a.informed
                      << " calls=" << a.total_calls
                      << " maxlen=" << a.max_call_length << "\n  symbolic:  ok="
                      << b.ok << " \"" << b.error << "\" rounds=" << b.rounds
                      << " informed=" << b.informed << " calls=" << b.total_calls
                      << " maxlen=" << b.max_call_length;
}

TEST(SymbolicParity, ReportsMatchStreamingForAllNUpTo24AcrossK234) {
  for (int n = 5; n <= 24; ++n) {
    for (int k = 2; k <= 4; ++k) {
      if (n <= k + 1) continue;
      const auto spec = design_sparse_hypercube(n, k);
      ValidationOptions opt;
      opt.k = spec.k();
      const auto sym = certify_broadcast_symbolic(spec, 0, opt);
      const auto stream = certify_broadcast_streaming(spec, 0, opt, 1);
      expect_same_report(stream.report, sym.report,
                         ("n=" + std::to_string(n) + " k=" + std::to_string(k))
                             .c_str());
      EXPECT_TRUE(sym.report.ok);
      EXPECT_TRUE(sym.report.minimum_time);
      EXPECT_GT(sym.checks.sampled_calls, 0u)
          << "bit-level spot checks must actually run";
      // Groups represent the full 2^n - 1 calls (the asymptotic
      // compression claim itself is asserted in SymbolicStats below).
      EXPECT_EQ(sym.report.total_calls, cube_order(n) - 1);
    }
  }
}

TEST(SymbolicParity, VertexDisjointModelMatchesToo) {
  for (const int n : {8, 12, 16}) {
    for (int k = 2; k <= 4; ++k) {
      const auto spec = design_sparse_hypercube(n, k);
      ValidationOptions opt;
      opt.k = spec.k();
      opt.require_vertex_disjoint = true;
      const auto sym = certify_broadcast_symbolic(spec, 0, opt);
      const auto stream = certify_broadcast_streaming(spec, 0, opt, 1);
      expect_same_report(stream.report, sym.report, "vertex-disjoint");
      EXPECT_TRUE(sym.report.ok);
    }
  }
}

TEST(SymbolicParity, NonzeroSourcesAndCustomCuts) {
  for (const auto& [n, cuts] : std::vector<std::pair<int, std::vector<int>>>{
           {10, {3}}, {12, {3, 6}}, {13, {2, 5, 9}}}) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    ValidationOptions opt;
    opt.k = spec.k();
    for (const Vertex source : {Vertex{0}, Vertex{1}, cube_order(n) - 1,
                                Vertex{0x2A} & (cube_order(n) - 1)}) {
      const auto sym = certify_broadcast_symbolic(spec, source, opt);
      const auto stream = certify_broadcast_streaming(spec, source, opt, 1);
      expect_same_report(stream.report, sym.report, "custom cuts/source");
      EXPECT_TRUE(sym.report.ok) << sym.report.error;
    }
  }
}

TEST(SymbolicExpansion, FromSymbolicValidatesIdenticallyAndCongestionMatches) {
  for (const int n : {8, 10, 12, 14}) {
    for (int k = 2; k <= 4; ++k) {
      const auto spec = design_sparse_hypercube(n, k);
      const SymbolicSchedule sym = make_symbolic_broadcast_schedule(spec, 0);
      const FlatSchedule expanded = FlatSchedule::from_symbolic(sym);
      const FlatSchedule direct = make_broadcast_schedule(spec, 0);

      // Same call multiset, possibly different order: reports and
      // order-insensitive congestion stats must agree exactly.
      EXPECT_EQ(expanded.num_calls(), direct.num_calls());
      EXPECT_EQ(expanded.num_path_vertices(), direct.num_path_vertices());

      const SpecView view(spec);
      ValidationOptions opt;
      opt.k = spec.k();
      expect_same_report(validate_broadcast(view, direct, opt),
                         validate_broadcast(view, expanded, opt), "expansion");

      const CongestionStats explicit_stats = analyze_congestion(expanded);
      const SymbolicCongestionReport symbolic = analyze_congestion_symbolic(sym);
      ASSERT_TRUE(symbolic.ok) << symbolic.error;
      EXPECT_TRUE(explicit_stats == symbolic.stats)
          << "n=" << n << " k=" << k
          << ": symbolic congestion diverged (distinct "
          << symbolic.stats.distinct_edges_used << " vs "
          << explicit_stats.distinct_edges_used << ", hops "
          << symbolic.stats.total_edge_hops << " vs "
          << explicit_stats.total_edge_hops << ")";
      EXPECT_EQ(explicit_stats, analyze_congestion(direct))
          << "expanded and direct schedules are the same multiset";
    }
  }
}

TEST(SymbolicBoundary, CertifiesTheFullRepresentationRangeN63) {
  // The overflow-audit boundary: 2^63 - 1 calls, 2^63 informed vertices.
  // construct_base(63, 6) keeps the subcube frontier small (lambda = 4),
  // so this certifies in seconds.
  const auto spec = SparseHypercubeSpec::construct_base(63, 6);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto cert = certify_broadcast_symbolic(spec, 0, opt);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.minimum_time);
  EXPECT_EQ(cert.report.rounds, 63);
  EXPECT_EQ(cert.report.total_calls, (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(cert.report.informed, std::uint64_t{1} << 63);
  EXPECT_EQ(cert.report.max_call_length, 2);
  EXPECT_GT(cert.checks.sampled_calls, 0u);
}

TEST(SymbolicBoundary, RejectsOversizedExpansionInsteadOfWrapping) {
  const auto spec = SparseHypercubeSpec::construct_base(40, 6);
  const SymbolicSchedule sym = make_symbolic_broadcast_schedule(spec, 0);
  EXPECT_THROW((void)FlatSchedule::from_symbolic(sym), std::invalid_argument);
}

TEST(SymbolicBoundary, SourceOutOfRangeMatchesStreamingReport) {
  const auto spec = design_sparse_hypercube(10, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto sym = certify_broadcast_symbolic(spec, cube_order(10), opt);
  EXPECT_FALSE(sym.report.ok);
  EXPECT_EQ(sym.report.error, "source out of range");
}

// ---- handcrafted violations ------------------------------------------

/// A clean materialized symbolic schedule to mutate.
SymbolicSchedule clean_schedule(int n = 10, int k = 2) {
  return make_symbolic_broadcast_schedule(design_sparse_hypercube(n, k), 0);
}

ValidationReport check(const SymbolicSchedule& s, int n = 10, int k = 2,
                       bool vertex_disjoint = false) {
  const auto spec = design_sparse_hypercube(n, k);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  opt.require_vertex_disjoint = vertex_disjoint;
  return validate_broadcast_symbolic(view, s, opt);
}

TEST(SymbolicViolations, UnsupportedModelOptionsFailExplicitly) {
  const auto spec = design_sparse_hypercube(10, 2);
  const SpecView view(spec);
  const auto sym = clean_schedule();
  for (auto mutate : {+[](ValidationOptions& o) { o.edge_capacity = 2; },
                      +[](ValidationOptions& o) { o.forbid_redundant_receivers = false; },
                      +[](ValidationOptions& o) { o.require_completion = false; }}) {
    ValidationOptions opt;
    opt.k = spec.k();
    mutate(opt);
    const auto rep = validate_broadcast_symbolic(view, sym, opt);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.error.find("symbolic validator requires"), std::string::npos);
  }
}

TEST(SymbolicViolations, CountMismatchIsMultiplicityAccountingError) {
  auto s = clean_schedule();
  s.rounds[2].groups[0].count += 1;
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("multiplicity accounting"), std::string::npos);
}

TEST(SymbolicViolations, UninformedCallerDetected) {
  auto s = clean_schedule();
  // Round 3's first group: translate its caller subcube into territory
  // the informed set cannot fully cover yet.
  s.rounds[3].groups[0].prefix ^= Vertex{1} << 8;
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("informed set"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, MissingCallerDetected) {
  auto s = clean_schedule();
  auto& round = s.rounds[3];
  round.groups.pop_back();
  round.group_pattern.pop_back();
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("tile"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, PatternNotStartingAtCallerDetected) {
  auto s = clean_schedule();
  auto& round = s.rounds[1];
  round.pattern_pool[round.pattern_off[round.group_pattern[0]]] ^= 1;
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("start at the caller"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, NonEdgeHopDetected) {
  // construct_base(10, 3): dimension 10 is owned by one label class, so
  // flipping the route onto a wrong dimension leaves the graph.
  const auto spec = SparseHypercubeSpec::construct_base(10, 3);
  auto s = make_symbolic_broadcast_schedule(spec, 0);
  // Rewrite round 1's (dim-10 sweep) first pattern: replace the final
  // hop's dimension with an absent edge by flipping a different high bit.
  auto& round = s.rounds[0];
  const std::uint32_t pid = round.group_pattern[0];
  const std::uint32_t last = round.pattern_off[pid + 1] - 1;
  round.pattern_pool[last] =
      round.pattern_pool[last - 1] ^ (Vertex{1} << 8);  // dim 9 of wrong owner?
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto rep = validate_broadcast_symbolic(view, s, opt);
  EXPECT_FALSE(rep.ok);
}

/// Appends `patt` as a fresh pattern of `round` and points group `g` at it.
void repoint_group(SymbolicRound& round, std::size_t g,
                   const std::vector<Vertex>& patt) {
  round.pattern_pool.insert(round.pattern_pool.end(), patt.begin(), patt.end());
  round.pattern_off.push_back(
      static_cast<std::uint32_t>(round.pattern_pool.size()));
  round.group_pattern[g] = static_cast<std::uint32_t>(round.num_patterns() - 1);
}

TEST(SymbolicViolations, OverlongPatternDetected) {
  auto s = clean_schedule();
  auto& round = s.rounds[1];
  // Extend group 0's pattern with a dim-1/dim-2 walk far past k = 2.
  const auto orig = round.pattern_of_group(0);
  std::vector<Vertex> patt(orig.begin(), orig.end());
  patt.push_back(patt.back() ^ 1);
  patt.push_back(patt.back() ^ 2);
  repoint_group(round, 0, patt);
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("length"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, IntraPathEdgeReuseDetected) {
  auto s = clean_schedule(10, 4);  // k = 4 leaves room for a longer walk
  auto& round = s.rounds[1];
  // Walk back over the pattern's own last edge: ... -> last -> previous.
  const auto orig = round.pattern_of_group(0);
  std::vector<Vertex> patt(orig.begin(), orig.end());
  patt.push_back(patt[patt.size() - 2]);
  repoint_group(round, 0, patt);
  const auto rep = check(s, 10, 4);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("reuses an edge"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, ReceiverCollisionSurfacesInTheEndgame) {
  auto s = clean_schedule();
  // Round 2: find the group whose callers include the source, and make
  // it re-walk round 1's route from the source — its receiver is then
  // round 1's receiver, a vertex that is already informed.  The
  // validator must refuse, whichever check fires first (span/support
  // discipline for merged groups, endgame multiset otherwise).
  const std::span<const Vertex> round0_patt = s.rounds[0].pattern_of_group(0);
  auto& round = s.rounds[1];
  std::size_t target = round.groups.size();
  for (std::size_t g = 0; g < round.groups.size(); ++g) {
    if (round.groups[g].callers().contains_vertex(0)) target = g;
  }
  ASSERT_LT(target, round.groups.size());
  round.pattern_pool.insert(round.pattern_pool.end(), round0_patt.begin(),
                            round0_patt.end());
  round.pattern_off.push_back(
      static_cast<std::uint32_t>(round.pattern_pool.size()));
  round.group_pattern[target] =
      static_cast<std::uint32_t>(round.num_patterns() - 1);
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
}

TEST(SymbolicViolations, TruncatedScheduleIsIncomplete) {
  auto s = clean_schedule();
  s.rounds.pop_back();
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("incomplete"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, EmptyRoundDetected) {
  auto s = clean_schedule();
  s.rounds[4].groups.clear();
  s.rounds[4].group_pattern.clear();
  const auto rep = check(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("empty round"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, FreeDimInsideSupportRequiresSplit) {
  // Hand-build a 2-round schedule on Q_3 (full cube spec: construct_base
  // with m = 2 has dims 3 governed): a group whose free mask intersects
  // the window of a governed dimension must be rejected.
  const auto spec = SparseHypercubeSpec::construct_base(6, 2);
  const SpecView view(spec);
  // Pick a governed dimension whose edge exists at the all-zero vertex.
  Dim governed = 0;
  for (Dim d = 3; d <= 6; ++d) {
    if (spec.has_edge_dim(0, d)) governed = d;
  }
  ASSERT_NE(governed, 0) << "Condition A guarantees some owned dimension";
  ASSERT_NE(spec.dim_support_mask(governed), 0u);
  SymbolicScheduleBuilder b(0, 6);
  b.begin_round();
  {
    CallGroup g;
    g.prefix = 0;
    g.free_mask = 0;
    g.count = 1;
    const Vertex patt[] = {0, dim_bit(governed)};
    b.end_call_group(g, patt);
  }
  b.end_round();
  auto s = std::move(b).take();
  // ...but claiming the whole window as free must fail the support check.
  s.rounds[0].groups[0].free_mask = mask_low(2);
  s.rounds[0].groups[0].count = 4;
  ValidationOptions opt;
  opt.k = spec.k();
  const auto rep = validate_broadcast_symbolic(view, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("support"), std::string::npos) << rep.error;
}

TEST(SymbolicViolations, IntraCallVertexRevisitRejectedInVertexDisjointModel) {
  // A cycle-walking pattern that revisits one of its own vertices over
  // distinct edges: legal in the edge-disjoint model, rejected by the
  // serial kernel's touched-set under vertex-disjointness — the
  // symbolic engine must agree.  Core dims of construct_base(6, 4) are
  // 1..4, so every hop below is a real edge.
  const auto spec = SparseHypercubeSpec::construct_base(6, 4);
  const SpecView view(spec);
  SymbolicScheduleBuilder b(16, 6);
  b.begin_round();
  {
    CallGroup g;
    g.prefix = 16;
    g.free_mask = 0;
    g.count = 1;
    // Relative walk 0 -> 1 -> 3 -> 7 -> 5 -> 1 -> 9: vertex 1 twice,
    // all six edges distinct.
    const Vertex patt[] = {0, 1, 3, 7, 5, 1, 9};
    b.end_call_group(g, patt);
  }
  b.end_round();
  const auto s = std::move(b).take();

  ValidationOptions opt;
  opt.k = 10;
  opt.require_vertex_disjoint = true;
  const auto vd = validate_broadcast_symbolic(view, s, opt);
  EXPECT_FALSE(vd.ok);
  EXPECT_NE(vd.error.find("revisits a vertex"), std::string::npos) << vd.error;

  // Edge-disjoint model: the pattern itself is fine (the schedule still
  // fails later for other reasons, but not on this clause).
  opt.require_vertex_disjoint = false;
  const auto ed = validate_broadcast_symbolic(view, s, opt);
  EXPECT_EQ(ed.error.find("revisits a vertex"), std::string::npos) << ed.error;
}

/// A spec's adjacency with one lie: has_edge denies every dimension-1
/// edge (u ^ v == 1), while has_edge_dim and the support masks still
/// tell the truth.  The algebra therefore accepts every group and only
/// the sampled concrete replay, which probes has_edge, can notice.
class DimOneEdgeLiar {
 public:
  explicit DimOneEdgeLiar(const SparseHypercubeSpec& spec) : view_(spec) {}
  [[nodiscard]] std::uint64_t num_vertices() const { return view_.num_vertices(); }
  [[nodiscard]] int cube_dim() const { return view_.cube_dim(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    return (u ^ v) != 1 && view_.has_edge(u, v);
  }
  [[nodiscard]] bool has_edge_dim(Vertex u, Dim i) const {
    return view_.has_edge_dim(u, i);
  }
  [[nodiscard]] Vertex dim_support_mask(Dim i) const {
    return view_.dim_support_mask(i);
  }

 private:
  SpecView view_;
};
static_assert(SymbolicOracle<DimOneEdgeLiar>);

ValidationReport certify_against_liar(const SparseHypercubeSpec& spec,
                                      const SymbolicCheckOptions& sopt) {
  const DimOneEdgeLiar liar(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  SymbolicBroadcastValidator<DimOneEdgeLiar> sink(liar, 0, opt, sopt);
  try {
    (void)emit_broadcast_rounds_symbolic(spec, 0, sink, sopt.max_frontier_subcubes);
  } catch (const std::exception&) {
    if (!sink.aborted()) throw;  // a producer failure is not the point here
  }
  return sink.finish();
}

TEST(SymbolicViolations, SampledReplayCatchesGraphDisagreement) {
  // The replay runs into the serial kernel's per-round sets; these cases
  // span a tiny cube under full sampling, a 2^26-vertex cube and a
  // 2^33-vertex one at the default sample.  Each error string is pinned
  // byte for byte: which call the kernel trips on depends only on the
  // seeded sample, never on how the kernel stores its sets.
  struct Case {
    SparseHypercubeSpec spec;
    std::uint64_t groups, calls;  // sample_*_per_round / _per_group
    const char* error;
  };
  const Case cases[] = {
      {SparseHypercubeSpec::construct_base(10, 3), 64, 64,
       "round 2: sampled concrete replay failed: round 2: no edge between 516 "
       "and 517"},
      {SparseHypercubeSpec::construct(26, {7}), 4, 4,
       "round 3: sampled concrete replay failed: round 3: no edge between "
       "16777280 and 16777281"},
      {SparseHypercubeSpec::construct(33, {7}), 4, 4,
       "round 4: sampled concrete replay failed: round 4: no edge between "
       "1073741888 and 1073741889"},
  };
  for (const Case& c : cases) {
    SymbolicCheckOptions sopt;
    sopt.sample_groups_per_round = c.groups;
    sopt.sample_calls_per_group = c.calls;
    const ValidationReport rep = certify_against_liar(c.spec, sopt);
    EXPECT_FALSE(rep.ok) << "n=" << c.spec.n();
    EXPECT_EQ(rep.error, c.error) << "n=" << c.spec.n();
  }
}

TEST(SymbolicScale, DesignedK2AtN32CertifiesWithoutCubeSizedScratch) {
  // The per-round sampled replay runs the serial kernel on at most
  // 4 x 4 calls.  With cube-sized vertex sets that meant zero-filling
  // 2^32-bit bitmaps every round (about 24 s and 1 GiB on a 4-vCPU VM);
  // sized to the sample, the whole certification takes milliseconds,
  // so this runs in every build.
  const auto spec = design_sparse_hypercube(32, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto cert = certify_broadcast_symbolic(spec, 0, opt);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_TRUE(cert.report.minimum_time);
  EXPECT_EQ(cert.checks.groups, 33338u);
  EXPECT_EQ(cert.checks.sampled_calls, 384u);
}

TEST(SymbolicThreads, ShardedGroupChecksReproduceTheSerialReport) {
  // With sopt.threads > 1 each round's checks run on a pooled worker
  // beside the frontier insert and the endgame's ledger walks shard over
  // the pool; the report must be bit-for-bit the single-thread one,
  // clean or failing.
  for (const int n : {12, 16}) {
    const auto spec = design_sparse_hypercube(n, 3);
    ValidationOptions opt;
    opt.k = spec.k();
    SymbolicCheckOptions serial;
    SymbolicCheckOptions sharded;
    sharded.threads = 4;
    const auto a = certify_broadcast_symbolic(spec, 0, opt, serial);
    const auto b = certify_broadcast_symbolic(spec, 0, opt, sharded);
    expect_same_report(a.report, b.report, "threads=4 vs threads=1 clean");
    ASSERT_TRUE(a.report.ok) << a.report.error;
  }
  // Failure parity: a dropped group trips the tiling check identically.
  auto bad = clean_schedule(10, 2);
  bad.rounds[3].groups.pop_back();
  bad.rounds[3].group_pattern.pop_back();
  const auto spec = design_sparse_hypercube(10, 2);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  SymbolicCheckOptions sharded;
  sharded.threads = 4;
  const auto serial_rep = validate_broadcast_symbolic(view, bad, opt);
  const auto sharded_rep = validate_broadcast_symbolic(view, bad, opt, sharded);
  EXPECT_FALSE(serial_rep.ok);
  expect_same_report(serial_rep, sharded_rep, "threads=4 vs threads=1 failing");
}

// ---- round batching: failing runs at every thread count ---------------

/// A run's report plus every SymbolicRunStats field.
struct RunOutcome {
  ValidationReport report;
  SymbolicRunStats stats;
};

RunOutcome run_spec(const SparseHypercubeSpec& spec, const SymbolicSchedule& s,
                    int threads) {
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  SymbolicCheckOptions sopt;
  sopt.threads = threads;
  RunOutcome out;
  out.report = validate_broadcast_symbolic(view, s, opt, sopt, &out.stats);
  return out;
}

RunOutcome run_at(const SymbolicSchedule& s, int threads, int n = 10, int k = 2) {
  return run_spec(design_sparse_hypercube(n, k), s, threads);
}

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b,
                         const std::string& what) {
  expect_same_report(a.report, b.report, what.c_str());
  EXPECT_EQ(a.stats.groups, b.stats.groups) << what;
  EXPECT_EQ(a.stats.peak_round_groups, b.stats.peak_round_groups) << what;
  EXPECT_EQ(a.stats.peak_frontier_subcubes, b.stats.peak_frontier_subcubes) << what;
  EXPECT_EQ(a.stats.final_frontier_subcubes, b.stats.final_frontier_subcubes) << what;
  EXPECT_EQ(a.stats.occupancy_claims, b.stats.occupancy_claims) << what;
  EXPECT_EQ(a.stats.sampled_calls, b.stats.sampled_calls) << what;
  EXPECT_EQ(a.stats.rounds_checked, b.stats.rounds_checked) << what;
  EXPECT_EQ(a.stats.union_cache_hits, b.stats.union_cache_hits) << what;
  EXPECT_EQ(a.stats.union_cache_misses, b.stats.union_cache_misses) << what;
}

/// The round of clean_schedule() the mutations below break: the first
/// with at least four groups, one of them (not the first) a subcube.
struct Target {
  std::size_t round = 0;
  std::size_t group = 0;
};

Target mid_round_subcube_group(const SymbolicSchedule& s) {
  for (std::size_t r = 1; r < s.rounds.size(); ++r) {
    const auto& groups = s.rounds[r].groups;
    if (groups.size() < 4) continue;
    for (std::size_t g = groups.size() / 2; g < groups.size(); ++g) {
      if (groups[g].free_mask != 0) return {r, g};
    }
  }
  ADD_FAILURE() << "no round with a mid-round subcube group";
  return {};
}

TEST(RoundBatch, FailingRunsAreIdenticalAtOneTwoAndFourThreads) {
  const auto clean = clean_schedule();
  const Target t = mid_round_subcube_group(clean);
  ASSERT_GT(t.round, 0u);

  // The run state a failure in round t.round must leave: the totals of
  // the rounds before it, then (for a bad group) the groups before the
  // bad one; the frontier as round t.round found it.
  SymbolicSchedule before = clean;
  before.rounds.resize(t.round);
  const RunOutcome prefix = run_at(before, 1);
  std::uint64_t calls_before_group = prefix.report.total_calls;
  for (std::size_t g = 0; g < t.group; ++g) {
    calls_before_group += clean.rounds[t.round].groups[g].count;
  }

  struct Case {
    const char* name;
    void (*mutate)(SymbolicSchedule&, const Target&);
    const char* error;
    bool group_clause;  ///< rejected by the per-group clauses
  };
  const Case cases[] = {
      {"widened mask",
       [](SymbolicSchedule& s, const Target& at) {
         CallGroup& g = s.rounds[at.round].groups[at.group];
         const Vertex pinned = ~g.free_mask & ~g.prefix & mask_low(10);
         g.free_mask |= pinned & (~pinned + 1);
       },
       "multiplicity accounting", true},
      {"widened mask, count fixed",
       [](SymbolicSchedule& s, const Target& at) {
         CallGroup& g = s.rounds[at.round].groups[at.group];
         const Vertex pinned = ~g.free_mask & ~g.prefix & mask_low(10);
         g.free_mask |= pinned & (~pinned + 1);
         g.count *= 2;
       },
       "", true},
      {"prefix inside the free mask",
       [](SymbolicSchedule& s, const Target& at) {
         CallGroup& g = s.rounds[at.round].groups[at.group];
         g.prefix |= g.free_mask & (~g.free_mask + 1);
       },
       "prefix sets bits inside its free mask", true},
      {"mask outside the cube",
       [](SymbolicSchedule& s, const Target& at) {
         CallGroup& g = s.rounds[at.round].groups[at.group];
         g.free_mask |= Vertex{1} << 12;
       },
       "out of range", true},
      {"dropped group",
       [](SymbolicSchedule& s, const Target& at) {
         auto& round = s.rounds[at.round];
         round.groups.erase(round.groups.begin() + static_cast<std::ptrdiff_t>(at.group));
         round.group_pattern.erase(round.group_pattern.begin() +
                                   static_cast<std::ptrdiff_t>(at.group));
       },
       "callers do not tile the informed set", false},
  };
  for (const Case& c : cases) {
    SymbolicSchedule bad = clean;
    c.mutate(bad, t);
    const RunOutcome serial = run_at(bad, 1);
    ASSERT_FALSE(serial.report.ok) << c.name;
    const std::string where = "round " + std::to_string(t.round + 1) + ": ";
    EXPECT_EQ(serial.report.error.rfind(where, 0), 0u) << c.name << ": " << serial.report.error;
    EXPECT_NE(serial.report.error.find(c.error), std::string::npos)
        << c.name << ": " << serial.report.error;
    EXPECT_EQ(serial.stats.final_frontier_subcubes, prefix.stats.final_frontier_subcubes)
        << c.name << ": the failing round's receivers must not stay in the frontier";
    EXPECT_EQ(serial.stats.peak_frontier_subcubes, prefix.stats.peak_frontier_subcubes)
        << c.name;
    EXPECT_EQ(serial.stats.rounds_checked, t.round) << c.name;
    if (c.group_clause) {
      // Totals stop at the first failing group, as when groups were
      // checked on arrival.
      EXPECT_EQ(serial.stats.groups, prefix.stats.groups + t.group) << c.name;
      EXPECT_EQ(serial.report.total_calls, calls_before_group) << c.name;
    }
    for (const int threads : {2, 4}) {
      expect_same_outcome(serial, run_at(bad, threads),
                          std::string(c.name) + ", threads=" + std::to_string(threads));
    }
  }
}

TEST(RoundBatch, MalformedReceiverNeverReachesTheFrontier) {
  // At two or more threads the receivers are inserted while the clauses
  // that reject their groups are still running, so the insert itself
  // must skip a receiver that is not a well-formed in-range subcube.
  // Had one reached SubcubeFrontier::insert, its own contract checks
  // (assert in Debug builds, SHC_AUDIT_CHECK in audit builds — the CI
  // sanitizer legs run both) would abort here.  In every build the
  // rejected round must leave the frontier exactly as it found it.
  const auto clean = clean_schedule();
  const Target t = mid_round_subcube_group(clean);
  const auto spec = design_sparse_hypercube(10, 2);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto sorted_entries = [](const SubcubeFrontier& f) {
    auto e = f.to_entries();
    std::sort(e.begin(), e.end(), [](const WeightedSubcube& a, const WeightedSubcube& b) {
      return a.prefix != b.prefix ? a.prefix < b.prefix : a.mask < b.mask;
    });
    return e;
  };
  const auto feed = [](SymbolicBroadcastValidator<SpecView>& v, const SymbolicRound& r) {
    v.begin_round();
    for (std::size_t g = 0; g < r.groups.size(); ++g) {
      v.end_call_group(r.groups[g], r.pattern_of_group(g));
    }
    v.end_round();
  };
  for (const int variant : {0, 1, 2}) {
    SymbolicSchedule bad = clean;
    auto& round = bad.rounds[t.round];
    CallGroup& g = round.groups[t.group];
    if (variant == 0) g.prefix |= g.free_mask & (~g.free_mask + 1);  // p & M != 0
    if (variant == 1) g.free_mask |= Vertex{1} << 12;                 // outside Q_10
    if (variant == 2) {
      // The route's last hop flips a free dimension of the group.
      const Vertex free_bit = g.free_mask & (~g.free_mask + 1);
      auto patt = round.pattern_of_group(t.group);
      const std::uint32_t last = round.pattern_off[round.group_pattern[t.group]] +
                                 static_cast<std::uint32_t>(patt.size()) - 1;
      round.pattern_pool[last] = patt[patt.size() - 2] ^ free_bit;
    }
    for (const int threads : {1, 2, 4}) {
      SymbolicCheckOptions sopt;
      sopt.threads = threads;
      SymbolicBroadcastValidator<SpecView> v(view, bad.source, opt, sopt);
      for (std::size_t r = 0; r < t.round; ++r) feed(v, bad.rounds[r]);
      ASSERT_FALSE(v.aborted());
      const auto before = sorted_entries(v.informed_frontier());
      feed(v, bad.rounds[t.round]);
      EXPECT_TRUE(v.aborted()) << "variant " << variant << " threads=" << threads;
      EXPECT_EQ(sorted_entries(v.informed_frontier()), before)
          << "variant " << variant << " threads=" << threads;
      EXPECT_EQ(v.informed_frontier().total_count(), std::uint64_t{1} << t.round);
    }
  }
}

SymbolicSchedule q3_two_group_schedule(const std::vector<Vertex>& patt_a,
                                       const std::vector<Vertex>& patt_b);

TEST(RoundBatch, CollidingRoundGetsItsFrontierBack) {
  // Round 2's callers 0 and 1 tile the informed set, but their calls
  // 0 -> 2 -> 6 and 1 -> 3 -> 2 -> 0 cross edge {0, 2}.  The engine job
  // inserts the receivers before the collision check rejects the round,
  // at one thread as at several, so the rejected round must restore the
  // frontier it found.
  const auto s = q3_two_group_schedule({0, 2, 6}, {0, 2, 3, 1});
  const CubeOracle oracle(3);
  ValidationOptions opt;
  opt.k = 3;
  for (const int threads : {1, 2, 4}) {
    SymbolicCheckOptions sopt;
    sopt.threads = threads;
    SymbolicBroadcastValidator<CubeOracle> v(oracle, s.source, opt, sopt);
    for (const SymbolicRound& r : s.rounds) {
      const auto before = v.informed_frontier().to_entries();
      v.begin_round();
      for (std::size_t g = 0; g < r.groups.size(); ++g) {
        v.end_call_group(r.groups[g], r.pattern_of_group(g));
      }
      v.end_round();
      if (!v.aborted()) continue;
      EXPECT_EQ(v.informed_frontier().to_entries(), before) << "threads=" << threads;
      EXPECT_EQ(v.informed_frontier().total_count(), 2u) << "threads=" << threads;
    }
    const auto rep = v.finish();
    EXPECT_EQ(rep.error, "round 2: edge collision between concurrent call groups")
        << "threads=" << threads;
    EXPECT_EQ(v.stats().rounds_checked, 1u) << "threads=" << threads;
  }
}

// ---- handcrafted collisions against the exact validator ----------------

/// Hand-built Q_3 schedule on the full-cube oracle: round 1 informs
/// vertex 1; round 2's two groups walk the given patterns from callers
/// 0 and 1 (which tile the informed set, so the collision clauses are
/// what decides).
SymbolicSchedule q3_two_group_schedule(const std::vector<Vertex>& patt_a,
                                       const std::vector<Vertex>& patt_b) {
  SymbolicScheduleBuilder b(0, 3);
  b.begin_round();
  CallGroup g;
  g.prefix = 0;
  g.free_mask = 0;
  g.count = 1;
  const Vertex first[] = {0, 1};
  b.end_call_group(g, first);
  b.end_round();
  b.begin_round();
  b.end_call_group(g, patt_a);
  g.prefix = 1;
  b.end_call_group(g, patt_b);
  b.end_round();
  return std::move(b).take();
}

/// Expands `s` call for call and checks that the exact serial validator
/// rejects it too, in the round the symbolic engine named.
void expect_exact_rejects_in_same_round(const SymbolicSchedule& s,
                                        const ValidationOptions& opt,
                                        const ValidationReport& sym) {
  const CubeOracle oracle(s.n);
  const auto exact =
      validate_broadcast(oracle, FlatSchedule::from_symbolic(s), opt);
  EXPECT_FALSE(exact.ok);
  EXPECT_EQ(exact.rounds, sym.rounds) << exact.error;
  const std::string prefix = "round " + std::to_string(sym.rounds) + ": ";
  EXPECT_EQ(exact.error.rfind(prefix, 0), 0u) << exact.error;
}

TEST(HandcraftedCollisions, EdgeCollisionRejectedLikeTheExactValidator) {
  // A: 0 -> 2 -> 6 uses edge {0, 2}; B: 1 -> 3 -> 2 -> 0 re-crosses it
  // on its last hop.
  const auto s = q3_two_group_schedule({0, 2, 6}, {0, 2, 3, 1});
  const CubeOracle oracle(3);
  ValidationOptions opt;
  opt.k = 3;
  const auto rep = validate_broadcast_symbolic(oracle, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, "round 2: edge collision between concurrent call groups");
  expect_exact_rejects_in_same_round(s, opt, rep);
}

TEST(HandcraftedCollisions, VertexCollisionRejectedLikeTheExactValidator) {
  // A: 0 -> 2 -> 6 and B: 1 -> 3 -> 2 share vertex 2 over disjoint
  // edges: legal in the edge-disjoint model, a collision under the
  // Section-5 vertex-disjoint model.
  const auto s = q3_two_group_schedule({0, 2, 6}, {0, 2, 3});
  const CubeOracle oracle(3);
  ValidationOptions opt;
  opt.k = 3;

  opt.require_vertex_disjoint = true;
  const auto rep = validate_broadcast_symbolic(oracle, s, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error,
            "round 2: vertex collision between concurrent call groups "
            "(vertex-disjoint model)");
  expect_exact_rejects_in_same_round(s, opt, rep);

  // Edge-disjoint model: no collision clause fires; the schedule still
  // fails later, as incomplete, with the exact validator's report.
  opt.require_vertex_disjoint = false;
  const auto fallthrough = validate_broadcast_symbolic(oracle, s, opt);
  EXPECT_EQ(fallthrough.error, "incomplete: informed 4 of 8");
  expect_same_report(
      validate_broadcast(oracle, FlatSchedule::from_symbolic(s), opt),
      fallthrough, "edge-disjoint fallthrough");
}

TEST(SymbolicViolations, DimensionMismatchRefusedBeforeAnyValidatorIsBuilt) {
  // The driver checks the schedule's dimension first: with a worker
  // count the validator's pool would reject, the answer is still the
  // mismatch report, not an exception from building the validator.
  const auto spec = design_sparse_hypercube(6, 2);
  const auto s = make_symbolic_broadcast_schedule(spec, 0);
  const CubeOracle oracle(7);
  ValidationOptions opt;
  opt.k = spec.k();
  SymbolicCheckOptions sopt;
  sopt.threads = kMaxCheckThreads + 1;
  SymbolicRunStats stats;
  stats.groups = 1;
  const auto rep = validate_broadcast_symbolic(oracle, s, opt, sopt, &stats);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error, "symbolic schedule dimension 6 does not match the oracle's 7");
  EXPECT_EQ(stats.groups, 0u);
}

// ---- budget-exhaustion diagnostics ------------------------------------

TEST(BudgetDiagnostics, LedgerBudgetMessageNamesRoundBudgetAndKnob) {
  // Q_3 hand-built so that round 3's dimension-3 edge family puts two
  // claims into one ledger bucket (singleton callers 1 and 3 agree on
  // the varying bucket bit), which a zero budget cannot walk.  The
  // groups tile the frontier entry {0, mask 11}, so the caller tiling
  // accepts them and the collision clause is what decides.
  SymbolicScheduleBuilder b(0, 3);
  CallGroup g;
  g.prefix = 0;
  g.free_mask = 0;
  g.count = 1;
  {
    const Vertex patt[] = {0, 1};
    b.begin_round();
    b.end_call_group(g, patt);
    b.end_round();
  }
  {
    const Vertex patt[] = {0, 2};
    b.begin_round();
    g.free_mask = 1;
    g.count = 2;
    b.end_call_group(g, patt);
    b.end_round();
  }
  {
    b.begin_round();
    const Vertex wide[] = {0, 4};
    g.free_mask = 2;
    g.count = 2;
    g.prefix = 0;
    b.end_call_group(g, wide);  // {0,2} -> {4,6}
    g.free_mask = 0;
    g.count = 1;
    g.prefix = 1;
    b.end_call_group(g, wide);  // 1 -> 5
    g.prefix = 3;
    const Vertex two_hop[] = {0, 4, 5};
    b.end_call_group(g, two_hop);  // 3 -> 7 -> 6 (multihop round)
    b.end_round();
  }
  const auto s = std::move(b).take();
  const CubeOracle oracle(3);
  ValidationOptions opt;
  opt.k = 2;

  SymbolicCheckOptions starved;
  starved.ledger_budget_per_claim = 0;
  starved.ledger_bucket_budget_base = 0;
  const auto rep = validate_broadcast_symbolic(oracle, s, opt, starved);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error,
            "round 3: collision analysis exceeded its budget (ledger bucket "
            "budget 0; raise SymbolicCheckOptions::ledger_budget_per_claim)");
}

TEST(BudgetDiagnostics, EndgameLedgerMessageNamesBudgetAndKnob) {
  // Q_3 hand-built with single-hop rounds only (no collision check), so
  // that the final frontier is a tiling no sibling merge can shrink:
  // {00*}, {1*0}, {*11}, {010}, {101}.  Those five entries pin no bit
  // in common, so the endgame puts them into one ledger bucket, which a
  // zero budget cannot walk.
  SymbolicScheduleBuilder b(0, 3);
  CallGroup g;
  g.free_mask = 0;
  g.count = 1;
  const auto call = [&](Vertex caller, Vertex flip) {
    g.prefix = caller;
    const Vertex patt[] = {0, flip};
    b.end_call_group(g, patt);
  };
  b.begin_round();
  call(0b000, 0b001);
  b.end_round();
  b.begin_round();
  call(0b000, 0b100);
  call(0b001, 0b010);
  b.end_round();
  b.begin_round();
  call(0b100, 0b010);
  call(0b011, 0b100);
  call(0b000, 0b010);
  call(0b001, 0b100);
  b.end_round();
  const auto s = std::move(b).take();
  const CubeOracle oracle(3);
  ValidationOptions opt;
  opt.k = 1;

  // Sane budgets: the schedule is a clean minimum-time broadcast.
  SymbolicRunStats stats;
  const auto ok = validate_broadcast_symbolic(oracle, s, opt, {}, &stats);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_TRUE(ok.minimum_time);
  EXPECT_EQ(stats.final_frontier_subcubes, 5u);

  SymbolicCheckOptions starved;
  starved.ledger_budget_per_claim = 0;
  starved.ledger_bucket_budget_base = 0;
  const auto rep = validate_broadcast_symbolic(oracle, s, opt, starved);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.error,
            "endgame occupancy check exceeded its budget (ledger bucket "
            "budget 0; raise SymbolicCheckOptions::ledger_budget_per_claim)");
}

// ---- one informed set per run ----------------------------------------

static_assert(InformedFrontierSink<SymbolicBroadcastValidator<SpecView>>,
              "the validator lends its informed frontier to the producer");
static_assert(!InformedFrontierSink<SymbolicScheduleBuilder>,
              "the builder keeps no frontier: the producer owns one");

void expect_same_stats(const SymbolicRunStats& a, const SymbolicRunStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.groups, b.groups) << what;
  EXPECT_EQ(a.peak_round_groups, b.peak_round_groups) << what;
  EXPECT_EQ(a.peak_frontier_subcubes, b.peak_frontier_subcubes) << what;
  EXPECT_EQ(a.final_frontier_subcubes, b.final_frontier_subcubes) << what;
  EXPECT_EQ(a.occupancy_claims, b.occupancy_claims) << what;
  EXPECT_EQ(a.sampled_calls, b.sampled_calls) << what;
  EXPECT_EQ(a.rounds_checked, b.rounds_checked) << what;
}

/// certify_broadcast_symbolic (the producer walks the validator's
/// frontier) against building the schedule with the producer's own
/// frontier and validating it afterwards: reports, validator stats and
/// producer stats must all coincide.
void expect_shared_matches_owned(const SparseHypercubeSpec& spec, Vertex source,
                                 bool vertex_disjoint, int threads) {
  const std::string what = "n=" + std::to_string(spec.n()) +
                           " k=" + std::to_string(spec.k()) +
                           " source=" + std::to_string(source) +
                           " vd=" + std::to_string(vertex_disjoint) +
                           " threads=" + std::to_string(threads);
  ValidationOptions opt;
  opt.k = spec.k();
  opt.require_vertex_disjoint = vertex_disjoint;
  SymbolicCheckOptions sopt;
  sopt.threads = threads;

  const auto shared = certify_broadcast_symbolic(spec, source, opt, sopt);

  SymbolicScheduleBuilder builder(source, spec.n());
  const SymbolicProducerStats owned_producer =
      emit_broadcast_rounds_symbolic(spec, source, builder);
  SymbolicRunStats owned_checks;
  const auto owned_report = validate_broadcast_symbolic(
      SpecView(spec), builder.schedule(), opt, sopt, &owned_checks);

  expect_same_report(owned_report, shared.report, what.c_str());
  EXPECT_TRUE(shared.report.ok) << what << ": " << shared.report.error;
  expect_same_stats(owned_checks, shared.checks, what);
  EXPECT_EQ(owned_producer.groups_emitted, shared.producer.groups_emitted) << what;
  EXPECT_EQ(owned_producer.split_groups, shared.producer.split_groups) << what;
  EXPECT_EQ(owned_producer.peak_frontier_subcubes,
            shared.producer.peak_frontier_subcubes) << what;
  EXPECT_EQ(owned_producer.final_frontier_subcubes,
            shared.producer.final_frontier_subcubes) << what;
}

TEST(SharedFrontier, MatchesOwnedFrontierForAllNUpTo24AcrossK234) {
  for (int n = 5; n <= 24; ++n) {
    for (int k = 2; k <= 4; ++k) {
      if (n <= k + 1) continue;
      expect_shared_matches_owned(design_sparse_hypercube(n, k), 0, false, 1);
    }
  }
}

TEST(SharedFrontier, MatchesOwnedFrontierForSourcesCutsModelAndThreads) {
  for (const auto& [n, cuts] : std::vector<std::pair<int, std::vector<int>>>{
           {10, {3}}, {12, {3, 6}}, {13, {2, 5, 9}}, {16, {3, 7}}}) {
    const auto spec = SparseHypercubeSpec::construct(n, cuts);
    for (const Vertex source : {Vertex{0}, Vertex{1}, cube_order(n) - 1,
                                Vertex{0x2A} & (cube_order(n) - 1)}) {
      for (const bool vertex_disjoint : {false, true}) {
        for (const int threads : {1, 2, 4}) {
          expect_shared_matches_owned(spec, source, vertex_disjoint, threads);
        }
      }
    }
  }
  for (const int threads : {1, 2, 4}) {
    expect_shared_matches_owned(design_sparse_hypercube(20, 3), 5, true, threads);
  }
}

/// Forwards every call to a validator but lends the producer a tampered
/// copy of the validator's round snapshot from round `from_round` on:
/// one entry dropped, or half of one entry listed a second time.
class TamperingSink {
 public:
  enum class Tamper { kDrop, kDuplicate };

  TamperingSink(SymbolicBroadcastValidator<SpecView>& inner, Tamper how,
                std::uint64_t from_round)
      : inner_(inner), how_(how), from_round_(from_round) {}

  void begin_round() {
    ++round_;
    inner_.begin_round();
    if (round_ < from_round_) return;
    copy_.emplace(inner_.informed_frontier().n());
    bool tampered = false;
    for (const WeightedSubcube& e : inner_.informed_set().round()) {
      if (!tampered && e.mask != 0) {
        tampered = true;
        if (how_ == Tamper::kDrop) continue;
        copy_->insert(e.prefix, e.mask & (e.mask - 1));  // drop the lowest free bit
      }
      copy_->insert(e.prefix, e.mask);
    }
    EXPECT_TRUE(tampered) << "no multi-vertex entry to tamper with";
    copy_->snapshot();
  }
  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    inner_.end_call_group(g, pattern);
  }
  void end_round() { inner_.end_round(); }
  [[nodiscard]] bool aborted() const { return inner_.aborted(); }

  [[nodiscard]] const InformedSet& informed_set() const {
    return copy_ ? *copy_ : inner_.informed_set();
  }

 private:
  SymbolicBroadcastValidator<SpecView>& inner_;
  Tamper how_;
  std::uint64_t from_round_;
  std::uint64_t round_ = 0;
  std::optional<InformedSet> copy_;
};

static_assert(InformedFrontierSink<TamperingSink>);

TEST(SharedFrontier, TamperedFrontierStillFailsTheCallerTiling) {
  // The producer's choice of frontier never reaches the verdict: the
  // validator tiles the groups against its own informed set.
  const auto spec = design_sparse_hypercube(14, 3);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  for (const int threads : {1, 4}) {
    SymbolicCheckOptions sopt;
    sopt.threads = threads;
    {
      SymbolicBroadcastValidator<SpecView> validator(view, 0, opt, sopt);
      TamperingSink sink(validator, TamperingSink::Tamper::kDrop, 4);
      emit_broadcast_rounds_symbolic(spec, 0, sink);
      const auto rep = validator.finish();
      EXPECT_FALSE(rep.ok);
      EXPECT_EQ(rep.error,
                "round 4: callers do not tile the informed set (some informed "
                "vertex places no call)");
    }
    {
      SymbolicBroadcastValidator<SpecView> validator(view, 0, opt, sopt);
      TamperingSink sink(validator, TamperingSink::Tamper::kDuplicate, 4);
      emit_broadcast_rounds_symbolic(spec, 0, sink);
      const auto rep = validator.finish();
      EXPECT_FALSE(rep.ok);
      EXPECT_EQ(rep.error,
                "round 4: caller group outside the informed set (uninformed "
                "caller or a vertex calling twice)");
    }
  }
}

TEST(SharedFrontier, SinkFrontierMustStartAtTheSource) {
  const auto spec = design_sparse_hypercube(10, 2);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  SymbolicBroadcastValidator<SpecView> validator(view, 3, opt);
  EXPECT_THROW(emit_broadcast_rounds_symbolic(spec, 5, validator),
               std::invalid_argument);
}

// ---- in-order caller tiling --------------------------------------------

/// `s` with every round's groups put in the order `order(&indices)`
/// leaves their indices; each group keeps its pattern.
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

SymbolicSchedule reversed_groups(const SymbolicSchedule& s) {
  return permute_groups(s, [](std::vector<std::size_t>& idx) {
    std::reverse(idx.begin(), idx.end());
  });
}

SymbolicSchedule shuffled_groups(const SymbolicSchedule& s, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return permute_groups(s, [&](std::vector<std::size_t>& idx) {
    std::shuffle(idx.begin(), idx.end(), rng);
  });
}

/// Replaces group `gi` of `round` by `pieces` (each with the group's
/// pattern), in the given order.
void replace_group(SymbolicRound& round, std::size_t gi, const std::vector<CallGroup>& pieces) {
  const std::uint32_t pattern = round.group_pattern[gi];
  const auto at = static_cast<std::ptrdiff_t>(gi);
  round.groups.erase(round.groups.begin() + at);
  round.group_pattern.erase(round.group_pattern.begin() + at);
  round.groups.insert(round.groups.begin() + at, pieces.begin(), pieces.end());
  round.group_pattern.insert(round.group_pattern.begin() + at, pieces.size(), pattern);
}

/// `g` split on the free bits `bits` into 2^|bits| pieces, in the
/// producer's ascending enumeration of the split assignments.
std::vector<CallGroup> split_group(const CallGroup& g, Vertex bits) {
  std::vector<CallGroup> pieces;
  const Vertex rest = g.free_mask & ~bits;
  for (Vertex a = 0;; a = (a - bits) & bits) {
    pieces.push_back({g.prefix | a, rest, std::uint64_t{1} << weight(rest)});
    if (a == bits) break;
  }
  return pieces;
}

/// `s` with every group of every round that has a free dim split on its
/// highest one, the two pieces in ascending order.  A piece's calls
/// follow its group's pattern, so the schedule makes the same calls.
SymbolicSchedule split_on_highest_free_bit(SymbolicSchedule s) {
  for (SymbolicRound& round : s.rounds) {
    for (std::size_t gi = round.groups.size(); gi-- > 0;) {
      const CallGroup g = round.groups[gi];
      if (g.free_mask == 0) continue;
      replace_group(round, gi,
                    split_group(g, Vertex{1} << (63 - std::countl_zero(g.free_mask))));
    }
  }
  return s;
}

/// The caller_tiling_fallback counter of every round `run()` checks.
template <class Run>
std::vector<std::uint64_t> tiling_fallbacks(Run&& run) {
  obs::TraceSession session({});
  run();
  std::vector<std::uint64_t> out;
  for (const obs::TraceEvent& e : session.recorder().merged_events()) {
    if (e.kind == obs::EventKind::kCounter &&
        std::string_view(e.name) == "caller_tiling_fallback") {
      out.push_back(e.value);
    }
  }
  return out;
}

TEST(InOrderTiling, ReorderedAndResplitRoundsGetTheExactVerdict) {
  // The same calls in another group order, or split on other free bits,
  // are the same schedule of the paper's model: the symbolic verdict
  // must be the exact validator's on the expanded schedule, at every
  // thread count.  Reordering and re-splitting change how the
  // receivers coalesce, so these rounds are decided by the normal forms.
  for (const int n : {10, 12, 16}) {
    for (const int k : {2, 3}) {
      const auto spec = design_sparse_hypercube(n, k);
      const SpecView view(spec);
      ValidationOptions opt;
      opt.k = spec.k();
      const SymbolicSchedule in_order = make_symbolic_broadcast_schedule(spec, 0);
      const std::string name = "n=" + std::to_string(n) + " k=" + std::to_string(k);
      for (const auto& [how, schedule] :
           {std::pair{"reversed", reversed_groups(in_order)},
            std::pair{"shuffled 1", shuffled_groups(in_order, 1)},
            std::pair{"shuffled 2", shuffled_groups(in_order, 0xC0FFEE)},
            std::pair{"shuffled 3", shuffled_groups(in_order, 0xBADC0DE)},
            std::pair{"split on the highest free bit", split_on_highest_free_bit(in_order)}}) {
        const ValidationReport exact =
            validate_broadcast(view, FlatSchedule::from_symbolic(schedule), opt);
        ASSERT_TRUE(exact.ok && exact.minimum_time) << name << ", " << how << ": " << exact.error;
        for (const int threads : {1, 2, 4}) {
          const ValidationReport rep = run_spec(spec, schedule, threads).report;
          const std::string what =
              name + ", " + how + ", threads=" + std::to_string(threads) + ": " + rep.error;
          EXPECT_EQ(rep.ok, exact.ok) << what;
          EXPECT_EQ(rep.rounds, exact.rounds) << what;
          EXPECT_EQ(rep.minimum_time, exact.minimum_time) << what;
          EXPECT_EQ(rep.total_calls, exact.total_calls) << what;
        }
      }
    }
  }
}

TEST(InOrderTiling, DroppedGroupErrorIsTheSameInEveryOrderAndAtEveryThreadCount) {
  const auto spec = design_sparse_hypercube(12, 3);
  const SpecView view(spec);
  ValidationOptions opt;
  opt.k = spec.k();
  const SymbolicSchedule clean = make_symbolic_broadcast_schedule(spec, 0);
  const Target t = mid_round_subcube_group(clean);
  SymbolicSchedule bad = clean;
  replace_group(bad.rounds[t.round], t.group, {});
  ASSERT_FALSE(validate_broadcast(view, FlatSchedule::from_symbolic(bad), opt).ok);
  const std::string want = "round " + std::to_string(t.round + 1) +
                           ": callers do not tile the informed set (some informed "
                           "vertex places no call)";
  for (const auto& [how, schedule] :
       {std::pair{"group order", bad}, std::pair{"reversed", reversed_groups(bad)},
        std::pair{"shuffled", shuffled_groups(bad, 0xC0FFEE)}}) {
    for (const int threads : {1, 2, 4}) {
      const ValidationReport rep = run_spec(spec, schedule, threads).report;
      EXPECT_FALSE(rep.ok) << how << ", threads=" << threads;
      EXPECT_EQ(rep.error, want) << how << ", threads=" << threads;
    }
  }
}

TEST(InOrderTiling, SplitPiecesOutOfAscendingOrderAreAccepted) {
  const auto spec = design_sparse_hypercube(12, 3);
  const SymbolicSchedule clean = make_symbolic_broadcast_schedule(spec, 0);
  const Target t = mid_round_subcube_group(clean);
  const CallGroup g = clean.rounds[t.round].groups[t.group];
  const Vertex low = g.free_mask & (~g.free_mask + 1);

  SymbolicSchedule ascending = clean;
  replace_group(ascending.rounds[t.round], t.group, split_group(g, low));
  std::vector<CallGroup> pieces = split_group(g, low);
  std::swap(pieces[0], pieces[1]);
  SymbolicSchedule swapped = clean;
  replace_group(swapped.rounds[t.round], t.group, pieces);

  const RunOutcome want = run_spec(spec, ascending, 1);
  ASSERT_TRUE(want.report.ok) << want.report.error;
  for (const int threads : {1, 2, 4}) {
    expect_same_outcome(want, run_spec(spec, swapped, threads),
                        "swapped pieces, threads=" + std::to_string(threads));
  }
  const auto fallbacks = tiling_fallbacks([&] { static_cast<void>(run_spec(spec, swapped, 1)); });
  ASSERT_GT(fallbacks.size(), t.round);
  EXPECT_EQ(fallbacks[t.round], 1u) << "the swapped round is decided by the normal forms";
  EXPECT_EQ(tiling_fallbacks([&] { static_cast<void>(run_spec(spec, ascending, 1)); }),
            std::vector<std::uint64_t>(clean.rounds.size(), 0))
      << "ascending pieces are the merge's own order";
}

TEST(InOrderTiling, InOrderDuplicatedPieceFailsAsACallerOutsideTheInformedSet) {
  const auto clean = clean_schedule();
  const Target t = mid_round_subcube_group(clean);
  SymbolicSchedule bad = clean;
  const CallGroup g = clean.rounds[t.round].groups[t.group];
  replace_group(bad.rounds[t.round], t.group, {g, g});
  const RunOutcome serial = run_at(bad, 1);
  EXPECT_EQ(serial.report.error,
            "round " + std::to_string(t.round + 1) +
                ": caller group outside the informed set (uninformed caller or "
                "a vertex calling twice)");
  for (const int threads : {2, 4}) {
    expect_same_outcome(serial, run_at(bad, threads),
                        "duplicated piece, threads=" + std::to_string(threads));
  }
}

TEST(InOrderTiling, ProducedRoundsNeverFallBackAndShuffledOnesDo) {
  for (const int threads : {1, 2}) {
    const auto spec = design_sparse_hypercube(16, 2);
    ValidationOptions opt;
    opt.k = spec.k();
    SymbolicCheckOptions sopt;
    sopt.threads = threads;
    int rounds = 0;
    const auto produced = tiling_fallbacks([&] {
      const auto cert = certify_broadcast_symbolic(spec, 0, opt, sopt);
      EXPECT_TRUE(cert.report.ok) << cert.report.error;
      rounds = cert.report.rounds;
    });
    EXPECT_EQ(produced, std::vector<std::uint64_t>(static_cast<std::size_t>(rounds), 0))
        << "threads=" << threads;

    const SymbolicSchedule schedule = make_symbolic_broadcast_schedule(spec, 0);
    EXPECT_EQ(tiling_fallbacks([&] { static_cast<void>(run_spec(spec, schedule, threads)); }),
              produced)
        << "a materialized schedule replays in the producer's order, threads=" << threads;
    const auto shuffled = tiling_fallbacks(
        [&] { static_cast<void>(run_spec(spec, shuffled_groups(schedule, 7), threads)); });
    EXPECT_EQ(shuffled.size(), static_cast<std::size_t>(rounds));
    EXPECT_GT(std::accumulate(shuffled.begin(), shuffled.end(), std::uint64_t{0}), 0u)
        << "threads=" << threads;
  }
}

TEST(SymbolicStats, GroupCompressionIsPolynomialWhileCallsAreExponential) {
  // n = 24, k = 2: 2^24 - 1 calls out of ~5k groups.
  const auto spec = design_sparse_hypercube(24, 2);
  ValidationOptions opt;
  opt.k = spec.k();
  const auto cert = certify_broadcast_symbolic(spec, 0, opt);
  ASSERT_TRUE(cert.report.ok) << cert.report.error;
  EXPECT_EQ(cert.report.total_calls, cube_order(24) - 1);
  EXPECT_LT(cert.checks.groups, 100000u);
  EXPECT_LT(cert.checks.peak_frontier_subcubes, 20000u);
  EXPECT_EQ(cert.producer.final_frontier_subcubes,
            cert.checks.final_frontier_subcubes);
}

/// Checks every group of the produced schedule against a fresh
/// route_flip of its representative caller, in XOR form.  Returns the
/// longest pattern seen, and sets `collided` when some round holds two
/// distinct route keys (prefix & mask_low(c_t)) that share a RouteCache
/// slot.
std::size_t expect_groups_carry_their_routes(const SparseHypercubeSpec& spec, Vertex source,
                                             bool& collided) {
  const SymbolicSchedule sched = make_symbolic_broadcast_schedule(spec, source);
  const std::size_t slots = std::size_t{1} << detail::RouteCache::kMaxBits;
  std::size_t longest = 0;
  for (std::size_t r = 0; r < sched.rounds.size(); ++r) {
    const Dim i = spec.n() - static_cast<int>(r);
    const int t = spec.level_of_dim(i);
    const Vertex low = t < 0 ? 0 : mask_low(spec.cuts()[static_cast<std::size_t>(t)]);
    std::vector<Vertex> owner(slots, ~Vertex{0});
    const SymbolicRound& round = sched.rounds[r];
    for (std::size_t g = 0; g < round.groups.size(); ++g) {
      const Vertex u = round.groups[g].prefix;
      std::vector<Vertex> expect = route_flip(spec, u, i);
      for (Vertex& v : expect) v ^= u;
      const std::span<const Vertex> got = round.pattern_of_group(g);
      if (!std::equal(got.begin(), got.end(), expect.begin(), expect.end())) {
        ADD_FAILURE() << "n " << spec.n() << " source " << source << " round " << r
                      << " group " << g << ": pattern is not the XOR form of route_flip";
        return longest;
      }
      longest = std::max(longest, got.size());
      Vertex& held = owner[(u & low) & (slots - 1)];
      if (held != ~Vertex{0} && held != (u & low)) collided = true;
      held = u & low;
    }
  }
  return longest;
}

TEST(SymbolicProducer, EveryGroupCarriesTheXorFormOfItsRoute) {
  // The producer looks each group's route up in a per-round cache keyed
  // by the caller's bits below the governing cut.  Every emitted
  // pattern must still be exactly route_flip(spec, prefix, i) relative
  // to the prefix.
  bool collided = false;
  // construct(n, [7]) from a source of every label of the 7-bit window.
  for (const int n : {8, 13, 20}) {
    const SparseHypercubeSpec spec = SparseHypercubeSpec::construct(n, {7});
    std::vector<bool> seen(spec.levels()[0].labeling.num_labels(), false);
    for (Vertex w = 0; w < (Vertex{1} << 7); ++w) {
      const Label label = spec.label_at(w, 0);
      if (seen[label]) continue;
      seen[label] = true;
      const Vertex source = (w | (Vertex{0x55} << 7)) & mask_low(n);
      expect_groups_carry_their_routes(spec, source, collided);
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; })) << n;
  }
  // Two designed specs.
  for (const auto& [n, k] : {std::pair{16, 3}, std::pair{20, 4}}) {
    const SparseHypercubeSpec spec = design_sparse_hypercube(n, k);
    expect_groups_carry_their_routes(spec, Vertex{0x2c5} & mask_low(n), collided);
  }
  EXPECT_FALSE(collided) << "windows up to 12 bits get one slot per key";
  // Custom cuts: a 13-bit window is wider than the cache, so keys share
  // slots, and the top levels' routes (up to 9 vertices) outgrow a slot.
  const SparseHypercubeSpec wide = SparseHypercubeSpec::construct(18, {2, 4, 6, 8, 10, 13, 15});
  std::size_t longest = 0;
  for (const Vertex source : {Vertex{0}, Vertex{0x2b6d5}}) {
    longest = std::max(longest, expect_groups_carry_their_routes(wide, source, collided));
  }
  EXPECT_GT(longest, detail::RouteCache::kSlotLen) << "no route longer than a cache slot";
  EXPECT_TRUE(collided) << "no two route keys shared a cache slot";
}

}  // namespace
}  // namespace shc
