// Symbolic gossip — certifying all-to-all exchange past the 2^13 wall.
//
// The exact gossip validator tracks N^2 knowledge bits (N <= 2^13).  The
// symbolic engine certifies gossip completion *algebraically* on the same
// subcube-batched CallGroup rounds the broadcast engine uses, via two
// cooperating layers:
//
//   * structure (this file + sim/symbolic_validator.hpp): every group
//     passes the shared symbolic clauses (pattern well-formedness,
//     support discipline, representative edges, count == subcube size);
//     per round, the 2R endpoint subcubes must be pairwise disjoint
//     (gossip's endpoint-uniqueness rule — in an exchange both ends
//     "receive") and concurrent multi-hop groups must be edge-disjoint.
//     Both disjointness clauses consume the dyadic occupancy ledger
//     (sim/occupancy_ledger.hpp) — O(total pieces * n) with exact
//     double-claim witnesses;
//   * knowledge (sim/knowledge_classes.hpp): vertices partition into
//     classes of equal *relative* knowledge; a group's exchange pairs
//     caller u with u ^ delta, both sides absorb the union of the two
//     classes' offset sets (computed once, translated for the receiver
//     side; overlapping knowledge deduplicates by subcube subtraction),
//     classes split when a group bisects them and re-coalesce when
//     their knowledge comes out equal.  The endgame: every class's
//     knowledge must be the full cube covered exactly once.
//
// A seeded sample mode expands random groups into concrete exchanges
// and replays them through the exact validator's structural round
// kernel against the real adjacency oracle — the same bit-level
// algebra-vs-graph spot check the broadcast engine uses.
//
// On clean runs the GossipReport is bit-for-bit the exact
// validate_gossip's (enforced by parity tests for n <= 13, k in
// {2, 3, 4}, both producers); failure strings are the symbolic engine's
// own except "gossip incomplete after all rounds", which matches
// exactly.  Producers ship for both schemes: dimension-exchange on the
// full cube (one group per round — the O(1)-frontier exactness anchor)
// and gather-broadcast on a sparse hypercube (the time-reversed
// symbolic Broadcast_k followed by the forward one).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "shc/bits/checked.hpp"
#include "shc/gossip/gossip.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/knowledge_classes.hpp"
#include "shc/sim/network.hpp"
#include "shc/sim/occupancy_ledger.hpp"
#include "shc/sim/subcube.hpp"
#include "shc/sim/symbolic_schedule.hpp"
#include "shc/sim/symbolic_validator.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {

/// Knobs of the symbolic gossip checks (safe defaults; caps fail
/// explicitly instead of thrashing on adversarial input).  The
/// sampling, ledger-budget, and threading knobs shared with the
/// broadcast engine live in the CommonCheckOptions base
/// (check_options.hpp); only the gossip-specific knobs are declared
/// here.
struct SymbolicGossipOptions : CommonCheckOptions {
  /// Budgets and caps of the knowledge-class partition.
  KnowledgeClassOptions classes;
};

/// Group/knowledge statistics of one symbolic gossip run.  The union
/// cache and reduce-tree effort counters live in `classes`
/// (KnowledgeClassStats) — the partition owns that machinery.
struct SymbolicGossipStats {
  std::uint64_t groups = 0;            ///< call groups consumed
  std::uint64_t peak_round_groups = 0;
  std::uint64_t occupancy_claims = 0;  ///< subcubes consumed by the ledger
  std::uint64_t sampled_calls = 0;     ///< concrete exchanges replayed
  std::uint64_t rounds_checked = 0;  ///< rounds that passed every per-round clause
  KnowledgeClassStats classes;         ///< partition size/effort counters
};

/// SymbolicRoundSink that certifies a gossip schedule as its rounds
/// stream by.  The oracle must be a full 2^n-vertex cube (SpecView or
/// CubeOracle).
template <SymbolicOracle Net>
class SymbolicGossipValidator {
 public:
  SymbolicGossipValidator(const Net& net, int k,
                          const SymbolicGossipOptions& sopt = {})
      : net_(&net),
        k_(k),
        sopt_(sopt),
        n_(net.cube_dim()),
        order_(net.num_vertices()),
        state_(n_ >= 1 && n_ <= kMaxCubeDim ? n_ : 1, sopt.classes),
        rng_(sopt.sample_seed),
        occupancy_(n_ >= 1 && n_ <= kMaxCubeDim ? n_ : 1) {
    if (n_ < 1 || n_ > kMaxCubeDim || order_ != cube_order(n_)) {
      fail("symbolic gossip validator requires a full 2^n-vertex cube oracle");
      return;
    }
    if (k < 1) {
      fail("symbolic gossip validator requires k >= 1");
      return;
    }
    if (sopt.pool) {
      pool_ = sopt.pool;
    } else if (sopt.threads > 1) {
      require_check_threads("SymbolicGossipValidator: threads", sopt.threads);
      owned_pool_ = std::make_unique<WorkerPool>(sopt.threads);
      pool_ = owned_pool_.get();
    }
    // The knowledge partition farms its heavy reductions (union
    // canonicalization, class re-coalesce merge trees) over the same
    // pool; reports are bit-for-bit identical at every thread count.
    state_.set_pool(pool_);
  }

  // ---- SymbolicRoundSink interface ------------------------------------

  void begin_round() {
    if (failed_) return;
    ++rep_.rounds;
    round_.groups.clear();
    round_.group_pattern.clear();
    round_.pattern_pool.clear();
    round_.pattern_off.assign(1, 0);
    endpoints_.clear();
    exchanges_.clear();
    round_multihop_ = false;
  }

  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    if (failed_) return;
    // `where` is built lazily (round_where()): this method is the
    // per-group hot path and the prefix is only read on failure.

    int length = 0;
    if (std::string msg = detail::check_symbolic_call_group(
            *net_, n_, k_, /*vertex_disjoint=*/false, g, pattern, length);
        !msg.empty()) {
      return fail(round_where() + msg);
    }
    const Vertex delta = pattern.back();
    if (delta == 0) {
      // A pattern cycling back to its start would pair every caller
      // with itself — the exact validator rejects it as an endpoint
      // seen twice.
      return fail(round_where() + "exchange pattern returns to its caller "
                                  "(a vertex cannot exchange with itself)");
    }
    rep_.max_call_length = std::max(rep_.max_call_length, length);
    if (!checked_acc_u64(rep_.total_exchanges, g.count)) {
      return fail(round_where() + "total exchange count overflowed 64 bits");
    }
    ++stats_.groups;
    if (length >= 2) round_multihop_ = true;

    // The round-local pattern pool uses 32-bit offsets (SymbolicRound's
    // layout); refuse rather than wrap on adversarial input.
    if (round_.pattern_pool.size() + pattern.size() >
        std::numeric_limits<std::uint32_t>::max()) {
      return fail(round_where() + "round pattern pool exceeds 32-bit offsets");
    }
    round_.groups.push_back(g);
    round_.group_pattern.push_back(
        static_cast<std::uint32_t>(round_.num_patterns()));
    round_.pattern_pool.insert(round_.pattern_pool.end(), pattern.begin(),
                               pattern.end());
    round_.pattern_off.push_back(
        static_cast<std::uint32_t>(round_.pattern_pool.size()));
    endpoints_.push_back(g.callers());
    endpoints_.push_back(Subcube{g.prefix ^ delta, g.free_mask});
    exchanges_.push_back({g.callers(), delta});
  }

  void end_round() {
    if (failed_) return;
    const std::string where = round_where();
    // The exact validator accepts empty rounds (they just burn time);
    // mirror it so clean-run parity holds on degenerate inputs too.
    if (round_.groups.empty()) return;

    stats_.peak_round_groups = std::max(
        stats_.peak_round_groups,
        static_cast<std::uint64_t>(round_.groups.size()));

    {
      SHC_TRACE_SCOPE("endpoint_check");
      if (!check_endpoint_uniqueness(where)) return;
    }
    if (round_multihop_) {
      SHC_TRACE_SCOPE("collision_check");
      if (!check_edge_collisions(where)) return;
    }
    if (sopt_.sample_groups_per_round > 0) {
      SHC_TRACE_SCOPE("sampled_replay");
      if (!sampled_replay(where)) return;
    }

    {
      SHC_TRACE_SCOPE("apply_round");
      if (std::string err = state_.apply_round(exchanges_); !err.empty()) {
        return fail(where + err);
      }
    }
    stats_.classes = state_.stats();
    saturating_acc_u64(stats_.rounds_checked, 1);
    SHC_TRACE_COUNTER("round_groups", round_.groups.size());
    SHC_TRACE_COUNTER("groups_total", stats_.groups);
    SHC_TRACE_COUNTER("knowledge_classes", stats_.classes.classes);
    SHC_TRACE_COUNTER("union_cache_hits", stats_.classes.union_cache_hits);
    SHC_TRACE_COUNTER("occupancy_claims", stats_.occupancy_claims);
    SHC_TRACE_ROUND(rep_.rounds);
  }

  [[nodiscard]] bool aborted() const noexcept { return failed_; }

  // ---- results ---------------------------------------------------------

  /// Final verdict: the knowledge endgame plus completion/minimum-time.
  /// Idempotent.
  [[nodiscard]] GossipReport finish() {
    if (finished_) return rep_;
    finished_ = true;
    stats_.classes = state_.stats();
    if (failed_) return rep_;
    SHC_TRACE_SCOPE("endgame");
    rep_.complete = state_.all_complete();
    if (!rep_.complete) {
      fail("gossip incomplete after all rounds");
      return rep_;
    }
    rep_.ok = true;
    rep_.minimum_time = rep_.rounds == ceil_log2(order_);
    return rep_;
  }

  [[nodiscard]] const SymbolicGossipStats& stats() const noexcept {
    return stats_;
  }

 private:
  void fail(const std::string& msg) {
    if (failed_) return;
    failed_ = true;
    rep_.ok = false;
    rep_.error = msg;
  }

  /// Error-message prefix of the round in progress — failure paths and
  /// end_round only, never the per-group hot loop.
  [[nodiscard]] std::string round_where() const {
    return "round " + std::to_string(rep_.rounds) + ": ";
  }

  [[nodiscard]] std::span<const Vertex> pattern_of(std::size_t gi) const noexcept {
    return round_.pattern_of_group(gi);
  }

  /// Gossip's receiver-uniqueness: both ends of an exchange are
  /// endpoints, so the 2R endpoint subcubes of a round must be pairwise
  /// disjoint.  (Within one group the two cubes are disjoint by
  /// delta != 0 outside the free mask, so any reported overlap is a
  /// genuine violation.)  The endpoint subcubes are consumed into one
  /// occupancy family.
  bool check_endpoint_uniqueness(const std::string& where) {
    occupancy_.clear();
    for (std::size_t ei = 0; ei < endpoints_.size(); ++ei) {
      occupancy_.claim(1, endpoints_[ei].prefix, endpoints_[ei].mask,
                       static_cast<std::uint32_t>(ei / 2));
    }
    saturating_acc_u64(stats_.occupancy_claims, occupancy_.num_claims());
    const OccupancyOutcome out =
        occupancy_.check(pool_, sopt_.ledger_budget_per_claim,
                         sopt_.ledger_bucket_budget_base);
    if (out.status == OccupancyStatus::kBudgetExceeded) {
      fail(where + "endpoint disjointness analysis exceeded its budget "
                   "(ledger bucket budget " +
           std::to_string(out.budget) +
           "; raise SymbolicGossipOptions::ledger_budget_per_claim)");
      return false;
    }
    if (out.status == OccupancyStatus::kDoubleClaim) {
      fail(where + "a vertex takes part in two exchanges "
                   "(endpoint subcubes overlap)");
      return false;
    }
    return true;
  }

  /// Per-round edge disjointness: every hop's edge subcube is claimed
  /// into the family of its flip dimension.
  bool check_edge_collisions(const std::string& where) {
    occupancy_.clear();
    detail::claim_round_edge_subcubes(round_, occupancy_, n_);
    saturating_acc_u64(stats_.occupancy_claims, occupancy_.num_claims());
    const OccupancyOutcome out =
        occupancy_.check(pool_, sopt_.ledger_budget_per_claim,
                         sopt_.ledger_bucket_budget_base);
    if (out.status == OccupancyStatus::kBudgetExceeded) {
      fail(where + "collision analysis exceeded its budget (ledger bucket "
                   "budget " +
           std::to_string(out.budget) +
           "; raise SymbolicGossipOptions::ledger_budget_per_claim)");
      return false;
    }
    if (out.status == OccupancyStatus::kDoubleClaim) {
      fail(where + "edge collision between concurrent call groups");
      return false;
    }
    return true;
  }

  /// Expands a seeded random subset of groups to concrete exchanges and
  /// replays them through the exact validator's structural round kernel.
  bool sampled_replay(const std::string& where) {
    const std::uint64_t want = std::min<std::uint64_t>(
        sopt_.sample_groups_per_round, round_.groups.size());
    std::vector<std::size_t> chosen;
    while (chosen.size() < want) {
      const std::size_t gi = static_cast<std::size_t>(
          rng_() % static_cast<std::uint64_t>(round_.groups.size()));
      if (std::find(chosen.begin(), chosen.end(), gi) == chosen.end()) {
        chosen.push_back(gi);
      }
    }
    FlatSchedule mini;
    mini.begin_round();
    for (const std::size_t gi : chosen) {
      const CallGroup& g = round_.groups[gi];
      const std::span<const Vertex> patt = pattern_of(gi);
      std::vector<Vertex> picked;
      for (std::uint64_t c = 0; c < sopt_.sample_calls_per_group; ++c) {
        const Vertex assign = rng_() & g.free_mask;
        if (std::find(picked.begin(), picked.end(), assign) != picked.end()) {
          continue;  // duplicate free-assignment: same concrete exchange
        }
        picked.push_back(assign);
        const Vertex u = g.prefix | assign;
        for (const Vertex x : patt) mini.push_vertex(u ^ x);
        mini.end_call_unchecked();
        ++stats_.sampled_calls;
      }
    }
    int scratch_len = 0;
    std::uint64_t scratch_count = 0;
    std::unordered_set<detail::EdgeKey, detail::EdgeKeyHash> edges;
    std::unordered_set<Vertex> ends;
    const std::string err = detail::check_gossip_round_structure(
        *net_, mini.round(0), k_, rep_.rounds, scratch_len, scratch_count,
        edges, ends);
    if (!err.empty()) {
      fail(where + "sampled concrete replay failed: " + err);
      return false;
    }
    return true;
  }

  const Net* net_;
  int k_;
  SymbolicGossipOptions sopt_;
  int n_;
  std::uint64_t order_;
  KnowledgeClassPartition state_;
  std::mt19937_64 rng_;
  /// Check-sharding pool: sopt.pool when the caller lends one (server
  /// reuse across queries), else owned_pool_ iff sopt.threads > 1.
  WorkerPool* pool_ = nullptr;
  std::unique_ptr<WorkerPool> owned_pool_;

  // Round-local group storage: one recycled SymbolicRound (patterns
  // pooled in its 32-bit-offset layout; no deduplication needed here).
  SymbolicRound round_;
  std::vector<Subcube> endpoints_;
  OccupancyLedger occupancy_;  ///< endpoint and edge disjointness
  std::vector<KnowledgeClassPartition::Exchange> exchanges_;
  bool round_multihop_ = false;

  GossipReport rep_;
  SymbolicGossipStats stats_;
  bool failed_ = false;
  bool finished_ = false;
};

static_assert(SymbolicRoundSink<SymbolicGossipValidator<CubeOracle>>);

/// Validates a materialized symbolic gossip schedule by streaming it
/// through a SymbolicGossipValidator.
template <SymbolicOracle Net>
[[nodiscard]] GossipReport validate_gossip_symbolic(
    const Net& net, const SymbolicSchedule& schedule, int k,
    const SymbolicGossipOptions& sopt = {}, SymbolicGossipStats* stats = nullptr) {
  if (schedule.n != net.cube_dim()) {
    GossipReport rep;
    rep.ok = false;
    rep.error = "symbolic schedule dimension " + std::to_string(schedule.n) +
                " does not match the oracle's " + std::to_string(net.cube_dim());
    if (stats) *stats = {};
    return rep;
  }
  SymbolicGossipValidator<Net> sink(net, k, sopt);
  for (const SymbolicRound& round : schedule.rounds) {
    if (sink.aborted()) break;
    sink.begin_round();
    for (std::size_t g = 0; g < round.groups.size(); ++g) {
      sink.end_call_group(round.groups[g], round.pattern_of_group(g));
    }
    sink.end_round();
  }
  const GossipReport rep = sink.finish();
  if (stats) *stats = sink.stats();
  return rep;
}

// ---- symbolic producers ------------------------------------------------

/// Dimension-exchange gossip on the full Q_n as a symbolic schedule:
/// round t is ONE call group — callers are the 2^(n-1) vertices with
/// coordinate n-t+1 equal to 0 (the lower endpoints, matching the
/// concrete producer), pattern {0, dim_bit}.  Knowledge frontiers stay
/// O(1) subcubes throughout, so certification is O(n) work total.
/// Admits n <= 63; the expansion for n <= 28 is call-for-call identical
/// to hypercube_exchange_gossip.
[[nodiscard]] SymbolicSchedule hypercube_exchange_gossip_symbolic(int n);

/// Emits gather-broadcast gossip symbolically into any
/// SymbolicRoundSink: the rounds of `forward` (a symbolic Broadcast_k
/// schedule) replayed in reverse order with each group's pattern
/// time-reversed (the original receivers call back toward the
/// original callers), then the forward rounds verbatim.  2R rounds
/// total.  Honors the sink's optional aborted() hook.
template <SymbolicRoundSink Sink>
void emit_gather_broadcast_gossip_symbolic(const SymbolicSchedule& forward,
                                           Sink& sink) {
  const auto aborted = [&]() -> bool {
    if constexpr (requires(const Sink& s) {
                    { s.aborted() } -> std::convertible_to<bool>;
                  }) {
      return sink.aborted();
    } else {
      return false;
    }
  };
  std::vector<Vertex> rev;
  for (std::size_t t = forward.rounds.size(); t-- > 0;) {
    if (aborted()) return;
    const SymbolicRound& round = forward.rounds[t];
    sink.begin_round();
    {
      // Covers emission plus the sink's streamed per-group checks; the
      // sink's own end_round phases land outside this scope.
      SHC_TRACE_SCOPE("produce_round");
      for (std::size_t gi = 0; gi < round.groups.size(); ++gi) {
        const CallGroup& g = round.groups[gi];
        const std::span<const Vertex> patt = round.pattern_of_group(gi);
        const Vertex back = patt.empty() ? 0 : patt.back();
        CallGroup r;
        r.prefix = g.prefix ^ back;
        r.free_mask = g.free_mask;
        r.count = g.count;
        rev.resize(patt.size());
        for (std::size_t j = 0; j < patt.size(); ++j) {
          rev[j] = patt[patt.size() - 1 - j] ^ back;
        }
        sink.end_call_group(r, rev);
      }
    }
    sink.end_round();
  }
  for (const SymbolicRound& round : forward.rounds) {
    if (aborted()) return;
    sink.begin_round();
    {
      SHC_TRACE_SCOPE("produce_round");
      for (std::size_t gi = 0; gi < round.groups.size(); ++gi) {
        sink.end_call_group(round.groups[gi], round.pattern_of_group(gi));
      }
    }
    sink.end_round();
  }
}

/// Materializes the whole symbolic gather-broadcast gossip schedule for
/// `spec` from `root` (memory proportional to twice the broadcast group
/// count; admits n <= 63).  Expand with GossipSchedule::from_symbolic
/// for n <= 28 parity tests.
[[nodiscard]] SymbolicSchedule make_symbolic_gossip_schedule(
    const SparseHypercubeSpec& spec, Vertex root);

/// Outcome of a symbolic gossip production + validation run.
struct SymbolicGossipCertification {
  GossipReport report;        ///< same shape as validate_gossip's
  SymbolicGossipStats checks;
};

/// Runs gather-broadcast gossip on `spec` from `root` through the fully
/// symbolic pipeline: the symbolic Broadcast_k schedule is produced
/// once, then its time-reversal plus itself stream into a
/// SymbolicGossipValidator over the implicit SpecView oracle
/// (k = spec.k()).  No concrete exchange ever exists outside the seeded
/// sample replays; admits n <= 63 (2^64 - 2 exchanges at the limit).
[[nodiscard]] SymbolicGossipCertification certify_gossip_symbolic(
    const SparseHypercubeSpec& spec, Vertex root,
    const SymbolicGossipOptions& sopt = {});

/// Same pipeline for dimension-exchange gossip on the full Q_n
/// (k = 1).  O(n) groups; the exactness anchor — and the checked-
/// arithmetic boundary: the total exchange count n * 2^(n-1) overflows
/// 64 bits for n >= 60, where the engine refuses explicitly instead of
/// wrapping (gather-broadcast, at 2 * (2^n - 1) exchanges, fits the
/// full n <= 63 range).
[[nodiscard]] SymbolicGossipCertification certify_exchange_gossip_symbolic(
    int n, const SymbolicGossipOptions& sopt = {});

}  // namespace shc
