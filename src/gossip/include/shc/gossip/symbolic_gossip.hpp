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
// Everything around the gossip clauses is the broadcast validator's
// shared core (detail::SymbolicRoundCore, symbolic_validator.hpp): the
// per-group hot path, end_call_group, only records a group, and
// end_round checks the recorded groups first (group_checks scope).
// Settable fields: SymbolicGossipOptions is CommonCheckOptions (five).
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
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
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

/// Knobs of the symbolic gossip checks: exactly the shared sampling,
/// ledger-budget and threading knobs (check_options.hpp).  The
/// knowledge partition runs on its defaults.
using SymbolicGossipOptions = CommonCheckOptions;

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
class SymbolicGossipValidator
    : public detail::SymbolicRoundCore<SymbolicGossipValidator<Net>, SymbolicGossipOptions,
                                       GossipReport, SymbolicGossipStats> {
  using Core = detail::SymbolicRoundCore<SymbolicGossipValidator<Net>,
                                         SymbolicGossipOptions, GossipReport,
                                         SymbolicGossipStats>;
  friend Core;  // calls check_group
  using Core::n_, Core::order_, Core::sopt_, Core::pool_, Core::round_,
      Core::round_multihop_, Core::occupancy_, Core::rep_, Core::stats_, Core::failed_,
      Core::finished_, Core::fail, Core::open_round, Core::round_where,
      Core::check_groups, Core::close_round, Core::check_ledger, Core::sample_round;

 public:
  SymbolicGossipValidator(const Net& net, int k,
                          const SymbolicGossipOptions& sopt = {})
      : Core(net.cube_dim(), net.num_vertices(), sopt,
             "SymbolicGossipValidator: threads", "SymbolicGossipOptions"),
        net_(&net),
        k_(k),
        state_(std::clamp(n_, 1, kMaxCubeDim)) {
    if (n_ < 1 || n_ > kMaxCubeDim || order_ != cube_order(n_)) {
      fail("symbolic gossip validator requires a full 2^n-vertex cube oracle");
      return;
    }
    if (k < 1) {
      fail("symbolic gossip validator requires k >= 1");
      return;
    }
    // The knowledge partition farms its heavy reductions (union
    // canonicalization, class re-coalesce merge trees) over the same
    // pool; reports are bit-for-bit identical at every thread count.
    state_.set_pool(pool_.get());
  }

  // ---- SymbolicRoundSink interface ------------------------------------
  // end_call_group is the core's: it only records the group.

  void begin_round() {
    if (failed_) return;
    open_round();
  }

  void end_round() {
    if (failed_) return;
    const std::string where = round_where();
    // The exact validator accepts empty rounds (they just burn time);
    // mirror it so clean-run parity holds on degenerate inputs too.
    if (round_.groups.empty()) return;
    if (!check_groups(where)) return;
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
      if (std::string err = state_.apply_round(round_); !err.empty()) {
        return fail(where + err);
      }
    }
    stats_.classes = state_.stats();
    close_round([&] {
      SHC_TRACE_COUNTER("knowledge_classes", stats_.classes.classes);
      SHC_TRACE_COUNTER("union_cache_hits", stats_.classes.union_cache_hits);
    });
  }

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

 private:
  /// One group's gossip clauses — the shared symbolic ones plus an
  /// exchange partner other than the caller — and its share of the run
  /// totals.
  bool check_group(const std::string& where, const CallGroup& g,
                   std::span<const Vertex> pattern) {
    int length = 0;
    if (std::string msg = detail::check_symbolic_call_group(
            *net_, n_, k_, /*vertex_disjoint=*/false, g, pattern, length);
        !msg.empty()) {
      fail(where + msg);
      return false;
    }
    if (pattern.back() == 0) {
      // A pattern cycling back to its start would pair every caller
      // with itself — the exact validator rejects it as an endpoint
      // seen twice.
      fail(where + "exchange pattern returns to its caller "
                   "(a vertex cannot exchange with itself)");
      return false;
    }
    rep_.max_call_length = std::max(rep_.max_call_length, length);
    if (!checked_acc_u64(rep_.total_exchanges, g.count)) {
      fail(where + "total exchange count overflowed 64 bits");
      return false;
    }
    ++stats_.groups;
    return true;
  }

  /// Gossip's receiver-uniqueness: both ends of an exchange are
  /// endpoints, so the 2R endpoint subcubes of a round must be pairwise
  /// disjoint.  (Within one group the two cubes are disjoint by
  /// delta != 0 outside the free mask, so any reported overlap is a
  /// genuine violation.)  The endpoint subcubes are consumed into one
  /// occupancy family.
  bool check_endpoint_uniqueness(const std::string& where) {
    occupancy_.clear();
    for (std::size_t gi = 0; gi < round_.groups.size(); ++gi) {
      const CallGroup& g = round_.groups[gi];
      const auto group = static_cast<std::uint32_t>(gi);
      occupancy_.claim(1, g.prefix, g.free_mask, group);
      occupancy_.claim(1, g.prefix ^ round_.pattern_of_group(gi).back(), g.free_mask, group);
    }
    return check_ledger(where, pool_.get(), "endpoint disjointness analysis",
                        [](const OccupancyOutcome&) {
                          return "a vertex takes part in two exchanges "
                                 "(endpoint subcubes overlap)";
                        });
  }

  /// Per-round edge disjointness: every hop's edge subcube is claimed
  /// into the family of its flip dimension.
  bool check_edge_collisions(const std::string& where) {
    occupancy_.clear();
    detail::claim_round_edge_subcubes(round_, occupancy_, n_);
    return check_ledger(where, pool_.get(), "collision analysis",
                        [](const OccupancyOutcome&) {
                          return "edge collision between concurrent call groups";
                        });
  }

  /// Expands a seeded random subset of groups to concrete exchanges and
  /// replays them through the exact validator's structural round kernel.
  bool sampled_replay(const std::string& where) {
    const FlatSchedule mini = sample_round([](Vertex) {});
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
  KnowledgeClassPartition state_;
};

static_assert(SymbolicRoundSink<SymbolicGossipValidator<CubeOracle>>);

/// Validates a materialized symbolic gossip schedule by streaming it
/// through a SymbolicGossipValidator.
template <SymbolicOracle Net>
[[nodiscard]] GossipReport validate_gossip_symbolic(
    const Net& net, const SymbolicSchedule& schedule, int k,
    const SymbolicGossipOptions& sopt = {}, SymbolicGossipStats* stats = nullptr) {
  return detail::replay_symbolic(schedule, net.cube_dim(), stats, [&] {
    return SymbolicGossipValidator<Net>(net, k, sopt);
  });
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
  std::vector<Vertex> rev;
  for (std::size_t t = forward.rounds.size(); t-- > 0;) {
    if (detail::sink_aborted(sink)) return;
    const SymbolicRound& round = forward.rounds[t];
    sink.begin_round();
    {
      // Covers emission plus the sink's per-group recording; the sink's
      // own end_round phases, its group checks included, land outside
      // this scope.
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
    if (detail::sink_aborted(sink)) return;
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
