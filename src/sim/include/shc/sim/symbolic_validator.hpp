// Symbolic broadcast validation — certifies a subcube-batched schedule
// without ever expanding it to concrete calls.
//
// The validator is a SymbolicRoundSink.  It re-derives every clause of
// the paper's Definitions 1 and 2 algebraically on the group structure:
//
//   * per group: pattern well-formedness (starts at the caller, one
//     dimension per hop, length <= k, no edge reused within a call),
//     count == subcube size (multiplicity accounting), and edge
//     existence checked on the representative plus the *support
//     discipline* — the group's free dimensions must avoid every hop
//     predicate's support mask, so the representative's verdict is the
//     whole group's verdict;
//   * per round: the caller groups must exactly tile the validator's own
//     informed-set frontier (each informed vertex places exactly one
//     call — the closure property of minimum-time doubling), and
//     concurrent groups must not collide.  Disjointness is proved by the
//     dyadic occupancy ledger (occupancy_ledger.hpp): every hop's edge
//     subcube — and vertex subcube under the Section-5 vertex-disjoint
//     model — is consumed into a per-dimension ledger where a
//     double-claim is an exact collision witness, O(total pieces * n)
//     with no candidate pair ever formed;
//   * across rounds: receivers are inserted into the frontier as a
//     *multiset* (SubcubeFrontier multiplicities), and the endgame
//     requires the frontier to be the full cube covered exactly once
//     (multiplicity one everywhere, entries pairwise disjoint — the
//     occupancy ledger once more).  Coalescing preserves the multiset,
//     so that single check proves receiver uniqueness, receiver
//     freshness, and completion for the entire run at once — no
//     per-vertex state ever exists;
//   * sample mode: per round a seeded random subset of groups is
//     expanded into concrete calls and replayed through the serial
//     reference kernel (validate_round_serial) against the real
//     adjacency oracle — a bit-level spot check that the algebra and
//     the graph agree.  The kernel's vertex sets size themselves to
//     their population (detail::VertexSet), so the replay costs
//     O(sampled calls) per round at every n, never O(2^n).
//
// Round batching: begin_round copies the frontier once into the round
// snapshot (InformedSet), which the producer walks, the caller tiling
// reads and a rejected round is restored from.  end_call_group only
// records a group into the round's SymbolicRound; end_round runs two
// jobs over the recorded batch.  The engine job builds the collision
// claims, then adds the round's receivers to the frontier in group
// order.  The check job runs the per-group clauses in group order, then
// the caller tiling, the collision check and the sampled replay.  The
// caller tiling first scans the snapshot beside the groups in one
// in-order merge that can only accept: when the groups are the
// snapshot's entries in order, each split on its lowest free bits as
// the producer splits it, the round tiles.  Any other round (a replay
// in another order or split, or a schedule that does not tile) is
// decided by comparing the canonical_reduce normal forms of the callers
// and of the snapshot, which also words every error.
// The jobs run in that one order at every thread count: with a
// WorkerPool of two or more workers the check job runs on a pooled
// worker beside the engine job, otherwise after it; either way a
// rejected round gets its frontier back from the snapshot.  The insert
// stays on the engine thread, not on a pooled worker: the frontier's
// tables then grow in the engine thread's malloc arena at every thread
// count.  Moved onto the worker in a trial, they grew in the worker's
// arena beside the blocks the engine thread had freed, and perfbench
// broadcast-c7's peak_rss_mb rose from 50.3 to 79.0 MB (4-vCPU Xeon
// VM).  The insert
// order, hence the greedy coalescing and every report, is the same at
// every thread count.  The endgame's occupancy check shards over the
// whole pool.
//
// Shared core: detail::SymbolicRoundCore holds what both symbolic
// validators (this one and gossip's) keep around their own clauses —
// round recording, the CheckPool, the ledger check and its one message
// mapping (ledger_verdict), the sampled expansion and the first-failure
// report; detail::replay_symbolic and detail::certify_produced drive
// either.  Settable fields (SymbolicCheckOptions): the six of
// CommonCheckOptions plus max_frontier_subcubes.
//
// Model scope: the symbolic engine certifies the paper's exact model
// (edge_capacity == 1, forbid_redundant_receivers, require_completion)
// and additionally requires every informed vertex to call each round —
// the structure minimum-time schedules must have anyway.  Schedules
// outside that envelope fail with an explicit "symbolic validator
// requires ..." error rather than a wrong verdict; on *clean* runs the
// ValidationReport is bit-for-bit the streaming/serial validators'
// (enforced by parity tests for n <= 24).  Failure error strings are
// the symbolic engine's own (a group has no single-call location);
// tests expand handcrafted violations with FlatSchedule::from_symbolic
// and check that the serial validator rejects them in the same round.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <exception>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "shc/bits/audit.hpp"
#include "shc/bits/bitstring.hpp"
#include "shc/bits/checked.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/check_options.hpp"
#include "shc/sim/occupancy_ledger.hpp"
#include "shc/sim/round_sink.hpp"
#include "shc/sim/subcube.hpp"
#include "shc/sim/symbolic_schedule.hpp"
#include "shc/sim/validator.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {

/// Oracle contract of the symbolic engine: dimension-indexed adjacency
/// (has_edge_dim) with a declared *support mask* per dimension — the
/// pinned bits the edge predicate may read — plus the plain has_edge
/// used by the sampled concrete replay.  SpecView satisfies this.
template <class Net>
concept SymbolicOracle = requires(const Net& net, Vertex u, Vertex v, Dim i) {
  { net.num_vertices() } -> std::convertible_to<std::uint64_t>;
  { net.cube_dim() } -> std::convertible_to<int>;
  { net.has_edge(u, v) } -> std::convertible_to<bool>;
  { net.has_edge_dim(u, i) } -> std::convertible_to<bool>;
  { net.dim_support_mask(i) } -> std::convertible_to<Vertex>;
};

namespace detail {

/// Shared structural clauses for one symbolic call group — used by both
/// the broadcast and gossip symbolic validators, so a hardening fix
/// cannot silently miss one engine.  Checks the group shape
/// (prefix/mask disjointness, range, count == subcube size), pattern
/// well-formedness (starts at the caller, single-dimension hops,
/// length <= k, no edge reused within the call), the support
/// discipline (the group's free dims must avoid every hop predicate's
/// support mask, so the representative's verdict is the whole group's),
/// representative edge existence, and — under `vertex_disjoint` — the
/// intra-call vertex revisit ban.  Returns the error message (without
/// the round prefix) or empty; on success sets `length`.
template <class Net>
[[nodiscard]] std::string check_symbolic_call_group(
    const Net& net, int n, int k, bool vertex_disjoint, const CallGroup& g,
    std::span<const Vertex> pattern, int& length) {
  const Vertex cube = mask_low(n);
  if (g.count == 0) return "empty call group";
  if ((g.prefix & g.free_mask) != 0) {
    return "group prefix sets bits inside its free mask";
  }
  if ((g.prefix | g.free_mask) & ~cube) {
    return "group subcube out of range";
  }
  std::uint64_t expect = 0;
  if (!checked_shift_u64(static_cast<unsigned>(weight(g.free_mask)), expect) ||
      g.count != expect) {
    return "group count " + std::to_string(g.count) +
           " does not equal its subcube size (multiplicity accounting)";
  }
  if (pattern.size() < 2) {
    return "empty or zero-length call pattern";
  }
  if (pattern[0] != 0) {
    return "call pattern does not start at the caller";
  }
  length = static_cast<int>(pattern.size()) - 1;
  if (length > k) {
    return "call pattern has length " + std::to_string(length) +
           " > k=" + std::to_string(k);
  }

  for (std::size_t j = 0; j + 1 < pattern.size(); ++j) {
    const Vertex diff = pattern[j] ^ pattern[j + 1];
    if (weight(diff) != 1 || (diff & ~cube)) {
      return "pattern hop is not a single in-range dimension flip";
    }
    const Dim d = differing_dim(pattern[j], pattern[j + 1]);
    // Support discipline: the hop's edge predicate must be uniform
    // over the group, i.e. blind to every free dimension.
    const Vertex support = net.dim_support_mask(d);
    if (g.free_mask & (support | diff)) {
      return "group free dims intersect a hop's support — "
             "the producer must split this subcube further";
    }
    const Vertex at = g.prefix ^ pattern[j];
    if (!net.has_edge_dim(at, d)) {
      return "no edge for dimension " + std::to_string(d) +
             " at representative " + std::to_string(at);
    }
    // A call may not reuse an edge within its own path (capacity 1).
    for (std::size_t l = 0; l < j; ++l) {
      const Vertex ldiff = pattern[l] ^ pattern[l + 1];
      if (weight(ldiff) == 1 && ldiff == diff &&
          (pattern[l] & ~diff) == (pattern[j] & ~diff)) {
        return "call pattern reuses an edge within its own path";
      }
    }
  }
  if (vertex_disjoint) {
    // The serial kernel's touched-set rejects a call revisiting one of
    // its own vertices (legal in the edge-disjoint model, where only
    // edge reuse is banned); mirror that here or the parity claim
    // breaks on cycle-walking patterns.
    for (std::size_t j = 0; j < pattern.size(); ++j) {
      for (std::size_t l = 0; l < j; ++l) {
        if (pattern[l] == pattern[j]) {
          return "call pattern revisits a vertex (vertex-disjoint model)";
        }
      }
    }
  }
  return {};
}

/// Claims every hop's edge subcube of the round's groups into `occ`,
/// keyed by flip dimension (1-based, so family 0 stays free).  This is
/// the ONE definition of the edge-subcube encoding both the broadcast
/// and gossip symbolic validators consume — a fix here cannot silently
/// miss one engine.  For patterns that passed check_symbolic_call_group
/// (hops are single in-range dimension flips and free dims avoid them)
/// every hop is claimed; a hop that is not such a flip, or whose claim
/// would set bits inside the group's free mask, is skipped, so the
/// broadcast validator can claim a round before its clauses have run.
inline void claim_round_edge_subcubes(const SymbolicRound& round,
                                      OccupancyLedger& occ, int n) {
  const Vertex cube = mask_low(n);
  for (std::size_t gi = 0; gi < round.groups.size(); ++gi) {
    const CallGroup& g = round.groups[gi];
    const std::span<const Vertex> patt = round.pattern_of_group(gi);
    for (std::size_t j = 0; j + 1 < patt.size(); ++j) {
      const Vertex diff = patt[j] ^ patt[j + 1];
      const Vertex prefix = (g.prefix ^ patt[j]) & ~diff;
      if (weight(diff) != 1 || (diff & ~cube) != 0 || (prefix & g.free_mask) != 0) {
        continue;
      }
      occ.claim(differing_dim(patt[j], patt[j + 1]), prefix, g.free_mask,
                static_cast<std::uint32_t>(gi));
    }
  }
}

/// One occupancy-ledger outcome as an error message without the round
/// prefix, or empty when the claims are disjoint — the one mapping of
/// every ledger check of both symbolic validators.  A budget refusal
/// reads "<clause> exceeded its budget (ledger bucket budget B; raise
/// <options>::ledger_budget_per_claim)"; a double claim reads
/// `collision`.
[[nodiscard]] inline std::string ledger_verdict(const OccupancyOutcome& out,
                                                const char* clause,
                                                const char* options,
                                                const char* collision) {
  switch (out.status) {
    case OccupancyStatus::kDisjoint:
      return {};
    case OccupancyStatus::kBudgetExceeded:
      return std::string(clause) + " exceeded its budget (ledger bucket budget " +
             std::to_string(out.budget) + "; raise " + options +
             "::ledger_budget_per_claim)";
    case OccupancyStatus::kDoubleClaim:
      return collision;
  }
  return {};  // unreachable
}

/// The materialized-schedule driver of both symbolic validators.
/// Refuses a schedule over another cube before `make()` builds the
/// validator (and any pool it owns), streams the rounds into it until
/// it aborts, and returns finish(), copying stats() to `*stats` (zeroed
/// on a refusal).
template <class Stats, class Make>
[[nodiscard]] auto replay_symbolic(const SymbolicSchedule& schedule, int cube_dim,
                                   Stats* stats, Make&& make) {
  using Report = decltype(make().finish());
  if (schedule.n != cube_dim) {
    if (stats) *stats = {};
    Report rep;
    rep.ok = false;
    rep.error = "symbolic schedule dimension " + std::to_string(schedule.n) +
                " does not match the oracle's " + std::to_string(cube_dim);
    return rep;
  }
  auto sink = make();
  for (const SymbolicRound& round : schedule.rounds) {
    if (sink.aborted()) break;
    sink.begin_round();
    for (std::size_t g = 0; g < round.groups.size(); ++g) {
      sink.end_call_group(round.groups[g], round.pattern_of_group(g));
    }
    sink.end_round();
  }
  const Report rep = sink.finish();
  if (stats) *stats = sink.stats();
  return rep;
}

/// Runs `produce()`, a producer streaming into `sink`, and returns the
/// sink's verdict with stats() copied to `*stats`.  A producer
/// exception (frontier caps, pathological splits, a bad source) becomes
/// a failed "symbolic producer: ..." report rather than an escaped
/// exception, and finish() is not called; if the sink had failed first
/// and the producer tripped over the abort, the sink's own report
/// stands.
template <class Sink, class Stats, class Produce>
[[nodiscard]] auto certify_produced(Sink& sink, Stats* stats, Produce&& produce) {
  decltype(sink.finish()) rep;
  bool produced = true;
  try {
    produce();
  } catch (const std::exception& e) {
    produced = sink.aborted();
    rep.ok = false;
    rep.error = std::string("symbolic producer: ") + e.what();
  }
  if (produced) rep = sink.finish();
  *stats = sink.stats();
  return rep;
}

/// The state and verbs both symbolic validators share around their own
/// clauses: the check pool, the seeded sample generator, the recycled
/// round with its multi-hop flag, the occupancy ledger, and the report
/// whose first failure wins.  `options_name` names the engine's options
/// type in its ledger refusals.
template <class Options, class Report, class Stats>
class SymbolicRoundCore {
 public:
  [[nodiscard]] bool aborted() const noexcept { return failed_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 protected:
  SymbolicRoundCore(int n, std::uint64_t order, const Options& sopt,
                    const char* pool_what, const char* options_name)
      : sopt_(sopt),
        n_(n),
        order_(order),
        options_name_(options_name),
        pool_(sopt.pool, sopt.threads, pool_what),
        occupancy_(std::clamp(n, 1, kMaxCubeDim)) {}

  /// Opens the next round: counts it and empties the recorded round.
  void open_round() {
    ++rep_.rounds;
    round_.clear();
    round_multihop_ = false;
  }

  void fail(const std::string& msg) {
    if (failed_) return;
    failed_ = true;
    rep_.ok = false;
    rep_.error = msg;
  }

  /// Error-message prefix of the round in progress.  Only called on
  /// failure paths and once per end_round — never in the per-group hot
  /// loop (string construction there was a measurable slice of a
  /// designed-spec run).
  [[nodiscard]] std::string round_where() const {
    return "round " + std::to_string(rep_.rounds) + ": ";
  }

  /// Resolves the claims in occupancy_ under the ledger budgets (walks
  /// sharded over `pool` when non-null) and counts them.  On a refusal
  /// or a double claim fails with `where` plus the ledger_verdict
  /// message; `collision(out)` words the double claim.
  template <class Collision>
  bool check_ledger(const std::string& where, WorkerPool* pool, const char* clause,
                    Collision&& collision) {
    saturating_acc_u64(stats_.occupancy_claims, occupancy_.num_claims());
    const OccupancyOutcome out = occupancy_.check(
        pool, sopt_.ledger_budget_per_claim, sopt_.ledger_bucket_budget_base);
    const std::string err = ledger_verdict(out, clause, options_name_, collision(out));
    if (!err.empty()) fail(where + err);
    return err.empty();
  }

  /// The sampled replay's concrete expansion.  Draws
  /// min(sample_groups_per_round, groups) distinct recorded groups
  /// (re-expanding a group would duplicate its calls and trip the
  /// kernel's receiver-uniqueness check), then per group
  /// sample_calls_per_group free assignments, skipping repeats, and
  /// returns their concrete calls as one round.  `on_caller(u)` sees
  /// each call's caller before its path is pushed.
  template <class OnCaller>
  [[nodiscard]] FlatSchedule sample_round(OnCaller&& on_caller) {
    const std::uint64_t want =
        std::min<std::uint64_t>(sopt_.sample_groups_per_round, round_.groups.size());
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
    std::vector<Vertex> picked;
    for (const std::size_t gi : chosen) {
      const CallGroup& g = round_.groups[gi];
      picked.clear();
      for (std::uint64_t c = 0; c < sopt_.sample_calls_per_group; ++c) {
        const Vertex assign = rng_() & g.free_mask;
        if (std::find(picked.begin(), picked.end(), assign) != picked.end()) {
          continue;  // duplicate free-assignment: same concrete call
        }
        picked.push_back(assign);
        const Vertex u = g.prefix | assign;
        on_caller(u);
        for (const Vertex x : round_.pattern_of_group(gi)) mini.push_vertex(u ^ x);
        mini.end_call_unchecked();
        ++stats_.sampled_calls;
      }
    }
    return mini;
  }

  Options sopt_;
  int n_;
  std::uint64_t order_;
  const char* options_name_;
  std::mt19937_64 rng_{kSampleSeed};
  CheckPool pool_;
  /// The recorded round: one recycled SymbolicRound (patterns pooled in
  /// its 32-bit-offset layout; no deduplication needed here).
  SymbolicRound round_;
  bool round_multihop_ = false;
  OccupancyLedger occupancy_;
  Report rep_;
  Stats stats_;
  bool failed_ = false;
  bool finished_ = false;
};

}  // namespace detail

/// Knobs of the symbolic checks (all have safe defaults; caps make the
/// engine fail explicitly instead of thrashing on adversarial input).
/// The sampling, ledger-budget, and threading knobs shared with the
/// gossip engine live in the CommonCheckOptions base
/// (check_options.hpp); only the broadcast-specific cap is declared
/// here.
struct SymbolicCheckOptions : CommonCheckOptions {
  /// Hard cap on informed-set subcubes (memory guard).
  std::uint64_t max_frontier_subcubes = std::uint64_t{1} << 26;
};

/// Group/expansion statistics of one symbolic run.
struct SymbolicRunStats {
  std::uint64_t groups = 0;           ///< call groups consumed
  std::uint64_t peak_round_groups = 0;
  std::uint64_t peak_frontier_subcubes = 0;
  std::uint64_t final_frontier_subcubes = 0;
  std::uint64_t occupancy_claims = 0;  ///< subcubes consumed by the ledger
  std::uint64_t sampled_calls = 0;     ///< concrete calls replayed serially
  std::uint64_t rounds_checked = 0;  ///< rounds that passed every per-round clause
  /// Translation-keyed union cache traffic — gossip-engine counters,
  /// always 0 for broadcast; kept so sweep/bench rows share one schema.
  std::uint64_t union_cache_hits = 0;
  std::uint64_t union_cache_misses = 0;
};

template <SymbolicOracle Net>
class SymbolicBroadcastValidator
    : public detail::SymbolicRoundCore<SymbolicCheckOptions, ValidationReport,
                                       SymbolicRunStats> {
 public:
  SymbolicBroadcastValidator(const Net& net, Vertex source,
                             const ValidationOptions& opt,
                             const SymbolicCheckOptions& sopt = {})
      : SymbolicRoundCore(net.cube_dim(), net.num_vertices(), sopt,
                          "SymbolicBroadcastValidator: threads", "SymbolicCheckOptions"),
        net_(&net),
        opt_(opt),
        informed_(std::clamp(n_, 1, kMaxCubeDim)) {
    if (n_ < 1 || n_ > kMaxCubeDim || order_ != cube_order(n_)) {
      fail("symbolic validator requires a full 2^n-vertex cube oracle");
      return;
    }
    if (opt.edge_capacity != 1 || !opt.forbid_redundant_receivers ||
        !opt.require_completion) {
      fail("symbolic validator requires the paper's exact model "
           "(edge_capacity 1, no redundant receivers, completion)");
      return;
    }
    if (source >= order_) {
      fail("source out of range");
      return;
    }
    informed_.start(source);
  }

  // ---- SymbolicRoundSink interface ------------------------------------

  void begin_round() {
    if (failed_) return;
    open_round();
    SHC_TRACE_SCOPE("frontier_snapshot");
    informed_.snapshot();
  }

  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    if (failed_) return;
    // Records the group and nothing else: this method runs once per
    // group — 14M+ times per round on the designed n = 63 spec — and
    // every clause is checked in end_round's check job, in group order.
    //
    // The round-local pattern pool uses 32-bit offsets (SymbolicRound's
    // layout); a round whose summed pattern lengths reach 2^32 must
    // fail explicitly (the engine's contract on adversarial input), not
    // wrap the offsets.  Such a group cannot be recorded, so the groups
    // before it and the group itself are checked here, and a clause
    // failure among them still wins over the overflow.
    if (!round_.append(g, pattern)) {
      const std::string where = round_where();
      if (check_groups(where) && check_group(where, g, pattern)) {
        fail(where + "round pattern pool exceeds 32-bit offsets");
      }
      return;
    }
    if (pattern.size() > 2) round_multihop_ = true;
  }

  /// Checks the recorded round and inserts its receivers: the engine
  /// and check jobs of the header's round batching.  The engine job
  /// runs on the engine thread, so the claims' and the frontier's
  /// memory lives in one malloc arena at every thread count (grown on a
  /// worker, their freed blocks would stay resident in its arena beside
  /// the engine thread's).
  void end_round() {
    if (failed_) return;
    const std::string where = round_where();
    if (round_.groups.empty()) return fail(where + "empty round");
    SHC_TRACE_COUNTER("round_batch_bytes",
                      round_bytes() + informed_.round().size_bytes());

    // Trace numbers for every event of both jobs, reserved here in the
    // serial order (claims, checks, insert), so the merged trace is the
    // same whichever thread runs which job and however they interleave.
    obs::TraceRecorder* const rec = obs::TraceRecorder::active();
    const std::uint64_t seq0 =
        rec != nullptr ? rec->reserve_seqs(kCheckJobSeqs + 2) : 0;
    std::atomic<bool> claimed{false};
    bool checked = false;
    const auto engine_job = [&] {
      {
        const obs::SeqLease lease(rec, seq0, 1);
        SHC_TRACE_SCOPE("ledger_build");
        const Publish done{claimed};
        build_round_claims();
      }
      const obs::SeqLease lease(rec, seq0 + 1 + kCheckJobSeqs, 1);
      SHC_TRACE_SCOPE("frontier_insert");
      insert_receivers();
    };
    const auto check_job = [&] {
      const obs::SeqLease lease(rec, seq0 + 1, kCheckJobSeqs);
      checked = check_round(where, claimed);
    };
    if (WorkerPool* const pool = pool_.get()) {
      pool->run_beside(engine_job, check_job);  // in turn below two workers
    } else {
      engine_job();
      check_job();
    }
    if (!checked) return informed_.restore();

    const SubcubeFrontier& frontier = informed_.frontier();
    if (!frontier.count_ok()) {
      return fail(where + "informed-set count overflowed 64 bits");
    }
    if (frontier.num_subcubes() > sopt_.max_frontier_subcubes) {
      return fail(where + "informed-set subcube cap exceeded (" +
                  std::to_string(frontier.num_subcubes()) + " > " +
                  std::to_string(sopt_.max_frontier_subcubes) + ")");
    }
    stats_.peak_frontier_subcubes =
        std::max(stats_.peak_frontier_subcubes, frontier.num_subcubes());
    saturating_acc_u64(stats_.rounds_checked, 1);
    SHC_TRACE_COUNTER("round_groups", round_.groups.size());
    SHC_TRACE_COUNTER("groups_total", stats_.groups);
    SHC_TRACE_COUNTER("frontier_subcubes", frontier.num_subcubes());
    SHC_TRACE_COUNTER("occupancy_claims", stats_.occupancy_claims);
    SHC_TRACE_ROUND(rep_.rounds);
  }

  /// The informed set and its round snapshot, lent read-only
  /// (InformedFrontierSink): the snapshot is retaken only in
  /// begin_round(), and the caller tiling checks the groups against it
  /// whatever the producer walked.
  [[nodiscard]] const InformedSet& informed_set() const noexcept { return informed_; }
  [[nodiscard]] const SubcubeFrontier& informed_frontier() const noexcept {
    return informed_.frontier();
  }

  // ---- results ---------------------------------------------------------

  /// Final verdict: the exact-cover endgame (occupancy consumption)
  /// plus completion and minimum-time.  Idempotent.
  [[nodiscard]] ValidationReport finish() {
    if (finished_) return rep_;
    finished_ = true;
    const SubcubeFrontier& frontier = informed_.frontier();
    stats_.final_frontier_subcubes = frontier.num_subcubes();
    if (failed_) return rep_;
    SHC_TRACE_SCOPE("endgame");

    rep_.informed = frontier.count_ok() ? frontier.total_count() : 0;
    if (rep_.informed != order_) {
      fail("incomplete: informed " + std::to_string(rep_.informed) + " of " +
           std::to_string(order_));
      return rep_;
    }
    // The endgame: the informed multiset must be the cube covered exactly
    // once.  That is the occupancy argument once more — every entry has
    // multiplicity one and the entries are pairwise disjoint, which
    // together with the exact 2^n total forces an exact cover, at
    // O(entries * n) (the designed n = 63 spec ends on ~11 M fragmented
    // subcubes, beyond any sensible canonical-reduction budget).
    occupancy_.clear();
    bool mult_clean = true;
    std::uint32_t idx = 0;
    frontier.for_each([&](Vertex p, Vertex m, std::uint64_t mult) {
      if (mult != 1) mult_clean = false;
      occupancy_.claim(1, p, m, idx++);
    });
    saturating_acc_u64(stats_.occupancy_claims, occupancy_.num_claims());
    OccupancyOutcome out;
    out.status = OccupancyStatus::kDoubleClaim;  // a multiplicity above one
    if (mult_clean) {
      out = occupancy_.check(pool_.get(), sopt_.ledger_budget_per_claim,
                             sopt_.ledger_bucket_budget_base);
    }
    if (std::string err = detail::ledger_verdict(
            out, "endgame occupancy check", options_name_,
            "informed multiset is not the cube covered exactly once "
            "(receiver collision)");
        !err.empty()) {
      fail(err);
      return rep_;
    }
    rep_.ok = true;
    rep_.minimum_time = rep_.rounds == ceil_log2(order_) && rep_.informed == order_;
    return rep_;
  }

 private:
  /// Sets the round's claims flag, on which the check job's collision
  /// check waits, on scope exit, so a build that throws still releases
  /// a waiting check job.
  struct Publish {
    std::atomic<bool>& flag;
    explicit Publish(std::atomic<bool>& f) noexcept : flag(f) {}
    Publish(const Publish&) = delete;
    Publish& operator=(const Publish&) = delete;
    ~Publish() {
      flag.store(true, std::memory_order_release);
      flag.notify_all();
    }
  };

  /// Bytes held by the recorded round (its four arrays' capacity).
  [[nodiscard]] std::uint64_t round_bytes() const noexcept {
    return round_.groups.capacity() * sizeof(CallGroup) +
           round_.group_pattern.capacity() * sizeof(std::uint32_t) +
           round_.pattern_pool.capacity() * sizeof(Vertex) +
           round_.pattern_off.capacity() * sizeof(std::uint32_t);
  }

  /// The check job: Definitions 1/2 on the recorded round.  The tiling
  /// reads the round snapshot; the collision check first waits for the
  /// engine job's claims.  Nested pool runs are not allowed inside a
  /// job, so nothing here shards.
  bool check_round(const std::string& where, const std::atomic<bool>& claimed) {
    {
      SHC_TRACE_SCOPE("group_checks");
      if (!check_groups(where)) return false;
    }
    stats_.peak_round_groups = std::max(
        stats_.peak_round_groups, static_cast<std::uint64_t>(round_.groups.size()));
    {
      SHC_TRACE_SCOPE("caller_tiling");
      if (!check_caller_tiling(where)) return false;
    }
    if (round_multihop_) {
      SHC_TRACE_SCOPE("collision_check");
      claimed.wait(false, std::memory_order_acquire);
      if (!check_collisions(where)) return false;
    }
    if (sopt_.sample_groups_per_round > 0) {
      SHC_TRACE_SCOPE("sampled_replay");
      if (!sampled_replay(where)) return false;
    }
    return true;
  }

  /// Per-group clauses of every recorded group, in group order: the
  /// first failing group names the error, and the run totals stop at
  /// it, as if each group had been checked on arrival.
  bool check_groups(const std::string& where) {
    for (std::size_t gi = 0; gi < round_.groups.size(); ++gi) {
      if (!check_group(where, round_.groups[gi], round_.pattern_of_group(gi))) return false;
    }
    return true;
  }

  /// One group's clauses and its share of the run totals.
  bool check_group(const std::string& where, const CallGroup& g,
                   std::span<const Vertex> pattern) {
    int length = 0;
    if (std::string msg = detail::check_symbolic_call_group(
            *net_, n_, opt_.k, opt_.require_vertex_disjoint, g, pattern,
            length);
        !msg.empty()) {
      fail(where + msg);
      return false;
    }
    rep_.max_call_length = std::max(rep_.max_call_length, length);
    if (!checked_acc_u64(rep_.total_calls, g.count)) {
      fail(where + "total call count overflowed 64 bits");
      return false;
    }
    ++stats_.groups;
    return true;
  }

  /// The engine job's first half: on a round with multi-hop calls, the
  /// collision claims.  They are built ahead of the clauses that vet
  /// the groups, so a hop that is not one in-range dimension flip off
  /// the group's free dims is skipped (claim_round_edge_subcubes), as
  /// is a vertex claim that would set bits inside the free mask.  A
  /// round with such a group fails its clauses, so the skipped claims
  /// are never read; on a round that passes, nothing is skipped.
  void build_round_claims() {
    if (!round_multihop_) return;
    occupancy_.clear();
    detail::claim_round_edge_subcubes(round_, occupancy_, n_);
    if (opt_.require_vertex_disjoint) {
      for (std::size_t gi = 0; gi < round_.groups.size(); ++gi) {
        const CallGroup& g = round_.groups[gi];
        for (const Vertex x : round_.pattern_of_group(gi)) {
          if (((g.prefix ^ x) & g.free_mask) != 0) continue;
          occupancy_.claim(n_ + 1, g.prefix ^ x, g.free_mask,
                           static_cast<std::uint32_t>(gi));
        }
      }
    }
  }

  /// The engine job's second half: receivers join the informed multiset
  /// in group order, so greedy coalescing is the same at every thread
  /// count.  A receiver that is not a well-formed in-range subcube is
  /// skipped — the insert runs ahead of the clauses that reject its
  /// group, and the frontier's mask classes rely on (prefix & mask) == 0.
  void insert_receivers() {
    const Vertex cube = mask_low(n_);
    for (std::size_t gi = 0; gi < round_.groups.size(); ++gi) {
      const CallGroup& g = round_.groups[gi];
      const std::span<const Vertex> patt = round_.pattern_of_group(gi);
      if (patt.empty()) continue;
      const Vertex receiver = g.prefix ^ patt.back();
      if ((receiver & g.free_mask) != 0 || ((receiver | g.free_mask) & ~cube) != 0) {
        continue;
      }
      informed_.insert(receiver, g.free_mask);
    }
  }

  /// Every informed vertex must place exactly one call: the round's
  /// caller groups must tile the round snapshot.  The in-order merge
  /// (tiles_in_order) accepts the produced rounds; the normal forms
  /// (normal_form_tiling_error) decide every other round and word every
  /// error.  Audit builds require a merged round to pass the normal
  /// forms too, or to be refused on the budget.
  bool check_caller_tiling(const std::string& where) {
    const bool in_order = tiles_in_order();
    SHC_TRACE_COUNTER("caller_tiling_fallback", in_order ? 0 : 1);
#if SHC_AUDIT_ENABLED
    const std::string audit = in_order ? normal_form_tiling_error() : std::string();
    SHC_AUDIT_CHECK(audit.empty() || audit == kTilingBudgetRefusal,
                    "a round the in-order merge accepts must pass the normal forms");
#endif
    const std::string err = in_order ? std::string() : normal_form_tiling_error();
    if (!err.empty()) fail(where + err);
    return err.empty();
  }

  /// The accept-only tiling: steps through the groups in order beside
  /// the snapshot's entries (the order the producer emits them).  Each
  /// entry of multiplicity one must be the next 2^s groups: the entry
  /// split on its s lowest free bits, rest = the entry's mask without
  /// them, the pieces' prefixes the entry's prefix plus each assignment
  /// of the split bits in ascending order, each of count 2^|rest|.
  /// Every entry must match and every group be used.  Sound because the
  /// matched groups partition each entry, so the callers are the
  /// informed multiset with every entry called once; false decides
  /// nothing.
  [[nodiscard]] bool tiles_in_order() const {
    const std::vector<CallGroup>& groups = round_.groups;
    std::size_t next = 0;
    for (const WeightedSubcube& e : informed_.round()) {
      if (e.mult != 1 || next == groups.size()) return false;
      const Vertex rest = groups[next].free_mask;
      const Vertex split = e.mask & ~rest;
      // rest keeps the entry's high free bits: every split bit lies below its lowest.
      if ((rest & ~e.mask) != 0 || (rest != 0 && split >= (rest & (~rest + 1)))) return false;
      if ((std::uint64_t{1} << weight(split)) > groups.size() - next) return false;
      const std::uint64_t count = std::uint64_t{1} << weight(rest);
      for (Vertex a = 0;; a = (a - split) & split) {  // ascending subsets of split
        const CallGroup& g = groups[next++];
        if (g.free_mask != rest || g.prefix != (e.prefix | a) || g.count != count) return false;
        if (a == split) break;
      }
    }
    return next == groups.size();
  }

  /// The normal-form tiling: the callers tile the informed set exactly
  /// when canonical_reduce of the groups (multiplicity one each) and of
  /// the round snapshot are equal once sorted, with every
  /// multiplicity one.  The error is a function of the two forms alone:
  /// a caller multiplicity above one, or more caller than informed
  /// vertices, is a caller outside the informed set; any other mismatch
  /// leaves an informed vertex without a call.
  [[nodiscard]] std::string normal_form_tiling_error() const {
    std::vector<WeightedSubcube> callers;  // well-formed: their clauses passed
    callers.reserve(round_.groups.size());
    for (const CallGroup& g : round_.groups) callers.push_back({g.prefix, g.free_mask, 1});
    auto caller_form = canonical_reduce(std::move(callers), n_);
    const std::span<const WeightedSubcube> informed = informed_.round();
    auto informed_form = canonical_reduce({informed.begin(), informed.end()}, n_);
    if (!caller_form || !informed_form) return kTilingBudgetRefusal;
    // Sorts a form, adds its vertex count to `vertices` and says whether
    // every multiplicity is one.  mult << dim cannot wrap on the frontier
    // (its count was checked last round), nor on callers counted once.
    const auto settle = [](std::vector<WeightedSubcube>& form, std::uint64_t& vertices) {
      std::sort(form.begin(), form.end(), [](const WeightedSubcube& a, const WeightedSubcube& b) {
        return std::tie(a.mask, a.prefix, a.mult) < std::tie(b.mask, b.prefix, b.mult);
      });
      bool once = true;
      for (const WeightedSubcube& e : form) {
        once = once && e.mult == 1;
        saturating_acc_u64(vertices, e.mult << weight(e.mask));
      }
      return once;
    };
    std::uint64_t caller_vertices = 0;
    std::uint64_t informed_vertices = 0;
    const bool callers_once = settle(*caller_form, caller_vertices);
    settle(*informed_form, informed_vertices);
    if (!callers_once || caller_vertices > informed_vertices) {
      return "caller group outside the informed set (uninformed caller or a "
             "vertex calling twice)";
    }
    if (*caller_form != *informed_form) {
      return "callers do not tile the informed set (some informed vertex "
             "places no call)";
    }
    return {};
  }

  /// Concurrent-group disjointness by the dyadic occupancy ledger:
  /// every hop's edge subcube is claimed into the family of its flip
  /// dimension (vertex subcubes into family n + 1 under the
  /// vertex-disjoint model, checked after all edge families); a
  /// double-claim is an exact collision, with no candidate pair ever
  /// enumerated.
  bool check_collisions(const std::string& where) {
    return check_ledger(where, nullptr, "collision analysis", [&](const OccupancyOutcome& out) {
      return out.family == n_ + 1 ? "vertex collision between concurrent call "
                                    "groups (vertex-disjoint model)"
                                  : "edge collision between concurrent call groups";
    });
  }

  /// Expands a seeded random subset of groups to concrete calls and
  /// replays them through the serial reference kernel.  The run state
  /// is fresh per round and holds only the sampled callers and
  /// receivers, so it stays in VertexSet's hashed form.
  bool sampled_replay(const std::string& where) {
    detail::BroadcastRunState state(order_, opt_);
    const FlatSchedule mini = sample_round([&](Vertex u) { state.informed.insert(u); });
    ValidationOptions ropt = opt_;
    ropt.require_completion = false;
    ValidationReport scratch;
    if (!detail::validate_round_serial(*net_, mini, 0, mini.num_calls(),
                                       rep_.rounds, ropt, state, scratch)) {
      fail(where + "sampled concrete replay failed: " + scratch.error);
      return false;
    }
    return true;
  }

  const Net* net_;
  ValidationOptions opt_;
  InformedSet informed_;  ///< informed multiset and its round snapshot
  /// A reduction past canonical_reduce's default budget: never a verdict.
  static constexpr const char* kTilingBudgetRefusal =
      "caller tiling refused: a normal form exceeded canonical_reduce's "
      "default node budget (a round this fragmented is not decided)";

  /// Main-track trace numbers reserved per round for the check job:
  /// it records at most group_checks, caller_tiling with its
  /// caller_tiling_fallback counter, collision_check with its nested
  /// ledger_check scope and ledger_claims counter, and sampled_replay —
  /// seven events.  The engine job records one scope before the checks'
  /// block (ledger_build, the collision claims) and one after
  /// (frontier_insert).
  static constexpr std::uint64_t kCheckJobSeqs = 8;
};

/// Validates a materialized symbolic schedule by streaming it through a
/// SymbolicBroadcastValidator.
template <SymbolicOracle Net>
[[nodiscard]] ValidationReport validate_broadcast_symbolic(
    const Net& net, const SymbolicSchedule& schedule, const ValidationOptions& opt,
    const SymbolicCheckOptions& sopt = {}, SymbolicRunStats* stats = nullptr) {
  return detail::replay_symbolic(schedule, net.cube_dim(), stats, [&] {
    return SymbolicBroadcastValidator<Net>(net, schedule.source, opt, sopt);
  });
}

}  // namespace shc
