// Symbolic (subcube-batched) schedule representation.
//
// The paper's Broadcast_k construction is fully implicit: in the round
// sweeping dimension i, every informed vertex u places the same
// route_flip(u, i) call up to translation, and the route depends only on
// the bits of u below the governing cut.  A round therefore compresses
// to a handful of *call groups*: a caller subcube, one shared flip-route
// pattern, and a count.  One group stands for up to 2^62 concrete calls,
// which is what lifts certification from the streaming pipeline's
// n <= 32 (one concrete call per vertex) to the representation limit
// n <= 63.
//
// A pattern is the call's path written as cumulative XOR masks relative
// to the caller: pattern[0] == 0 (the caller itself), pattern[j] ^
// pattern[j+1] has exactly one bit (the hop's dimension), and the
// receiver is caller ^ pattern.back().  Every concrete call of the
// group is the translate u ^ pattern[j]; patterns never touch the
// group's free dimensions, so the group's calls are pairwise
// vertex-disjoint by construction.
//
// Producers emit through the SymbolicRoundSink concept — the symbolic
// channel of the streaming pipeline's RoundSink idea: begin_round(),
// end_call_group() per group, end_round().  Optional hooks a producer
// detects and honors: aborted() (stop early) and informed_set() (see
// InformedFrontierSink).  Two sinks ship in-tree:
// SymbolicScheduleBuilder materializes a SymbolicSchedule (pattern
// tables deduplicated per round); SymbolicBroadcastValidator
// (symbolic_validator.hpp) certifies rounds as they stream by and keeps
// no groups at all across rounds.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <span>
#include <unordered_map>
#include <vector>

#include "shc/bits/vertex.hpp"
#include "shc/sim/subcube.hpp"

namespace shc {

/// One subcube-batched group of identical-up-to-translation calls.
struct CallGroup {
  Vertex prefix = 0;         ///< pinned bits of the caller subcube
  Vertex free_mask = 0;      ///< free dims (prefix & free_mask == 0)
  std::uint64_t count = 0;   ///< concrete calls == 2^popcount(free_mask)

  [[nodiscard]] Subcube callers() const noexcept { return {prefix, free_mask}; }
};

/// Anything a symbolic producer can emit rounds of call groups into.
template <class S>
concept SymbolicRoundSink =
    requires(S& s, const CallGroup& g, std::span<const Vertex> pattern) {
      s.begin_round();
      s.end_call_group(g, pattern);
      s.end_round();
    };

/// A broadcast run's informed multiset and the snapshot of it the
/// current round walks.  Every informed vertex places exactly one call
/// per round, so a round is one walk of the set as the round found it:
/// the producer emits the groups from the snapshot, the caller tiling
/// merges them against it, and a rejected round is restored from it.
/// The snapshot is one vector reused across rounds (the designed
/// n = 63 cut peaks at ~11 M entries, 270 MB); scanning it costs less
/// than half a walk of the frontier's hashed mask classes, which
/// snapshot() pays once per round.
///
/// Receivers join through receive(group, receiver), the group-aware
/// insert (SubcubeFrontier::insert_from): in a sweep round most
/// receivers are their caller entry flipped in one bit outside the free
/// mask, and such a receiver doubles that entry in one probe instead of
/// rediscovering it by a class scan.  The multiset is the plain
/// insert's by construction; a caller split off a larger entry, already
/// merged or covered twice, or a repeated receiver falls back to the
/// plain insert.  The layout matches the plain insert on every
/// broadcast replay subcube_test compares after every round.
class InformedSet {
 public:
  explicit InformedSet(int n) : frontier_(n) {}

  /// Starts the run at `source`: frontier and snapshot are {source}.
  void start(Vertex source) {
    frontier_.insert(source, 0);
    snapshot();
  }

  /// Copies the frontier into the snapshot, in its iteration order, and
  /// restarts the doubled() count.
  void snapshot() {
    doubled_ = 0;
    round_.clear();
    round_.reserve(static_cast<std::size_t>(frontier_.num_subcubes()));
    frontier_.for_each([&](Vertex p, Vertex m, std::uint64_t mult) {
      round_.push_back({p, m, mult});
    });
  }

  /// Adds the receiver subcube (receiver, g.free_mask) of caller group
  /// `g` (sibling coalescing, multiset semantics) through
  /// SubcubeFrontier::insert_from: a receiver that is its whole caller
  /// entry's sibling doubles that entry without a class scan.  The
  /// producer's own set and the validator's call it alike, in group
  /// order, so both build the same layout.
  void receive(const CallGroup& g, Vertex receiver) {
    if (frontier_.insert_from(g.prefix, receiver, g.free_mask)) ++doubled_;
  }

  /// Receivers since the last snapshot() that doubled their caller's
  /// entry (the frontier_doubled trace counter).
  [[nodiscard]] std::uint64_t doubled() const noexcept { return doubled_; }

  /// Puts the frontier back as the snapshot holds it: the same entries
  /// and count, only its iteration order may change.
  void restore() { frontier_.assign(round_); }

  /// The frontier as the round found it.
  [[nodiscard]] std::span<const WeightedSubcube> round() const noexcept { return round_; }
  [[nodiscard]] const SubcubeFrontier& frontier() const noexcept { return frontier_; }

 private:
  SubcubeFrontier frontier_;
  std::vector<WeightedSubcube> round_;
  std::uint64_t doubled_ = 0;
};

/// Optional SymbolicRoundSink hook: a sink that keeps the run's
/// informed set itself lends it read-only, so a broadcast producer
/// emits each round's callers from the sink's round snapshot instead of
/// rebuilding the same multiset (emit_broadcast_rounds_symbolic detects
/// this).  The snapshot holds {source} before the first round, and the
/// sink may retake it only in begin_round(); the frontier's counts are
/// read after end_round().  Sinks without the hook
/// (SymbolicScheduleBuilder, counting and forwarding sinks) get the
/// producer's own informed set through the same type.
template <class S>
concept InformedFrontierSink = requires(const S& s) {
  { s.informed_set() } -> std::same_as<const InformedSet&>;
};

/// A materialized symbolic round: groups plus a deduplicated pattern
/// table (groups reference patterns by index; pattern_off delimits the
/// flat pattern pool: pattern p is pattern_pool[pattern_off[p] ..
/// pattern_off[p+1])).
struct SymbolicRound {
  std::vector<CallGroup> groups;
  std::vector<std::uint32_t> group_pattern;  ///< pattern id per group
  std::vector<Vertex> pattern_pool;
  std::vector<std::uint32_t> pattern_off = {0};

  [[nodiscard]] std::size_t num_patterns() const noexcept {
    return pattern_off.size() - 1;
  }
  [[nodiscard]] std::span<const Vertex> pattern(std::uint32_t p) const noexcept {
    return {pattern_pool.data() + pattern_off[p],
            pattern_pool.data() + pattern_off[p + 1]};
  }
  [[nodiscard]] std::span<const Vertex> pattern_of_group(std::size_t g) const noexcept {
    return pattern(group_pattern[g]);
  }

  /// Empties the round, keeping its capacity (validators recycle one
  /// round across the run).
  void clear() {
    groups.clear();
    group_pattern.clear();
    pattern_pool.clear();
    pattern_off.assign(1, 0);
  }

  /// Records `g` with its own copy of `pattern` (no deduplication).
  /// Returns false, recording nothing, when the pattern pool would
  /// outgrow its 32-bit offsets; the caller picks the refusal.
  [[nodiscard]] bool append(const CallGroup& g, std::span<const Vertex> pattern) {
    if (pattern_pool.size() + pattern.size() > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    groups.push_back(g);
    group_pattern.push_back(static_cast<std::uint32_t>(num_patterns()));
    pattern_pool.insert(pattern_pool.end(), pattern.begin(), pattern.end());
    pattern_off.push_back(static_cast<std::uint32_t>(pattern_pool.size()));
    return true;
  }
};

/// A whole symbolic schedule — the compressed counterpart of
/// FlatSchedule (expand with FlatSchedule::from_symbolic for bounded n).
struct SymbolicSchedule {
  Vertex source = 0;
  int n = 0;  ///< cube dimension (vertices are 0 .. 2^n - 1)
  std::vector<SymbolicRound> rounds;

  /// Total concrete calls across all rounds (overflow-checked; returns
  /// false iff the sum wraps 64 bits).
  [[nodiscard]] bool total_calls(std::uint64_t& out) const noexcept {
    std::uint64_t sum = 0;
    for (const SymbolicRound& r : rounds) {
      for (const CallGroup& g : r.groups) {
        if (!checked_acc_u64(sum, g.count)) return false;
      }
    }
    out = sum;
    return true;
  }
};

/// SymbolicRoundSink that materializes a SymbolicSchedule, deduplicating
/// patterns per round (the sweep of one dimension reuses a small set of
/// window-value-determined routes across millions of groups).
class SymbolicScheduleBuilder {
 public:
  explicit SymbolicScheduleBuilder(Vertex source, int n) {
    schedule_.source = source;
    schedule_.n = n;
  }

  void begin_round() {
    schedule_.rounds.emplace_back();
    pattern_ids_.clear();
  }

  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    SymbolicRound& round = schedule_.rounds.back();
    const std::uint64_t key = pattern_key(pattern);
    std::uint32_t id = ~std::uint32_t{0};
    auto [lo, hi] = pattern_ids_.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      const std::span<const Vertex> have = round.pattern(it->second);
      if (std::equal(have.begin(), have.end(), pattern.begin(), pattern.end())) {
        id = it->second;
        break;
      }
    }
    if (id == ~std::uint32_t{0}) {
      // pattern_off is 32-bit; refuse rather than wrap (deduplication
      // keeps real rounds many orders of magnitude below this).
      if (round.pattern_pool.size() + pattern.size() >
          std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("symbolic round pattern pool exceeds 32-bit offsets");
      }
      id = static_cast<std::uint32_t>(round.num_patterns());
      round.pattern_pool.insert(round.pattern_pool.end(), pattern.begin(),
                                pattern.end());
      round.pattern_off.push_back(
          static_cast<std::uint32_t>(round.pattern_pool.size()));
      pattern_ids_.emplace(key, id);
    }
    round.groups.push_back(g);
    round.group_pattern.push_back(id);
  }

  void end_round() {}

  [[nodiscard]] SymbolicSchedule take() && { return std::move(schedule_); }
  [[nodiscard]] const SymbolicSchedule& schedule() const noexcept {
    return schedule_;
  }

 private:
  static std::uint64_t pattern_key(std::span<const Vertex> pattern) noexcept {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const Vertex x : pattern) h = detail::mix_u64(h ^ x);
    return h;
  }

  SymbolicSchedule schedule_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> pattern_ids_;
};

static_assert(SymbolicRoundSink<SymbolicScheduleBuilder>);

}  // namespace shc
