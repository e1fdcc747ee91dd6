// Symbolic Broadcast_k production — the paper's construction emitted as
// subcube-batched call groups instead of concrete calls.
//
// The dimension sweep's informed set is represented as a SubcubeFrontier
// (disjoint (prefix, free-mask) subcubes with multiplicity).  In the
// round sweeping dimension i (governed by level t), route_flip(u, i)
// reads only the bits of u in (0, c_t], so a frontier subcube whose free
// dims avoid that window yields ONE route pattern for all its vertices:
// the producer splits each subcube on its free low bits (empirically:
// almost never needed), computes the representative's route as
// cumulative XOR masks, and emits a CallGroup per piece.  Receivers are
// the translated subcubes, re-inserted with sibling coalescing — the
// frontier stays polynomial in n (roughly the product over label classes
// of |S_j| + 1) while representing up to 2^63 - 1 informed vertices.
//
// Every group of a round whose caller agrees on those window bits gets
// the same pattern, so the producer computes each route once per round
// and key u & mask_low(c_t), in a small direct-mapped cache
// (detail::RouteCache), instead of once per group.
//
// Memory and time are proportional to the number of groups, never to
// 2^n: this is what closes the ROADMAP's n <= 63 gap left by the
// streaming pipeline's explicit 2^n-vertex frontier.
//
// One informed set per run: every informed vertex places exactly one
// call per round, so the informed set is the only state the sweep
// carries — and the symbolic validator already keeps it, inserting the
// same receivers in the same order.  A sink that lends its informed set
// (InformedFrontierSink, the validator) is therefore read from its
// round snapshot: no producer-side frontier, snapshot or receiver
// insert.  Sinks that keep no informed set (the schedule builder,
// counting and forwarding sinks) are wrapped in detail::InformedKeeper,
// which keeps the producer's own InformedSet, built identically, so one
// walk loop serves both and the group order and every report are the
// same.  Trust is unchanged: the validator tiles the groups against its
// own snapshot, whichever one the producer walked.
//
// The emitted splits are *ledger-friendly* by construction: a round
// sweeping a dimension governed by level t splits every frontier
// subcube on its free bits inside the governing window (0, c_t], so
// every multi-hop group of the round pins the whole window.  Those
// pinned-everywhere-but-varying window bits are exactly what the
// occupancy ledger (sim/occupancy_ledger.hpp) buckets on, which keeps
// the designed m = 10 cut's ~11 M-group rounds at a few thousand claims
// per bucket — the property that lets certify_broadcast_symbolic close
// the designed construct(63, 10) spec within default budgets.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "shc/bits/audit.hpp"
#include "shc/bits/checked.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/subcube.hpp"
#include "shc/sim/symbolic_schedule.hpp"
#include "shc/sim/symbolic_validator.hpp"

namespace shc {

/// Producer-side statistics of one symbolic emission.
struct SymbolicProducerStats {
  std::uint64_t groups_emitted = 0;
  std::uint64_t peak_frontier_subcubes = 0;
  std::uint64_t final_frontier_subcubes = 0;
  std::uint64_t split_groups = 0;  ///< groups born from low-free-bit splits
};

namespace detail {

/// Minimal RoundSink that records a route_flip_append path as cumulative
/// XOR masks relative to the caller — the symbolic pattern format.
struct XorPathSink {
  Vertex base = 0;
  std::array<Vertex, 64> xs{};
  std::size_t len = 0;

  void begin_round() {}
  void end_round() {}
  void end_call() {}
  void push_vertex(Vertex v) {
    if (len >= xs.size()) throw std::runtime_error("route pattern too long");
    xs[len++] = v ^ base;
  }
  [[nodiscard]] Vertex last_vertex() const { return xs[len - 1] ^ base; }
  [[nodiscard]] std::span<const Vertex> span() const { return {xs.data(), len}; }
};

/// One producer run's routes for the current round, cached by the
/// caller's bits below the governing cut: route_flip(u, i) reads no
/// other bit of u, and XorPathSink writes the path relative to u, so
/// every caller with the same u & low gets the same pattern.  The cache
/// is direct-mapped on the key's low bits and tag-checked; a window
/// wider than kMaxBits shares slots, and the later key evicts the
/// earlier.  next_round() bumps a stamp that retires every slot at
/// once, so a round costs no sweep over 2^window slots.  A route longer
/// than a slot is not cached.
class RouteCache {
 public:
  /// Pattern vertices per slot: a slot is one 64-byte line, and routes
  /// of up to five hops (every level of a k <= 5 spec) fit.
  static constexpr std::size_t kSlotLen = 6;
  static constexpr int kMaxBits = 12;  ///< at most 2^12 slots

  /// Sized for keys below 2^window_bits.
  explicit RouteCache(int window_bits)
      : slots_(std::size_t{1} << std::min(window_bits, kMaxBits)) {}

  void next_round() noexcept { ++stamp_; }

  /// The pattern stored for `key` this round, or an empty span.
  [[nodiscard]] std::span<const Vertex> find(Vertex key) const noexcept {
    const Slot& s = slots_[key & (slots_.size() - 1)];
    if (s.stamp != stamp_ || s.tag != key) return {};
    return {s.xs.data(), s.len};
  }

  /// Stores `pattern` for `key` over whatever held its slot, unless it
  /// is longer than a slot.
  void store(Vertex key, std::span<const Vertex> pattern) noexcept {
    if (pattern.size() > kSlotLen) return;
    Slot& s = slots_[key & (slots_.size() - 1)];
    s.tag = key;
    s.stamp = stamp_;
    s.len = static_cast<std::uint32_t>(pattern.size());
    std::copy(pattern.begin(), pattern.end(), s.xs.begin());
  }

 private:
  struct Slot {
    Vertex tag = 0;
    std::uint32_t stamp = 0;
    std::uint32_t len = 0;
    std::array<Vertex, kSlotLen> xs{};
  };
  std::vector<Slot> slots_;
  std::uint32_t stamp_ = 0;
};

/// Lends a sink without the InformedFrontierSink hook the producer's
/// own informed set: forwards every call, retakes the snapshot in
/// begin_round and inserts each group's receivers in group order, as
/// the validator does.
template <SymbolicRoundSink Sink>
class InformedKeeper {
 public:
  InformedKeeper(Sink& sink, int n, Vertex source) : sink_(sink), informed_(n) {
    informed_.start(source);
  }

  void begin_round() {
    {
      SHC_TRACE_SCOPE("frontier_snapshot");
      informed_.snapshot();
    }
    sink_.begin_round();
  }
  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    sink_.end_call_group(g, pattern);
    informed_.insert(g.prefix ^ pattern.back(), g.free_mask);
  }
  void end_round() { sink_.end_round(); }
  [[nodiscard]] bool aborted() const { return sink_aborted(sink_); }
  [[nodiscard]] const InformedSet& informed_set() const noexcept { return informed_; }

 private:
  Sink& sink_;
  InformedSet informed_;
};

}  // namespace detail

/// Emits the unified Broadcast_k dimension sweep from `source` as
/// symbolic rounds of call groups into any SymbolicRoundSink.  Honors
/// the sink's optional aborted() hook.  Into an InformedFrontierSink
/// it walks the sink's round snapshot instead of keeping its own
/// informed set; that set must start as {source}, and the returned
/// frontier stats then describe it as the sink left it (a sink that
/// rejects a round stops growing it).  Throws std::invalid_argument for
/// an out-of-range source or a lent set that does not start at it, and
/// std::runtime_error when the frontier exceeds `max_frontier_subcubes`
/// or a subcube would split into more than 2^24 pieces (pathological
/// custom constructions; the paper's specs stay far below both).
template <SymbolicRoundSink Sink>
SymbolicProducerStats emit_broadcast_rounds_symbolic(
    const SparseHypercubeSpec& spec, Vertex source, Sink& sink,
    std::uint64_t max_frontier_subcubes = std::uint64_t{1} << 26) {
  const int n = spec.n();
  if (source >= spec.num_vertices()) {
    throw std::invalid_argument("source out of range");
  }
  if constexpr (!InformedFrontierSink<Sink>) {
    detail::InformedKeeper<Sink> keeper(sink, n, source);
    return emit_broadcast_rounds_symbolic(spec, source, keeper, max_frontier_subcubes);
  } else {
    const std::span<const WeightedSubcube> start = sink.informed_set().round();
    if ((start.size() != 1 || start[0] != WeightedSubcube{source, 0, 1}) &&
        !detail::sink_aborted(sink)) {
      throw std::invalid_argument("sink's informed frontier does not start at the source");
    }

    SymbolicProducerStats stats;
    stats.peak_frontier_subcubes = sink.informed_set().frontier().num_subcubes();
    detail::RouteCache routes(spec.cuts().back());
    detail::XorPathSink path;
    for (Dim i = n; i >= 1; --i) {
      if (detail::sink_aborted(sink)) break;
      const int t = spec.level_of_dim(i);
      const Vertex low = t < 0 ? 0 : mask_low(spec.cuts()[static_cast<std::size_t>(t)]);
      routes.next_round();

      // One snapshot entry's groups: split on the route-relevant free
      // bits, one group per pinned assignment.
      const auto emit_entry = [&](const WeightedSubcube& e) {
        if (e.mult != 1) {
          throw std::runtime_error("producer frontier lost disjointness");
        }
        const Vertex split = e.mask & low;
        const Vertex rest = e.mask & ~split;
        if (weight(split) > 24) {
          throw std::runtime_error("subcube split blow-up (2^" +
                                   std::to_string(weight(split)) + " pieces)");
        }
        Vertex a = 0;
        for (;;) {
          const Vertex u = e.prefix | a;
          std::span<const Vertex> pattern = routes.find(u & low);
          if (pattern.empty()) {
            path.base = u;
            path.len = 0;
            route_flip_append(spec, u, i, path);
            pattern = path.span();
            routes.store(u & low, pattern);
          }

          CallGroup g;
          g.prefix = u;
          g.free_mask = rest;
          std::uint64_t count = 0;
          if (!checked_shift_u64(static_cast<unsigned>(weight(rest)), count)) {
            throw std::runtime_error("group count overflow");
          }
          g.count = count;
          sink.end_call_group(g, pattern);
          ++stats.groups_emitted;
          if (split != 0 && a != 0) ++stats.split_groups;

          if (a == split) break;
          a = (a - split) & split;
        }
      };

      sink.begin_round();
      {
        // Covers emission plus the sink's streamed per-group work (the
        // validator's end_call_group records the group; a keeper also
        // inserts its receivers); the sink's begin_round snapshot and
        // end_round phases land outside this scope.
        SHC_TRACE_SCOPE("produce_round");
        for (const WeightedSubcube& e : sink.informed_set().round()) emit_entry(e);
      }
      sink.end_round();

      const SubcubeFrontier& after = sink.informed_set().frontier();
      // Doubling: a clean round r leaves exactly 2^r informed vertices.
      SHC_AUDIT_CHECK(
          detail::sink_aborted(sink) ||
              (after.count_ok() && after.total_count() == (std::uint64_t{1} << (n - i + 1))),
          "informed frontier must double every clean round");
      stats.peak_frontier_subcubes =
          std::max(stats.peak_frontier_subcubes, after.num_subcubes());
      if (after.num_subcubes() > max_frontier_subcubes) {
        throw std::runtime_error(
            "symbolic frontier exceeded the subcube cap (" +
            std::to_string(after.num_subcubes()) + " subcubes)");
      }
    }
    stats.final_frontier_subcubes = sink.informed_set().frontier().num_subcubes();
    return stats;
  }
}

/// Materializes the whole symbolic schedule (pattern tables
/// deduplicated per round).  Memory is proportional to the group count;
/// admits n <= 63.
[[nodiscard]] SymbolicSchedule make_symbolic_broadcast_schedule(
    const SparseHypercubeSpec& spec, Vertex source);

/// Outcome of a symbolic production + validation run.
struct SymbolicCertification {
  ValidationReport report;      ///< same shape as the other validators'
  SymbolicRunStats checks;      ///< validator-side group/expansion stats
  SymbolicProducerStats producer;
};

/// The spec the recorded symbolic showcases (bench rows, sweep rows)
/// certify at dimension n — one definition so BENCH_schedule.json and
/// BENCH_sweep.jsonl always measure the same graphs.  Certification
/// cost scales with the subcube frontier (roughly the product over
/// label classes of |S_j| + 1): up to n = 48 the canonical designed
/// cuts are used; beyond, the showcase pins construct_base(n, 6)
/// (lambda = 4) so BM_SymbolicCertify/63 stays the cheap
/// representation-limit anchor of the trajectory.  The designed
/// construct(63, 10) spec itself — certifiable since the occupancy
/// ledger — has its own gated row, BM_SymbolicCertifyDesigned/63.
[[nodiscard]] SparseHypercubeSpec symbolic_showcase_spec(int n, int k);

/// Runs Broadcast_k from `source` through the fully symbolic pipeline:
/// emit_broadcast_rounds_symbolic producing into a
/// SymbolicBroadcastValidator over the implicit SpecView oracle.  No
/// concrete call ever exists outside the seeded sample replays; time and
/// memory are polynomial in n for the paper's constructions.  Admits
/// n <= 63.
[[nodiscard]] SymbolicCertification certify_broadcast_symbolic(
    const SparseHypercubeSpec& spec, Vertex source, const ValidationOptions& opt,
    const SymbolicCheckOptions& sopt = {});

}  // namespace shc
