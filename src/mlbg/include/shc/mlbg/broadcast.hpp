// Minimum-time k-line broadcast schemes for sparse hypercubes
// (Scheme Broadcast_2, Theorem 4; Scheme Broadcast_k, Theorem 6).
//
// The implementation unifies the paper's recursive phases into a single
// dimension sweep: for i = n down to 1 every informed vertex w places
// one call realizing the dimension-i flip via route_flip().  Rounds
// 1 .. n-c_{k-1} are the paper's Phase 1 at the outermost level; the
// remaining rounds are the recursive Phase 2 calls, which at every
// recursion depth are themselves dimension sweeps — concatenating them
// yields exactly this loop.  Tests cross-check the unified scheme
// against a literal transcription of Broadcast_2 for k = 2.
//
// Schedules are produced directly into the flat arena representation:
// one contiguous path pool, zero per-call heap allocations, memory
// proportional to the total path length.
#pragma once

#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "shc/bits/checked.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/flat_schedule.hpp"
#include "shc/sim/round_sink.hpp"
#include "shc/sim/validator.hpp"

namespace shc {

class WorkerPool;

/// Path realizing the dimension-i flip from u (the paper's Remark 1 /
/// Phase-1 detour):
///   * the direct edge {u, flip(u, i)} when present (length 1);
///   * otherwise a recursive walk to a nearby vertex v whose label owns
///     dimension i (perturbing only dimensions below the owning window),
///     followed by the edge {v, flip(v, i)}.
/// The result starts at u, ends at flip(v, i) for some v that agrees
/// with u on all dimensions >= the owning window's top, and has length
/// <= level(i) + 2 <= k.  Throws std::invalid_argument for i outside
/// 1..n.
[[nodiscard]] std::vector<Vertex> route_flip(const SparseHypercubeSpec& spec, Vertex u,
                                             Dim i);

/// Worst-case route_flip length for dimension i in this spec
/// (= owning level index + 2; 1 for core dimensions).
[[nodiscard]] int route_length_bound(const SparseHypercubeSpec& spec, Dim i) noexcept;

/// Appends the route_flip(spec, u, i) path to the call currently being
/// built in `out` (allocation-free into a reserved arena; templated so
/// any RoundSink — the whole-arena FlatSchedule or a streaming
/// consumer — receives the path directly).  The caller seals the call
/// with out.end_call().
template <RoundSink Sink>
void route_flip_append(const SparseHypercubeSpec& spec, Vertex u, Dim i,
                       Sink& out) {
  // shc-lint: allow(assert-guard) — internal callers pass 1 <= i <= n;
  // route_flip checks it on caller input
  assert(i >= 1 && i <= spec.n());
  if (spec.has_edge_dim(u, i)) {
    out.push_vertex(u);
    out.push_vertex(flip(u, i));
    return;
  }

  const int t = spec.level_of_dim(i);
  // shc-lint: allow(assert-guard) — internal invariant of the construction
  assert(t >= 0 && "core dimensions always have edges");
  const ConstructionLevel& lv = spec.levels()[static_cast<std::size_t>(t)];
  const Label owner = lv.dim_owner[static_cast<std::size_t>(i - lv.dim_lo - 1)];

  // Condition A: within u's window cube some neighbor (not u itself —
  // otherwise the edge would exist) carries the owner label.
  const Vertex win = window_value(u, lv.win_lo, lv.win_hi);
  const Dim rel = lv.labeling.flip_towards(win, owner);
  // shc-lint: allow(assert-guard) — Condition A of the labeling
  assert(rel >= 1 && "flip_towards returned self although edge is absent");
  const Dim bridge = lv.win_lo + rel;

  // Realize the bridge flip recursively; it only perturbs dimensions
  // below this level's window, so the label at the endpoint is exactly
  // the owner label and the i-edge exists there.
  route_flip_append(spec, u, bridge, out);
  const Vertex v = out.last_vertex();
  assert(spec.label_at(v, t) == owner);  // shc-lint: allow(assert-guard) — bridge lemma
  assert(spec.has_edge_dim(v, i));       // shc-lint: allow(assert-guard) — bridge lemma
  out.push_vertex(flip(v, i));
}

/// The unified Broadcast_k dimension sweep as a streaming producer:
/// emits the n rounds one at a time into any RoundSink.  Only the
/// frontier (informed-vertex list) is held by the producer; whether the
/// schedule is materialized is the sink's choice, which is what lifts
/// the certified range to n <= 32 — memory is the frontier plus the
/// sink's largest-round buffer, never 2^n - 1 calls at once.
///
/// Optional sink hooks (detected statically): reserve_round(calls,
/// path_vertices) is called with exact per-round counts before each
/// begin_round(); aborted() stops the sweep early (e.g. when a
/// validating sink has already failed).  Throws std::invalid_argument
/// for n > 32 or an out-of-range source.
template <RoundSink Sink>
void emit_broadcast_rounds(const SparseHypercubeSpec& spec, Vertex source,
                           Sink& sink) {
  if (spec.n() > 32) {
    throw std::invalid_argument("emit_broadcast_rounds: n = " + std::to_string(spec.n()) +
                                " exceeds 32 (the producer holds the 2^n-vertex "
                                "frontier in memory)");
  }
  if (source >= spec.num_vertices()) {
    throw std::invalid_argument("emit_broadcast_rounds: source " + std::to_string(source) +
                                " out of range for n = " + std::to_string(spec.n()));
  }
  const int n = spec.n();

  std::vector<Vertex> informed;
  informed.reserve(spec.num_vertices());
  informed.push_back(source);
  for (Dim i = n; i >= 1; --i) {
    if (detail::sink_aborted(sink)) return;
    const std::size_t frontier = informed.size();
    if constexpr (requires(Sink& s) {
                    s.reserve_round(std::size_t{}, std::size_t{});
                  }) {
      // Overflow-audited: the frontier is bounded by 2^31 here (n <= 32),
      // but the reservation arithmetic must stay provably un-wrapped all
      // the way to the representation limit.
      std::uint64_t path_vertices = 0;
      const bool fits = checked_mul_u64(
          frontier, static_cast<std::uint64_t>(route_length_bound(spec, i) + 1),
          path_vertices);
      assert(fits);  // shc-lint: allow(assert-guard) — n <= 32 keeps it far below 2^64
      if (fits) {
        sink.reserve_round(frontier, static_cast<std::size_t>(path_vertices));
      }
    }
    sink.begin_round();
    for (std::size_t w = 0; w < frontier; ++w) {
      route_flip_append(spec, informed[w], i, sink);
      informed.push_back(sink.last_vertex());
      sink.end_call();
    }
    sink.end_round();
  }
}

/// The unified Broadcast_k scheme from `source`: n rounds, round t
/// sweeping dimension n - t + 1, informed set exactly doubling.  The
/// schedule is k-line feasible for k = spec.k() (validated in tests via
/// the simulator, never assumed).  Memory: 2^n - 1 flat calls, one
/// arena.  Throws std::invalid_argument for n > 28 (use
/// certify_broadcast_streaming beyond) or an out-of-range source.
[[nodiscard]] FlatSchedule make_broadcast_schedule(const SparseHypercubeSpec& spec,
                                                   Vertex source);

/// Outcome of a streamed production + validation run.
struct StreamingCertification {
  ValidationReport report;  ///< identical to the serial validator's verdict

  /// Observed high-water mark of the consumer's round buffer.
  std::size_t peak_round_arena_bytes = 0;

  /// A-priori bound: the arena footprint of the largest single round.
  /// The pipeline guarantees peak_round_arena_bytes <= this.
  std::size_t largest_round_arena_bytes = 0;

  /// What materializing the whole schedule would have reserved — the
  /// denominator of the streaming memory claim.
  std::size_t whole_schedule_arena_bytes = 0;

  /// High-water mark of the validator's per-round edge table (0 when
  /// every round's edge-disjointness was implied by single-hop
  /// structure) — reported so the pipeline's full memory footprint is
  /// visible, not just the schedule arena.
  std::size_t peak_edge_table_bytes = 0;

  std::uint64_t calls = 0;           ///< calls streamed through the sink
  std::uint64_t path_vertices = 0;   ///< path vertices streamed
};

/// Runs Broadcast_k from `source` through the streaming pipeline:
/// emit_broadcast_rounds producing into a StreamingBroadcastValidator
/// over the implicit SpecView oracle, each round's checks sharded over
/// `pool` when lent, else over `threads` workers.  No schedule is ever
/// materialized; peak schedule memory is the largest single round.
/// Pre: spec.n() <= 32.
[[nodiscard]] StreamingCertification certify_broadcast_streaming(
    const SparseHypercubeSpec& spec, Vertex source, const ValidationOptions& opt,
    int threads = 1, WorkerPool* pool = nullptr);

/// Literal transcription of the paper's Scheme Broadcast_2 (two explicit
/// phases).  Throws std::invalid_argument unless spec.k() == 2,
/// n <= 28 and the source is in range.  Used by tests to certify that
/// the unified scheme equals the published one.
[[nodiscard]] FlatSchedule make_broadcast2_literal(const SparseHypercubeSpec& spec,
                                                   Vertex source);

}  // namespace shc
