#include "shc/mlbg/broadcast.hpp"

#include <cassert>
#include <stdexcept>

#include "shc/sim/check_options.hpp"
#include "shc/sim/streaming_validator.hpp"

namespace shc {

std::vector<Vertex> route_flip(const SparseHypercubeSpec& spec, Vertex u, Dim i) {
  if (i < 1 || i > spec.n()) {
    throw std::invalid_argument("route_flip: dimension " + std::to_string(i) +
                                " outside 1.." + std::to_string(spec.n()));
  }
  if (spec.has_edge_dim(u, i)) return {u, flip(u, i)};

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
  std::vector<Vertex> path = route_flip(spec, u, bridge);
  const Vertex v = path.back();
  assert(spec.label_at(v, t) == owner);  // shc-lint: allow(assert-guard) — bridge lemma
  assert(spec.has_edge_dim(v, i));       // shc-lint: allow(assert-guard) — bridge lemma
  path.push_back(flip(v, i));
  return path;
}

int route_length_bound(const SparseHypercubeSpec& spec, Dim i) noexcept {
  const int t = spec.level_of_dim(i);
  // Core dims: direct edge.  Level t dims: one hop more than a window
  // dim of level t, which lives in the governed range of level t-1.
  return t < 0 ? 1 : t + 2;
}

namespace {

/// Exact upper bound on the flat path pool: the round sweeping dimension
/// i has 2^(n-i) calls of at most route_length_bound(i) + 1 vertices.
/// Overflow-audited (the callers' n <= 28/32 guards keep it far from the
/// 64-bit edge, but the arithmetic itself must not be the limiter).
std::uint64_t pool_upper_bound(const SparseHypercubeSpec& spec) {
  std::uint64_t bound = 0;
  for (Dim i = spec.n(); i >= 1; --i) {
    std::uint64_t term = 0;
    const bool fits =
        checked_mul_u64(static_cast<std::uint64_t>(route_length_bound(spec, i) + 1),
                        cube_order(spec.n() - i), term) &&
        checked_acc_u64(bound, term);
    assert(fits);  // shc-lint: allow(assert-guard) — n <= 32 keeps the bound far below 2^64
    (void)fits;
  }
  return bound;
}

}  // namespace

FlatSchedule make_broadcast_schedule(const SparseHypercubeSpec& spec, Vertex source) {
  if (spec.n() > 28) {
    throw std::invalid_argument("make_broadcast_schedule: n = " + std::to_string(spec.n()) +
                                " exceeds 28 (the schedule materializes 2^n flat calls)");
  }
  if (source >= spec.num_vertices()) {
    throw std::invalid_argument("make_broadcast_schedule: source " + std::to_string(source) +
                                " out of range for n = " + std::to_string(spec.n()));
  }
  const int n = spec.n();
  const std::uint64_t order = spec.num_vertices();

  // The whole-arena builder is just the streaming producer pointed at a
  // FlatSchedule sink with the full reservation made up front.
  FlatSchedule schedule;
  schedule.source = source;
  schedule.reserve(static_cast<std::size_t>(n), order - 1, pool_upper_bound(spec));
  emit_broadcast_rounds(spec, source, schedule);
  return schedule;
}

StreamingCertification certify_broadcast_streaming(const SparseHypercubeSpec& spec,
                                                   Vertex source,
                                                   const ValidationOptions& opt,
                                                   int threads, WorkerPool* pool) {
  // Every certify_* entry point rejects a worker count outside
  // [1, kMaxCheckThreads] the same way, lent pool or not.
  require_check_threads("certify_broadcast_streaming: threads", threads);
  const int n = spec.n();

  StreamingCertification cert;
  // Hard guard, not an assert: n reaches here from user input (e.g.
  // shc_sweep --big), and beyond 32 the producer's frontier reservation
  // alone is 2^n vertices — fail with an explicit report instead of
  // silently attempting a terabyte allocation in Release.
  if (n > 32) {
    cert.report.ok = false;
    cert.report.error =
        "n = " + std::to_string(n) +
        " exceeds the streaming pipeline limit 32 (the producer holds the "
        "2^n-vertex frontier in memory)";
    return cert;
  }
  if (source >= spec.num_vertices()) {
    // Same report the serial validator gives; guarded here so Debug
    // builds don't trip the producer's assert before the sink can say it.
    cert.report.ok = false;
    cert.report.error = "source out of range";
    return cert;
  }
  // Arena bound of the round sweeping dimension i: 2^(n-i) calls, each
  // at most route_length_bound + 1 path vertices, plus the call-offset
  // and round arrays — exactly what reserve_round() makes the scratch
  // arena hold.  The whole-schedule figure is what make_broadcast_schedule
  // would reserve.
  std::uint64_t whole_pool = 0;
  for (Dim i = n; i >= 1; --i) {
    const std::size_t calls = static_cast<std::size_t>(1)
                              << static_cast<unsigned>(n - i);
    std::uint64_t pool = 0;
    const bool fits = checked_mul_u64(
                          calls, static_cast<std::uint64_t>(
                                     route_length_bound(spec, i) + 1),
                          pool) &&
                      checked_acc_u64(whole_pool, pool);
    assert(fits);  // shc-lint: allow(assert-guard) — n <= 32 keeps the bound far below 2^64
    (void)fits;
    cert.largest_round_arena_bytes =
        std::max(cert.largest_round_arena_bytes,
                 FlatSchedule::arena_bytes(1, calls, pool));
  }
  cert.whole_schedule_arena_bytes = FlatSchedule::arena_bytes(
      static_cast<std::size_t>(n),
      static_cast<std::size_t>(spec.num_vertices()) - 1, whole_pool);

  const SpecView view(spec);
  StreamingBroadcastValidator<SpecView> sink(view, source, opt, threads, pool);
  emit_broadcast_rounds(spec, source, sink);
  cert.report = sink.finish();
  cert.peak_round_arena_bytes = sink.peak_round_arena_bytes();
  cert.peak_edge_table_bytes = sink.peak_edge_table_bytes();
  cert.calls = sink.calls_seen();
  cert.path_vertices = sink.vertices_seen();
  return cert;
}

FlatSchedule make_broadcast2_literal(const SparseHypercubeSpec& spec, Vertex source) {
  if (spec.k() != 2) {
    throw std::invalid_argument("make_broadcast2_literal: k = " + std::to_string(spec.k()) +
                                " (the literal Broadcast_2 needs k == 2)");
  }
  if (spec.n() > 28) {
    throw std::invalid_argument("make_broadcast2_literal: n = " + std::to_string(spec.n()) +
                                " exceeds 28 (the schedule materializes 2^n flat calls)");
  }
  if (source >= spec.num_vertices()) {
    throw std::invalid_argument("make_broadcast2_literal: source " + std::to_string(source) +
                                " out of range for n = " + std::to_string(spec.n()));
  }
  const int n = spec.n();
  const int m = spec.core_dim();
  const std::uint64_t order = spec.num_vertices();
  const ConstructionLevel& lv = spec.levels().front();

  FlatSchedule schedule;
  schedule.source = source;
  schedule.reserve(static_cast<std::size_t>(n), order - 1, 3 * (order - 1));

  std::vector<Vertex> informed;
  informed.reserve(order);
  informed.push_back(source);

  // Phase 1: dissemination between subcubes using the prefix of length
  // n - m.  For each informed w: call flip(w, i) directly when the edge
  // exists, else call flip_i(flip_j(w)) through the Rule-1 neighbor
  // flip_j(w) whose label owns dimension i.
  for (Dim i = n; i >= m + 1; --i) {
    schedule.begin_round();
    const std::size_t frontier = informed.size();
    const Label owner = lv.dim_owner[static_cast<std::size_t>(i - lv.dim_lo - 1)];
    for (std::size_t idx = 0; idx < frontier; ++idx) {
      const Vertex w = informed[idx];
      schedule.push_vertex(w);
      if (spec.has_edge_dim(w, i)) {
        schedule.push_vertex(flip(w, i));
      } else {
        const Dim j = lv.labeling.flip_towards(window_value(w, 0, m), owner);
        assert(j >= 1 && j <= m);  // shc-lint: allow(assert-guard) — Condition A of the labeling
        const Vertex via = flip(w, j);
        schedule.push_vertex(via);
        schedule.push_vertex(flip(via, i));
      }
      informed.push_back(schedule.last_vertex());
      schedule.end_call();
    }
  }

  // Phase 2: dissemination inside each m-subcube by direct edges.
  for (Dim i = m; i >= 1; --i) {
    schedule.begin_round();
    const std::size_t frontier = informed.size();
    for (std::size_t idx = 0; idx < frontier; ++idx) {
      const Vertex w = informed[idx];
      schedule.push_vertex(w);
      schedule.push_vertex(flip(w, i));
      informed.push_back(schedule.last_vertex());
      schedule.end_call();
    }
  }
  return schedule;
}

}  // namespace shc
