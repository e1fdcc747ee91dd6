#include "shc/mlbg/broadcast.hpp"

#include <cassert>
#include <stdexcept>

#include "shc/sim/check_options.hpp"
#include "shc/sim/streaming_validator.hpp"

namespace shc {

namespace {

/// route_flip_append's sink for one path: its vertices, in order.
struct PathSink {
  std::vector<Vertex> path;
  void begin_round() {}
  void push_vertex(Vertex v) { path.push_back(v); }
  [[nodiscard]] Vertex last_vertex() const { return path.back(); }
  void end_call() {}
  void end_round() {}
};

/// Exact upper bound on the flat path pool: the round sweeping dimension
/// i has 2^(n-i) calls of at most route_length_bound(i) + 1 vertices.
/// Calls per_round(calls, path_vertices) for each round and returns the
/// whole-schedule sum.  Overflow-audited (the callers' n <= 28/32 guards
/// keep it far from the 64-bit edge, but the arithmetic itself must not
/// be the limiter).
template <class PerRound>
std::uint64_t pool_upper_bound(const SparseHypercubeSpec& spec, PerRound&& per_round) {
  std::uint64_t bound = 0;
  for (Dim i = spec.n(); i >= 1; --i) {
    const std::uint64_t calls = cube_order(spec.n() - i);
    std::uint64_t term = 0;
    const bool fits =
        checked_mul_u64(calls, static_cast<std::uint64_t>(route_length_bound(spec, i) + 1),
                        term) &&
        checked_acc_u64(bound, term);
    assert(fits);  // shc-lint: allow(assert-guard) — n <= 32 keeps the bound far below 2^64
    (void)fits;
    per_round(calls, term);
  }
  return bound;
}

}  // namespace

std::vector<Vertex> route_flip(const SparseHypercubeSpec& spec, Vertex u, Dim i) {
  if (i < 1 || i > spec.n()) {
    throw std::invalid_argument("route_flip: dimension " + std::to_string(i) +
                                " outside 1.." + std::to_string(spec.n()));
  }
  PathSink sink;
  route_flip_append(spec, u, i, sink);
  return std::move(sink.path);
}

int route_length_bound(const SparseHypercubeSpec& spec, Dim i) noexcept {
  const int t = spec.level_of_dim(i);
  // Core dims: direct edge.  Level t dims: one hop more than a window
  // dim of level t, which lives in the governed range of level t-1.
  return t < 0 ? 1 : t + 2;
}

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
  schedule.reserve(static_cast<std::size_t>(n), order - 1,
                   pool_upper_bound(spec, [](std::uint64_t, std::uint64_t) {}));
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
  // Arena bound of each round: its calls and path vertices plus the
  // call-offset and round arrays — exactly what reserve_round() makes
  // the scratch arena hold.  The whole-schedule figure is what
  // make_broadcast_schedule would reserve.
  const std::uint64_t whole_pool =
      pool_upper_bound(spec, [&](std::uint64_t calls, std::uint64_t pool) {
        cert.largest_round_arena_bytes = std::max(
            cert.largest_round_arena_bytes, FlatSchedule::arena_bytes(1, calls, pool));
      });
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
