// RoundSink — the producer-side contract of the streaming schedule
// pipeline.
//
// A schedule producer (e.g. mlbg's emit_broadcast_rounds) emits rounds
// of calls through the same cursor verbs FlatSchedule already exposes:
//
//   begin_round();            // open round t
//   push_vertex(v); ...       // grow the current call's path
//   last_vertex();            // peek (producers chain calls off it)
//   end_call();               // seal the call into the round
//   end_round();              // round complete — consumers may process it
//
// Two models ship in-tree:
//   * FlatSchedule            — the whole-arena builder: end_round() is a
//                               no-op and every round accumulates;
//   * StreamingBroadcastValidator — validates each round on end_round()
//                               and recycles one bounded scratch arena,
//                               so peak memory is the largest round, not
//                               the whole 2^n - 1 call schedule.
//
// Optional hooks, detected by producers via `requires`:
//   * reserve_round(calls, path_vertices) — exact pre-sizing of the
//     consumer's round buffer (keeps the scratch arena allocation-tight);
//   * aborted() -> bool — consumer asks the producer to stop early
//     (e.g. the streamed schedule already failed validation).  Every
//     producer, concrete or symbolic, reads it through
//     detail::sink_aborted.
#pragma once

#include <concepts>

#include "shc/bits/vertex.hpp"

namespace shc {

/// Anything the round/call cursor producers can emit into.
template <class S>
concept RoundSink = requires(S& s, const S& cs, Vertex v) {
  s.begin_round();
  s.push_vertex(v);
  { cs.last_vertex() } -> std::convertible_to<Vertex>;
  s.end_call();
  s.end_round();
};

namespace detail {

/// The optional aborted() hook of any sink (RoundSink or
/// SymbolicRoundSink): false for sinks without one.
template <class S>
[[nodiscard]] bool sink_aborted(const S& sink) {
  if constexpr (requires {
                  { sink.aborted() } -> std::convertible_to<bool>;
                }) {
    return sink.aborted();
  } else {
    return false;
  }
}

}  // namespace detail

}  // namespace shc
