// Per-layer attribution built from the benchmark's own code.
//
// The facade (shc::certify) times a certification as one number.  To
// split it, the traced pass recomposes the exact certify_* pipelines
// from public entry points, with a forwarding sink between producer and
// validator that times every validator call:
//
//   broadcast: emit_broadcast_rounds_symbolic -> TimedSink ->
//              SymbolicBroadcastValidator<SpecView>
//   gossip:    make_symbolic_broadcast_schedule ->
//              emit_gather_broadcast_gossip_symbolic -> TimedSink ->
//              SymbolicGossipValidator<SpecView>
//
// The producer's self time is the pipeline wall minus the validator
// calls.  Inside the validator calls, the flight recorder's phase
// scopes (caller_tiling, frontier_insert, apply_round, ...) are summed
// by name from a TraceSession with no sinks.  CountingSink drives the
// producer alone and predicts the validator's exact counters, so every
// certification is checked against an independent count.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "shc/api/certify.hpp"
#include "shc/gossip/symbolic_gossip.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/obs/recorder.hpp"

namespace perfbench {

/// Wall time spent inside each validator entry point.
struct CallTimes {
  std::uint64_t begin_round_ns = 0;
  std::uint64_t end_call_group_ns = 0;
  std::uint64_t end_round_ns = 0;
  std::uint64_t finish_ns = 0;

  [[nodiscard]] std::uint64_t total() const {
    return begin_round_ns + end_call_group_ns + end_round_ns + finish_ns;
  }
  CallTimes& operator+=(const CallTimes& o) {
    begin_round_ns += o.begin_round_ns;
    end_call_group_ns += o.end_call_group_ns;
    end_round_ns += o.end_round_ns;
    finish_ns += o.finish_ns;
    return *this;
  }
};

/// Forwards every SymbolicRoundSink call to `inner`, timing it.
template <class Inner>
class TimedSink {
 public:
  TimedSink(Inner& inner, CallTimes& times) : inner_(inner), times_(times) {}

  void begin_round() {
    const std::uint64_t t0 = now_ns();
    inner_.begin_round();
    times_.begin_round_ns += now_ns() - t0;
  }
  void end_call_group(const shc::CallGroup& g, std::span<const shc::Vertex> pattern) {
    const std::uint64_t t0 = now_ns();
    inner_.end_call_group(g, pattern);
    times_.end_call_group_ns += now_ns() - t0;
  }
  void end_round() {
    const std::uint64_t t0 = now_ns();
    inner_.end_round();
    times_.end_round_ns += now_ns() - t0;
  }
  [[nodiscard]] bool aborted() const { return inner_.aborted(); }

 private:
  Inner& inner_;
  CallTimes& times_;
};

/// Null sink for the producer alone.  Counts what the ledger-mode
/// validators will count: groups, and the occupancy claims of every
/// round that holds a multi-hop call (one claim per hop).
class CountingSink {
 public:
  void begin_round() {
    round_hops_ = 0;
    round_groups_ = 0;
    round_multihop_ = false;
  }
  void end_call_group(const shc::CallGroup&, std::span<const shc::Vertex> pattern) {
    ++groups;
    ++round_groups_;
    const std::uint64_t hops = pattern.size() - 1;
    round_hops_ += hops;
    if (hops >= 2) round_multihop_ = true;
  }
  void end_round() {
    ++rounds;
    if (round_multihop_) edge_claims += round_hops_;
    endpoint_claims += 2 * round_groups_;
  }

  std::uint64_t groups = 0;
  std::uint64_t rounds = 0;
  std::uint64_t edge_claims = 0;      ///< hop claims of multi-hop rounds
  std::uint64_t endpoint_claims = 0;  ///< gossip: two endpoints per group

 private:
  std::uint64_t round_hops_ = 0;
  std::uint64_t round_groups_ = 0;
  bool round_multihop_ = false;
};

/// What the producer alone predicts for one (spec, source): the counters
/// every certification of it must report.
struct ProducerCount {
  std::uint64_t groups = 0;
  std::uint64_t rounds = 0;
  std::uint64_t calls = 0;  ///< broadcast calls or gossip exchanges
  std::uint64_t occupancy_claims = 0;
  std::uint64_t peak_frontier = 0;  ///< broadcast only
};

/// Drives the symbolic broadcast producer alone into a CountingSink.
[[nodiscard]] inline ProducerCount count_broadcast(const shc::SparseHypercubeSpec& spec,
                                                   shc::Vertex source) {
  CountingSink sink;
  const shc::SymbolicProducerStats st = shc::emit_broadcast_rounds_symbolic(spec, source, sink);
  ProducerCount c;
  c.groups = sink.groups;
  c.rounds = sink.rounds;
  c.calls = spec.num_vertices() - 1;
  // The ledger claims every hop of a multi-hop round, then each final
  // informed subcube once in the endgame.
  c.occupancy_claims = sink.edge_claims + st.final_frontier_subcubes;
  c.peak_frontier = st.peak_frontier_subcubes;
  return c;
}

/// Drives the gather-then-broadcast gossip producer alone into a
/// CountingSink.
[[nodiscard]] inline ProducerCount count_gossip(const shc::SparseHypercubeSpec& spec,
                                                shc::Vertex root) {
  CountingSink sink;
  shc::emit_gather_broadcast_gossip_symbolic(shc::make_symbolic_broadcast_schedule(spec, root),
                                             sink);
  ProducerCount c;
  c.groups = sink.groups;
  c.rounds = sink.rounds;
  c.calls = 2 * (spec.num_vertices() - 1);
  c.occupancy_claims = sink.endpoint_claims + sink.edge_claims;
  return c;
}

/// A recomposed, call-timed certification.
struct TracedRun {
  shc::CertifyResult result;   ///< the fields the facade fills, seconds = 0
  CallTimes calls;
  std::uint64_t wall_ns = 0;     ///< validator construction to finish()
  std::uint64_t schedule_ns = 0; ///< gossip: forward schedule build
};

/// Fills the request echo of a recomposed result, so to_json_row prints
/// the row the facade would.
inline void echo_request(shc::CertifyResult& res, shc::Workload workload,
                         const shc::SparseHypercubeSpec& spec) {
  res.workload = workload;
  res.n = spec.n();
  res.k = spec.k();
  res.cuts = spec.cuts();
  res.model = "edge-disjoint";
}

/// certify_broadcast_symbolic, recomposed with a TimedSink.
[[nodiscard]] inline TracedRun traced_broadcast(const shc::SparseHypercubeSpec& spec,
                                                shc::Vertex source,
                                                const shc::CommonCheckOptions& common) {
  TracedRun run;
  shc::ValidationOptions opt;
  opt.k = spec.k();
  shc::SymbolicCheckOptions sopt;
  static_cast<shc::CommonCheckOptions&>(sopt) = common;
  const std::uint64_t t0 = now_ns();
  const shc::SpecView view(spec);
  shc::SymbolicBroadcastValidator<shc::SpecView> validator(view, source, opt, sopt);
  TimedSink sink(validator, run.calls);
  shc::CertifyResult& res = run.result;
  bool producer_failed = false;
  try {
    res.producer = shc::emit_broadcast_rounds_symbolic(spec, source, sink,
                                                       sopt.max_frontier_subcubes);
  } catch (const std::exception& e) {
    if (!validator.aborted()) {
      producer_failed = true;
      res.report.ok = false;
      res.report.error = std::string("symbolic producer: ") + e.what();
    }
  }
  if (!producer_failed) {
    const std::uint64_t f0 = now_ns();
    res.report = validator.finish();
    run.calls.finish_ns = now_ns() - f0;
  }
  res.checks = validator.stats();
  run.wall_ns = now_ns() - t0;
  echo_request(res, shc::Workload::kBroadcastSymbolic, spec);
  res.ok = res.report.ok;
  return run;
}

/// certify_gossip_symbolic, recomposed with a TimedSink.
[[nodiscard]] inline TracedRun traced_gossip(const shc::SparseHypercubeSpec& spec,
                                             shc::Vertex root,
                                             const shc::CommonCheckOptions& common) {
  TracedRun run;
  shc::SymbolicGossipOptions sopt;
  static_cast<shc::CommonCheckOptions&>(sopt) = common;
  const std::uint64_t t0 = now_ns();
  const shc::SpecView view(spec);
  shc::SymbolicGossipValidator<shc::SpecView> validator(view, spec.k(), sopt);
  TimedSink sink(validator, run.calls);
  shc::CertifyResult& res = run.result;
  bool producer_failed = false;
  try {
    const std::uint64_t s0 = now_ns();
    const shc::SymbolicSchedule forward = shc::make_symbolic_broadcast_schedule(spec, root);
    run.schedule_ns = now_ns() - s0;
    shc::emit_gather_broadcast_gossip_symbolic(forward, sink);
  } catch (const std::exception& e) {
    if (!validator.aborted()) {
      producer_failed = true;
      res.gossip.ok = false;
      res.gossip.error = std::string("symbolic producer: ") + e.what();
    }
  }
  if (!producer_failed) {
    const std::uint64_t f0 = now_ns();
    res.gossip = validator.finish();
    run.calls.finish_ns = now_ns() - f0;
  }
  res.gossip_checks = validator.stats();
  run.wall_ns = now_ns() - t0;
  echo_request(res, shc::Workload::kGossipSymbolic, spec);
  res.ok = res.gossip.ok;
  return run;
}

/// Flight-recorder totals of one traced pass: phase-scope durations by
/// name (summed over every thread's buffer) and the pool's busy time.
struct TraceTotals {
  std::map<std::string, double> scope_s;
  double pool_busy_s = 0.0;

  [[nodiscard]] double scope(const std::string& name) const {
    const auto it = scope_s.find(name);
    return it == scope_s.end() ? 0.0 : it->second;
  }

  void absorb(const shc::obs::TraceRecorder& rec) {
    for (const shc::obs::TraceEvent& e : rec.merged_events()) {
      if (e.kind == shc::obs::EventKind::kScope) {
        scope_s[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
      } else if (e.kind == shc::obs::EventKind::kCounter &&
                 std::string(e.name) == "pool_busy_ns") {
        pool_busy_s += static_cast<double>(e.value) * 1e-9;
      }
    }
  }
};

}  // namespace perfbench
