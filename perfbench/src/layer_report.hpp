// The per-layer metric set.  Every traced run prints all of it; a layer
// a workload never enters reads 0 (see perfbench/NOTES.md for which
// layer each metric belongs to and which end-to-end metric it moves).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

/// Serving-layer figures, measured around ServeEngine::handle_line.
struct ApiLayer {
  double hit_us = 0.0;
  double hit_p99_us = 0.0;
  /// Median cold service time per engine, in shc::Workload order.
  std::array<double, 4> miss_ms{};
  double error_us = 0.0;
  double queue_wait_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double late_p99_ms = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_entries = 0.0;
  double refused = 0.0;
  double errors = 0.0;
};

/// Accumulates the traced pass of any workload.
struct LayerAccum {
  CallTimes broadcast_calls;
  CallTimes gossip_calls;
  double traced_wall_s = 0.0;     ///< recomposed pipelines, all calls
  double untraced_wall_s = 0.0;   ///< the same calls through the facade
  double traced_2t_wall_s = 0.0;  ///< recomposed pipelines at 2 threads
  double schedule_s = 0.0;
  double emit_s = 0.0;
  std::uint64_t groups = 0;
  std::uint64_t occupancy_claims = 0;
  std::uint64_t peak_frontier = 0;
  std::uint64_t producer_peak_frontier = 0;
  std::uint64_t kc_unions = 0;
  std::uint64_t kc_hits = 0;
  std::uint64_t kc_misses = 0;
  std::uint64_t kc_peak_classes = 0;
  /// Phase totals the sim.* / gossip.* phase metrics report.
  TraceTotals trace;
  /// Phase totals of the recomposed pipelines alone: obs.other_s
  /// subtracts them from the validator-call time, and the pool metrics
  /// come from them (the same session as `trace` on broadcast-c7).
  TraceTotals pipeline_trace;
  ApiLayer api;
  /// Serve-mix: traced over untraced saturation wall, which replaces the
  /// pipeline ratio when set.
  double overhead_override = 0.0;

  /// Folds in one recomposed run at `threads`.
  void add_run(const TracedRun& run, int threads) {
    const double wall = static_cast<double>(run.wall_ns) * 1e-9;
    traced_wall_s += wall;
    if (threads > 1) traced_2t_wall_s += wall;
    schedule_s += static_cast<double>(run.schedule_ns) * 1e-9;
    const shc::CertifyResult& r = run.result;
    if (r.workload == shc::Workload::kBroadcastSymbolic) {
      broadcast_calls += run.calls;
      groups += r.checks.groups;
      occupancy_claims += r.checks.occupancy_claims;
      peak_frontier = std::max(peak_frontier, r.checks.peak_frontier_subcubes);
      producer_peak_frontier =
          std::max(producer_peak_frontier, r.producer.peak_frontier_subcubes);
    } else {
      gossip_calls += run.calls;
      groups += r.gossip_checks.groups;
      occupancy_claims += r.gossip_checks.occupancy_claims;
      const shc::KnowledgeClassStats& kc = r.gossip_checks.classes;
      kc_unions += kc.unions_computed;
      kc_hits += kc.union_cache_hits;
      kc_misses += kc.union_cache_misses;
      kc_peak_classes = std::max(kc_peak_classes, kc.peak_classes);
    }
  }

  void report(Outcome& out) const {
    const auto s = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
    const CallTimes& b = broadcast_calls;
    const CallTimes& g = gossip_calls;
    const double validator_s = s(b.total()) + s(g.total());

    out.add("mlbg.emit_s", emit_s, "s");
    out.add("mlbg.produce_self_s", traced_wall_s - validator_s, "s");
    out.add("mlbg.schedule_s", schedule_s, "s");
    out.add("mlbg.peak_frontier_subcubes", static_cast<double>(producer_peak_frontier),
            "count");

    out.add("sim.end_call_group_s", s(b.end_call_group_ns), "s");
    out.add("sim.end_round_s", s(b.end_round_ns), "s");
    out.add("sim.frontier_insert_s", trace.scope("frontier_insert"), "s");
    out.add("sim.caller_tiling_s", trace.scope("caller_tiling"), "s");
    out.add("sim.collision_check_s", trace.scope("collision_check"), "s");
    out.add("sim.ledger_check_s", trace.scope("ledger_check"), "s");
    out.add("sim.sampled_replay_s", trace.scope("sampled_replay"), "s");
    out.add("sim.endgame_s", trace.scope("endgame"), "s");
    out.add("sim.groups", static_cast<double>(groups), "count");
    out.add("sim.occupancy_claims", static_cast<double>(occupancy_claims), "count");
    out.add("sim.peak_frontier_subcubes", static_cast<double>(peak_frontier), "count");

    out.add("gossip.end_call_group_s", s(g.end_call_group_ns), "s");
    out.add("gossip.end_round_s", s(g.end_round_ns), "s");
    out.add("gossip.endpoint_check_s", trace.scope("endpoint_check"), "s");
    out.add("sim.kc_union_s", trace.scope("kc_union"), "s");
    out.add("sim.kc_merge_s", trace.scope("kc_merge"), "s");
    out.add("sim.kc_refine_s", trace.scope("kc_refine"), "s");
    out.add("sim.reduce_tree_s", trace.scope("reduce_tree"), "s");
    out.add("sim.kc_unions", static_cast<double>(kc_unions), "count");
    const std::uint64_t lookups = kc_hits + kc_misses;
    out.add("sim.kc_union_hit_ratio",
            lookups == 0 ? 0.0
                         : static_cast<double>(kc_hits) / static_cast<double>(lookups),
            "ratio");
    out.add("sim.kc_peak_classes", static_cast<double>(kc_peak_classes), "count");

    const double pool_busy_s = pipeline_trace.pool_busy_s;
    out.add("sim.pool_busy_s", pool_busy_s, "s");
    out.add("sim.pool_util",
            traced_2t_wall_s > 0.0 ? pool_busy_s / (2.0 * traced_2t_wall_s) : 0.0, "ratio");

    out.add("api.hit_us", api.hit_us, "us");
    out.add("api.hit_p99_us", api.hit_p99_us, "us");
    for (int w = 0; w < 4; ++w) {
      out.add(std::string("api.miss_ms.") + shc::workload_name(static_cast<shc::Workload>(w)),
              api.miss_ms[static_cast<std::size_t>(w)], "ms");
    }
    out.add("api.error_us", api.error_us, "us");
    out.add("api.queue_wait_ms", api.queue_wait_ms, "ms");
    out.add("api.queue_wait_p99_ms", api.queue_wait_p99_ms, "ms");
    out.add("gen.late_p99_ms", api.late_p99_ms, "ms");
    out.add("api.cache_hit_ratio", api.cache_hit_ratio, "ratio");
    out.add("api.cache_entries", api.cache_entries, "count");
    out.add("api.refused", api.refused, "count");
    out.add("api.errors", api.errors, "count");

    // Validator-call time no recorder phase claims (begin_round, the
    // unscoped tails of end_round and finish).
    const TraceTotals& pt = pipeline_trace;
    const double phased =
        pt.scope("caller_tiling") + pt.scope("collision_check") +
        pt.scope("sampled_replay") + pt.scope("frontier_insert") +
        pt.scope("endpoint_check") + pt.scope("apply_round") + pt.scope("endgame");
    const double outside_groups =
        validator_s - s(b.end_call_group_ns) - s(g.end_call_group_ns);
    out.add("obs.other_s", validator_s > 0.0 ? outside_groups - phased : 0.0, "s");
    out.add("obs.overhead_share",
            overhead_override > 0.0 ? overhead_override
            : untraced_wall_s > 0.0 ? traced_wall_s / untraced_wall_s
                                    : 0.0,
            "ratio");

    if (traced_wall_s > 0.0) {
      std::fprintf(stderr,
                   "perfbench: traced wall %.3f s = producer self %.3f + "
                   "end_call_group %.3f + validator rounds/finish %.3f "
                   "(named phases %.3f, other %.3f)\n",
                   traced_wall_s, traced_wall_s - validator_s,
                   s(b.end_call_group_ns + g.end_call_group_ns), outside_groups, phased,
                   outside_groups - phased);
    }
  }
};

}  // namespace perfbench
