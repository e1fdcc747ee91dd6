#include "shc/sim/congestion.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "shc/sim/check_options.hpp"
#include "shc/sim/validator.hpp"  // detail::EdgeKey / EdgeKeyHash
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

using detail::EdgeKey;
using detail::EdgeKeyHash;
using detail::edge_key;

/// Serial accounting restricted to one edge shard: an edge belongs to
/// worker `shard` iff hash(edge) % shards == shard, so every edge is
/// owned by exactly one worker and shard stats merge losslessly.
/// shards == 1 owns everything — the serial analysis verbatim.
CongestionStats analyze_congestion_shard(const FlatSchedule& schedule,
                                         unsigned shard, unsigned shards) {
  CongestionStats stats;
  std::unordered_map<EdgeKey, int, EdgeKeyHash> total_load;
  std::unordered_map<EdgeKey, int, EdgeKeyHash> round_load;
  total_load.reserve(schedule.num_calls() / shards);
  for (int t = 0; t < schedule.num_rounds(); ++t) {
    round_load.clear();
    for (const FlatSchedule::CallView call : schedule.round(t)) {
      for (std::size_t i = 0; i + 1 < call.size(); ++i) {
        const EdgeKey e = edge_key(call[i], call[i + 1]);
        if (shards > 1 && EdgeKeyHash{}(e) % shards != shard) continue;
        ++total_load[e];
        stats.max_edge_load_per_round =
            std::max(stats.max_edge_load_per_round, ++round_load[e]);
        ++stats.total_edge_hops;
      }
    }
  }
  stats.distinct_edges_used = total_load.size();
  for (const auto& [edge, load] : total_load) {
    stats.max_edge_load_total = std::max(stats.max_edge_load_total, load);
  }
  stats.load_histogram.assign(static_cast<std::size_t>(stats.max_edge_load_total) + 1, 0);
  for (const auto& [edge, load] : total_load) {
    ++stats.load_histogram[static_cast<std::size_t>(load)];
  }
  stats.mean_edge_load =
      stats.distinct_edges_used == 0
          ? 0.0
          : static_cast<double>(stats.total_edge_hops) /
                static_cast<double>(stats.distinct_edges_used);
  return stats;
}

}  // namespace

CongestionStats& CongestionStats::merge(const CongestionStats& other) {
  distinct_edges_used += other.distinct_edges_used;
  total_edge_hops += other.total_edge_hops;
  max_edge_load_total = std::max(max_edge_load_total, other.max_edge_load_total);
  max_edge_load_per_round =
      std::max(max_edge_load_per_round, other.max_edge_load_per_round);
  if (load_histogram.size() < other.load_histogram.size()) {
    load_histogram.resize(other.load_histogram.size(), 0);
  }
  for (std::size_t l = 0; l < other.load_histogram.size(); ++l) {
    load_histogram[l] += other.load_histogram[l];
  }
  mean_edge_load = distinct_edges_used == 0
                       ? 0.0
                       : static_cast<double>(total_edge_hops) /
                             static_cast<double>(distinct_edges_used);
  return *this;
}

CongestionStats analyze_congestion(const FlatSchedule& schedule, int threads,
                                   WorkerPool* pool) {
  const CheckPool workers(pool, threads, "analyze_congestion: threads");
  WorkerPool* const run_on = workers.get();
  const auto shards =
      run_on == nullptr ? 1u : static_cast<unsigned>(run_on->workers());
  if (shards == 1) return analyze_congestion_shard(schedule, 0, 1);

  std::vector<CongestionStats> parts(shards);
  run_on->run(static_cast<int>(shards), [&schedule, &parts, shards](int w) {
    parts[static_cast<unsigned>(w)] =
        analyze_congestion_shard(schedule, static_cast<unsigned>(w), shards);
  });

  CongestionStats out = std::move(parts[0]);
  for (unsigned w = 1; w < shards; ++w) out.merge(parts[w]);
  return out;
}

int required_edge_capacity(const FlatSchedule& schedule) {
  return analyze_congestion(schedule).max_edge_load_per_round;
}

FlatSchedule drop_calls(const FlatSchedule& schedule, double drop_rate,
                        std::mt19937_64& rng) {
  std::bernoulli_distribution drop(drop_rate);
  FlatSchedule out;
  out.source = schedule.source;
  out.reserve(static_cast<std::size_t>(schedule.num_rounds()), schedule.num_calls(),
              schedule.num_path_vertices());
  for (int t = 0; t < schedule.num_rounds(); ++t) {
    out.begin_round();
    for (const FlatSchedule::CallView call : schedule.round(t)) {
      if (drop(rng)) continue;
      out.add_call(call);
    }
  }
  return out;
}

std::vector<std::size_t> competing_traffic_collisions(
    const FlatSchedule& schedule, int n, int k, std::size_t flows,
    std::mt19937_64& rng) {
  std::uniform_int_distribution<Vertex> pick(0, cube_order(n) - 1);
  std::vector<std::size_t> collisions;
  collisions.reserve(static_cast<std::size_t>(schedule.num_rounds()));
  std::unordered_set<EdgeKey, EdgeKeyHash> broadcast_edges;
  for (int t = 0; t < schedule.num_rounds(); ++t) {
    broadcast_edges.clear();
    for (const FlatSchedule::CallView call : schedule.round(t)) {
      for (std::size_t i = 0; i + 1 < call.size(); ++i) {
        broadcast_edges.insert(edge_key(call[i], call[i + 1]));
      }
    }
    std::size_t hit = 0;
    for (std::size_t f = 0; f < flows; ++f) {
      // A random unicast flow: walk from src toward dst by flipping
      // differing cube dimensions low-to-high, at most k hops.
      Vertex src = pick(rng);
      Vertex dst = pick(rng);
      Vertex cur = src;
      int hops = 0;
      bool collided = false;
      while (cur != dst && hops < k) {
        const Dim d = __builtin_ctzll(cur ^ dst) + 1;  // lowest differing dim
        const Vertex nxt = flip(cur, d);
        if (broadcast_edges.contains(edge_key(cur, nxt))) collided = true;
        cur = nxt;
        ++hops;
      }
      if (collided) ++hit;
    }
    collisions.push_back(hit);
  }
  return collisions;
}

}  // namespace shc
