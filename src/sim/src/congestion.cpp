#include "shc/sim/congestion.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
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

/// Per-dimension edge-load overlay: disjoint (prefix, mask) -> load
/// subcubes refined by intersect/split as families accumulate, with
/// same-load sibling coalescing inherited from SubcubeFrontier.
class SubcubeLoadMap {
 public:
  explicit SubcubeLoadMap(int n) : entries_(n) {}

  /// Adds `load` over the edge subcube (q, Mq).
  void add(Vertex q, Vertex Mq, std::uint64_t load) {
    std::vector<WeightedSubcube> work{{q, Mq, load}};
    while (!work.empty()) {
      const WeightedSubcube cur = work.back();
      work.pop_back();
      Vertex p2 = 0, m2 = 0;
      std::uint64_t l2 = 0;
      if (!find_overlap(cur.prefix, cur.mask, p2, m2, l2)) {
        entries_.insert(cur.prefix, cur.mask, cur.mult);
        continue;
      }
      const Subcube inter =
          *subcube_intersection({cur.prefix, cur.mask}, {p2, m2});
      const bool taken = entries_.take(p2, m2, l2);
      (void)taken;
      assert(taken);  // shc-lint: allow(assert-guard) — find_overlap just found it
      entries_.insert(inter.prefix, inter.mask, l2 + cur.mult);
      for (const Subcube& rest : subcube_subtract({p2, m2}, inter)) {
        entries_.insert(rest.prefix, rest.mask, l2);
      }
      for (const Subcube& rest : subcube_subtract({cur.prefix, cur.mask}, inter)) {
        work.push_back({rest.prefix, rest.mask, cur.mult});
      }
    }
  }

  [[nodiscard]] const SubcubeFrontier& entries() const noexcept { return entries_; }
  [[nodiscard]] std::uint64_t size() const noexcept {
    return entries_.num_subcubes();
  }

 private:
  bool find_overlap(Vertex q, Vertex Mq, Vertex& p2, Vertex& m2,
                    std::uint64_t& l2) const {
    bool found = false;
    entries_.for_each_class([&](Vertex m, const shc::detail::PrefixTable& t) {
      if (found) return;
      const Vertex extra = Mq & ~m;
      const Vertex agree = ~(m | Mq);
      if (weight(extra) <= 4 &&
          (std::uint64_t{1} << static_cast<unsigned>(weight(extra))) <= t.size()) {
        Vertex c = 0;
        for (;;) {
          const Vertex cand = (q & agree) | c;
          if (const std::uint64_t* v = t.find(cand)) {
            found = true;
            p2 = cand;
            m2 = m;
            l2 = *v;
            return;
          }
          if (c == extra) break;
          c = (c - extra) & extra;
        }
      } else {
        found = t.any_of([&](Vertex p, std::uint64_t v) {
          if (((p ^ q) & agree) != 0) return false;
          p2 = p;
          m2 = m;
          l2 = v;
          return true;
        });
      }
    });
    return found;
  }

  SubcubeFrontier entries_;
};

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

SymbolicCongestionReport analyze_congestion_symbolic(
    const SymbolicSchedule& schedule, std::uint64_t max_entries) {
  SymbolicCongestionReport rep;
  auto fail = [&](std::string msg) {
    rep.ok = false;
    rep.error = std::move(msg);
    return rep;
  };
  const int n = schedule.n;
  if (n < 1 || n > kMaxCubeDim) {
    return fail("symbolic schedule dimension out of range");
  }

  // One overlay per flip dimension: dimensions are edge-disjoint shards
  // of the edge set, so their stats fold losslessly with merge().
  std::unordered_map<int, SubcubeLoadMap> total;
  int per_round_max = 0;

  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const SymbolicRound& round = schedule.rounds[r];
    std::unordered_map<int, SubcubeLoadMap> this_round;
    for (std::size_t g = 0; g < round.groups.size(); ++g) {
      const CallGroup& grp = round.groups[g];
      const std::span<const Vertex> patt = round.pattern_of_group(g);
      if ((grp.prefix & grp.free_mask) != 0 || patt.size() < 2) {
        return fail("malformed call group in round " + std::to_string(r + 1));
      }
      for (std::size_t j = 0; j + 1 < patt.size(); ++j) {
        const Vertex diff = patt[j] ^ patt[j + 1];
        if (weight(diff) != 1 || (grp.free_mask & (patt[j] | diff)) != 0) {
          return fail("malformed call pattern in round " + std::to_string(r + 1));
        }
        const Dim d = differing_dim(patt[j], patt[j + 1]);
        const Vertex edge_prefix = (grp.prefix ^ patt[j]) & ~diff;
        auto it = this_round.try_emplace(d, n).first;
        it->second.add(edge_prefix, grp.free_mask, 1);
      }
    }
    // Fold the round overlay into the cross-round totals; the round's
    // max load is the required capacity witness.
    std::uint64_t entries_now = 0;
    bool load_overflow = false;
    for (const auto& [d, m] : this_round) {
      auto it = total.try_emplace(d, n).first;
      m.entries().for_each([&](Vertex p, Vertex mask, std::uint64_t load) {
        // Loads are reported through int fields (CongestionStats); an
        // adversarial schedule pushing one edge past INT_MAX must fail
        // explicitly, matching the checked-counter discipline.
        if (load > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
          load_overflow = true;
          return;
        }
        per_round_max = std::max(per_round_max, static_cast<int>(load));
        it->second.add(p, mask, load);
      });
    }
    if (load_overflow) {
      return fail("per-edge load exceeds INT_MAX");
    }
    for (const auto& [d, m] : total) entries_now += m.size();
    if (entries_now > max_entries) {
      return fail("congestion overlay exceeded the entry cap (" +
                  std::to_string(entries_now) + " subcubes)");
    }
  }

  bool first = true;
  bool overflow = false;
  for (const auto& [d, m] : total) {
    CongestionStats s;
    std::uint64_t distinct = 0, hops = 0;
    int maxl = 0;
    std::vector<std::size_t> hist;
    m.entries().for_each([&](Vertex, Vertex mask, std::uint64_t load) {
      std::uint64_t size = 0, contrib = 0;
      if (!checked_shift_u64(static_cast<unsigned>(weight(mask)), size) ||
          !checked_acc_u64(distinct, size) ||
          !checked_mul_u64(load, size, contrib) ||
          !checked_acc_u64(hops, contrib) ||
          load > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        overflow = true;
        return;
      }
      const int l = static_cast<int>(load);
      maxl = std::max(maxl, l);
      if (hist.size() <= static_cast<std::size_t>(l)) hist.resize(l + 1, 0);
      hist[static_cast<std::size_t>(l)] += static_cast<std::size_t>(size);
    });
    if (overflow) return fail("congestion counters overflowed 64 bits");
    s.distinct_edges_used = static_cast<std::size_t>(distinct);
    s.total_edge_hops = hops;
    s.max_edge_load_total = maxl;
    hist.resize(static_cast<std::size_t>(maxl) + 1, 0);
    s.load_histogram = std::move(hist);
    s.mean_edge_load = distinct == 0 ? 0.0
                                     : static_cast<double>(hops) /
                                           static_cast<double>(distinct);
    if (first) {
      rep.stats = std::move(s);
      first = false;
    } else {
      rep.stats.merge(s);
    }
    rep.load_entries += m.size();
  }
  if (first) {
    // No edges at all: mirror the serial analyzer's empty-schedule shape.
    rep.stats.load_histogram.assign(1, 0);
  }
  rep.stats.max_edge_load_per_round = per_round_max;
  rep.ok = true;
  return rep;
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
