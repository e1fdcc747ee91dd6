// Edge-load accounting and failure injection for broadcast schedules —
// the quantitative side of the paper's Section-5 discussion: sparser
// graphs push more calls over fewer edges, so we measure exactly how the
// load distributes and what capacity a dilated network would need.
//
// Every kernel reads the one schedule representation, FlatSchedule (or
// its subcube-batched SymbolicSchedule form).
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "shc/sim/flat_schedule.hpp"
#include "shc/sim/symbolic_schedule.hpp"

namespace shc {

class WorkerPool;

/// Aggregate edge-load statistics of one schedule.
struct CongestionStats {
  std::size_t distinct_edges_used = 0;  ///< edges carrying >= 1 call hop
  std::uint64_t total_edge_hops = 0;    ///< sum of call lengths
  int max_edge_load_total = 0;          ///< max hops on one edge across all rounds
  int max_edge_load_per_round = 0;      ///< max hops on one edge within a round
  double mean_edge_load = 0.0;          ///< total_edge_hops / distinct_edges_used

  /// histogram[l] = number of edges whose total load is l (index 0 unused).
  std::vector<std::size_t> load_histogram;

  /// Folds in stats computed over an *edge-disjoint* shard of the same
  /// schedule (each edge owned by exactly one shard): counts add,
  /// maxima max, histograms add element-wise, and the mean is
  /// recomputed from the merged totals.  This is what lets
  /// analyze_congestion shard edges across workers and still
  /// reproduce the serial stats exactly (enforced by parity tests).
  CongestionStats& merge(const CongestionStats& other);

  friend bool operator==(const CongestionStats&, const CongestionStats&) = default;
};

/// Computes load statistics.  `max_edge_load_per_round` equals 1 for any
/// schedule that is feasible in the paper's unit-capacity model; larger
/// values tell the capacity a dilated (multi-edge) network would need to
/// run this schedule as-is.
///
/// With more than one worker, edges are partitioned across the workers
/// by hash, each worker accounts its own edges over the whole schedule,
/// and the per-shard stats are merge()d: the result is identical to the
/// serial analysis (including the histogram and the mean, bit for bit).
/// The workers are `pool`'s when one is lent (the caller keeps it; its
/// worker count sets the shards and `threads` is ignored), else an
/// owned pool of `threads` (CheckPool).  Without a lent pool, throws
/// std::invalid_argument unless 1 <= threads <= kMaxCheckThreads.
[[nodiscard]] CongestionStats analyze_congestion(const FlatSchedule& schedule,
                                                 int threads = 1,
                                                 WorkerPool* pool = nullptr);

/// Outcome of the symbolic congestion analysis.
struct SymbolicCongestionReport {
  bool ok = false;
  std::string error;       ///< empty iff ok
  CongestionStats stats;   ///< bit-for-bit the stats of the expanded schedule
  std::uint64_t load_entries = 0;  ///< final overlay size (subcubes across dims)
};

/// Exact congestion analysis of a symbolic schedule straight from its
/// group structure — per-round max load, cross-round total loads, and
/// the full load histogram, identical to analyze_congestion() on the
/// expanded schedule (parity-tested) but polynomial in the group count
/// instead of 2^n.  Edges are sharded by flip dimension into disjoint
/// per-dimension subcube overlays (intersect/split refinement with
/// same-load coalescing); per-dimension stats are folded with
/// CongestionStats::merge, which closes the ROADMAP's streaming-
/// congestion item: no whole-schedule edge table ever exists.
/// `max_entries` caps the overlay (explicit error beyond).
[[nodiscard]] SymbolicCongestionReport analyze_congestion_symbolic(
    const SymbolicSchedule& schedule,
    std::uint64_t max_entries = std::uint64_t{1} << 24);

/// Minimum per-round edge capacity that would make the schedule feasible
/// (= max_edge_load_per_round).
[[nodiscard]] int required_edge_capacity(const FlatSchedule& schedule);

/// Failure injection: returns a copy of the schedule with each call
/// independently dropped with probability `drop_rate`.  Used by tests to
/// confirm the validator detects incomplete broadcasts, and by benches
/// to measure coverage degradation.
[[nodiscard]] FlatSchedule drop_calls(const FlatSchedule& schedule, double drop_rate,
                                      std::mt19937_64& rng);

/// Overlays `flows` random unicast calls (each a shortest path in Q_n
/// between random endpoints, truncated to `k` hops) on each round and
/// counts how many collide with the broadcast's edges — a proxy for the
/// "competing communication processes" contention of Section 5.
/// Returns collisions per round.
[[nodiscard]] std::vector<std::size_t> competing_traffic_collisions(
    const FlatSchedule& schedule, int n, int k, std::size_t flows,
    std::mt19937_64& rng);

}  // namespace shc
