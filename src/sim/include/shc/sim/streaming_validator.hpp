// Streaming broadcast validation.
//
// The serial validator (validator.hpp) re-checks every clause of the
// paper's Definitions 1 and 2 one call at a time.  This header scales
// the same kernel without changing a single verdict:
//
//  * the sharded round kernel (detail::try_validate_round_clean) spreads
//    each round's calls over a WorkerPool.  Per-round checks split into
//    a read-only phase (range/length/informedness/edge-existence
//    probes, which only read the cross-round informed set) that
//    parallelizes trivially, and a serial merge phase (receiver
//    uniqueness, vertex-disjointness, edge capacity) over compact
//    per-round structures.  Whenever *any* anomaly is detected the
//    round is re-run through the serial reference kernel, so failure
//    reports — error string, partial counters, everything — are
//    bit-for-bit identical to validate_broadcast's.  Tests enforce this
//    parity.
//
//  * StreamingBroadcastValidator — a RoundSink that consumes rounds as
//    a producer emits them, validating each through the sharded kernel
//    and recycling one bounded scratch arena.  Peak memory is the
//    largest single round (plus the informed bitmap), not the whole
//    schedule, which is what lifts certified broadcast instances from
//    n <= 28 (materialized) to n <= 32 (streamed).
//
// Per-round edge capacity on the fast path is tracked in an open-
// addressing table with packed 64-bit edge keys and epoch-tagged slots
// (no per-round clearing); orders above 2^32 vertices simply take the
// serial kernel, which handles arbitrary 64-bit endpoints.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "shc/bits/checked.hpp"
#include "shc/sim/check_options.hpp"
#include "shc/sim/flat_schedule.hpp"
#include "shc/sim/round_sink.hpp"
#include "shc/sim/validator.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {

namespace detail {

/// Per-round edge-use counter: open addressing, linear probing, packed
/// (a << 32 | b) keys, epoch-tagged slots so starting a new round is
/// O(1) instead of a table-wide clear.  Capacity is kept at twice the
/// round's hop count, so probes stay short.
class RoundEdgeTable {
 public:
  /// Prepares for a round of at most `hops` path edges.
  void begin_round(std::size_t hops) {
    const std::size_t want = std::bit_ceil(std::max<std::size_t>(2 * hops, 64));
    if (want > slots_.size() ||
        epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      slots_.assign(std::max(want, slots_.size()), Slot{});
      epoch_ = 0;
    }
    ++epoch_;
    mask_ = slots_.size() - 1;
  }

  /// Counts one use of `key` this round; returns the running total.
  int count_up(std::uint64_t key) noexcept {
    std::size_t i = mix(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.epoch = epoch_;
        s.key = key;
        s.count = 1;
        return 1;
      }
      if (s.key == key) return static_cast<int>(++s.count);
      i = (i + 1) & mask_;
    }
  }

  /// Bytes currently owned by the slot array (memory transparency: at
  /// large n this, not the round arena, would be the biggest consumer —
  /// which is why single-hop rounds skip the table entirely).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t epoch = 0;
    std::uint32_t count = 0;
  };

  static std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 0;
};

/// Packs an undirected edge whose endpoints fit 32 bits.
inline std::uint64_t packed_edge_key(Vertex x, Vertex y) noexcept {
  const Vertex a = x <= y ? x : y;
  const Vertex b = x <= y ? y : x;
  return (a << 32) | b;
}

/// Fast path for one round: sharded read-only checks, then a serial
/// merge over the arena for the global (cross-call) invariants.  On
/// success commits receivers/counters and returns true.  Returns false
/// on *any* suspicion — including benign ineligibility like an order
/// above 2^32 — without mutating cross-round state, so the caller can
/// re-run the serial reference kernel for an exact verdict.
template <AdjacencyOracle Net>
bool try_validate_round_clean(const Net& net, const FlatSchedule& schedule,
                              std::size_t first_call, std::size_t last_call,
                              const ValidationOptions& opt,
                              BroadcastRunState& state, ValidationReport& rep,
                              WorkerPool* pool, RoundEdgeTable& edges) {
  const std::uint64_t order = net.num_vertices();
  if (order > (std::uint64_t{1} << 32)) return false;  // packed keys need 32-bit ids
  const std::size_t count = last_call - first_call;
  if (count == 0) return !opt.require_completion;

  // ---- phase A: sharded read-only checks ------------------------------
  const int workers = static_cast<int>(std::min<std::size_t>(
      pool != nullptr ? static_cast<std::size_t>(pool->workers()) : 1, count));
  std::atomic<bool> flagged{false};
  std::vector<int> local_max(static_cast<std::size_t>(workers), 0);

  // A worker `break`s out of its call loop on the first violation (or on
  // another shard's flag); ending anywhere short of `hi` raises the flag.
  auto scan_range = [&](std::size_t lo, std::size_t hi, int widx) {
    std::size_t c = lo;
    int max_len = 0;
    for (; c < hi; ++c) {
      if (flagged.load(std::memory_order_relaxed)) return;
      const FlatSchedule::CallView call = schedule.call(c);
      if (call.size() < 2) break;
      max_len = std::max(max_len, call.length());
      const Vertex caller = call.caller();
      const Vertex receiver = call.receiver();
      if (caller >= order || receiver >= order) break;
      if (!state.informed.contains(caller)) break;
      if (call.length() > opt.k) break;
      if (opt.forbid_redundant_receivers && state.informed.contains(receiver)) {
        break;
      }
      bool bad_path = false;
      for (std::size_t i = 0; i + 1 < call.size(); ++i) {
        const Vertex x = call[i];
        const Vertex y = call[i + 1];
        if (x >= order || y >= order || x == y || !net.has_edge(x, y)) {
          bad_path = true;
          break;
        }
      }
      if (bad_path) break;
    }
    if (c < hi) flagged.store(true, std::memory_order_relaxed);
    local_max[static_cast<std::size_t>(widx)] = max_len;
  };

  if (workers == 1) {
    scan_range(first_call, last_call, 0);
  } else {
    // Same chunking as the historical spawn-per-round code (parity),
    // but executed on the persistent pool.
    const std::size_t chunk = (count + static_cast<std::size_t>(workers) - 1) /
                              static_cast<std::size_t>(workers);
    pool->run(workers, [&](int w) {
      const std::size_t lo = first_call + static_cast<std::size_t>(w) * chunk;
      const std::size_t hi = std::min(lo + chunk, last_call);
      scan_range(lo, hi, w);
    });
  }
  if (flagged.load()) return false;

  int round_max_len = 0;
  for (const int m : local_max) round_max_len = std::max(round_max_len, m);

  // ---- phase B: serial merge of the cross-call invariants -------------
  state.receivers.clear();
  for (std::size_t c = first_call; c < last_call; ++c) {
    if (!state.receivers.insert(schedule.call(c).receiver())) return false;
  }
  if (state.touched) {
    state.touched->clear();
    for (std::size_t c = first_call; c < last_call; ++c) {
      for (const Vertex v : schedule.call(c)) {
        if (!state.touched->insert(v)) return false;
      }
    }
  }

  // Edge capacity.  When every call in the round is a single hop and
  // redundant receivers are forbidden, edge-disjointness is already
  // implied and the table pass (the dominant memory/cache cost in the
  // doubling rounds of a 2^n broadcast) is skipped: each call's only
  // edge is {informed caller, uninformed receiver}; two calls sharing
  // an undirected edge would need either the same receiver (rejected by
  // the uniqueness pass above) or swapped roles, which would make one
  // vertex both informed (as a caller) and uninformed (as a receiver)
  // at round start — phase A rejected that already.
  const bool edges_implied =
      round_max_len <= 1 && opt.forbid_redundant_receivers && opt.edge_capacity >= 1;
  if (!edges_implied) {
    edges.begin_round(schedule.path_vertices_between(first_call, last_call) -
                      count);
    for (std::size_t c = first_call; c < last_call; ++c) {
      const FlatSchedule::CallView call = schedule.call(c);
      for (std::size_t i = 0; i + 1 < call.size(); ++i) {
        if (edges.count_up(packed_edge_key(call[i], call[i + 1])) >
            opt.edge_capacity) {
          return false;
        }
      }
    }
  }

  // ---- commit ---------------------------------------------------------
  for (std::size_t c = first_call; c < last_call; ++c) {
    state.informed.insert(schedule.call(c).receiver());
  }
  saturating_acc_u64(rep.total_calls, count);
  rep.max_call_length = std::max(rep.max_call_length, round_max_len);
  return true;
}

}  // namespace detail

/// RoundSink that validates a broadcast as it is produced.  One round
/// lives in the scratch arena at a time: end_round() (or the next
/// begin_round()) runs the sharded round check — with serial-kernel
/// fallback for exact failure parity — and recycles the arena, so peak
/// memory is bounded by the largest single round.
template <AdjacencyOracle Net>
class StreamingBroadcastValidator {
 public:
  /// Keeps a reference to `net`; it must outlive the validator.  Shards
  /// each round over `lent` when non-null (the caller keeps it alive),
  /// else over an owned pool of `threads` workers (CheckPool): a count
  /// outside [1, kMaxCheckThreads] throws std::invalid_argument before
  /// any worker starts.
  StreamingBroadcastValidator(const Net& net, Vertex source,
                              const ValidationOptions& opt, int threads = 1,
                              WorkerPool* lent = nullptr)
      : net_(&net),
        opt_(opt),
        pool_(lent, threads, "StreamingBroadcastValidator: threads"),
        order_(net.num_vertices()),
        state_(order_, opt) {
    scratch_.source = source;
    if (source >= order_) {
      rep_.ok = false;
      rep_.error = "source out of range";
      failed_ = true;
    } else {
      state_.informed.insert(source);
    }
  }

  // ---- RoundSink interface --------------------------------------------

  /// Optional producer hook: exact pre-sizing of the round buffer.
  /// Flushes and empties the previous round *before* reserving, so a
  /// growing reservation never copies stale round data and never holds
  /// old + new buffers with a full round inside.
  void reserve_round(std::size_t calls, std::size_t path_vertices) {
    flush_round();
    scratch_.truncate_rounds(0);
    scratch_.reserve(1, calls, path_vertices);
  }

  void begin_round() {
    flush_round();
    scratch_.truncate_rounds(0);
    scratch_.begin_round();
    open_ = true;
  }

  void push_vertex(Vertex v) {
    ++vertices_seen_;
    scratch_.push_vertex(v);
  }

  [[nodiscard]] Vertex last_vertex() const { return scratch_.last_vertex(); }

  /// Seals the current call.  Degenerate (< 2 vertex) calls are buffered
  /// rather than asserted on, so they reach the validator's explicit
  /// "empty or zero-length call" error exactly as in the serial path.
  void end_call() {
    ++calls_seen_;
    scratch_.end_call_unchecked();
  }

  void end_round() { flush_round(); }

  /// True once validation has failed; producers should stop emitting
  /// (further rounds are buffered and discarded, never validated).
  [[nodiscard]] bool aborted() const noexcept { return failed_; }

  // ---- results ---------------------------------------------------------

  /// Flushes any pending round and returns the final report (completion
  /// and minimum-time checks included).  Idempotent.
  [[nodiscard]] ValidationReport finish() {
    flush_round();
    if (!failed_ && !finished_) {
      detail::finish_broadcast_report(order_, opt_, state_, rep_);
    }
    finished_ = true;
    return rep_;
  }

  /// High-water mark of the scratch arena — the streaming memory claim:
  /// bounded by the largest single round, not the schedule.
  [[nodiscard]] std::size_t peak_round_arena_bytes() const noexcept {
    return std::max(peak_arena_, scratch_.heap_bytes());
  }

  /// High-water mark of the per-round edge table (0 when every round's
  /// edge-disjointness was implied by single-hop structure).
  [[nodiscard]] std::size_t peak_edge_table_bytes() const noexcept {
    return std::max(peak_edge_table_, edges_.capacity_bytes());
  }

  [[nodiscard]] std::uint64_t calls_seen() const noexcept { return calls_seen_; }
  [[nodiscard]] std::uint64_t vertices_seen() const noexcept {
    return vertices_seen_;
  }

 private:
  void flush_round() {
    if (!open_) return;
    open_ = false;
    peak_arena_ = std::max(peak_arena_, scratch_.heap_bytes());
    peak_edge_table_ = std::max(peak_edge_table_, edges_.capacity_bytes());
    if (failed_) return;
    ++rep_.rounds;
    const std::size_t calls = scratch_.num_calls();
    if (!detail::try_validate_round_clean(*net_, scratch_, 0, calls, opt_,
                                          state_, rep_, pool_.get(), edges_) &&
        !detail::validate_round_serial(*net_, scratch_, 0, calls, rep_.rounds,
                                       opt_, state_, rep_)) {
      failed_ = true;
    }
  }

  const Net* net_;
  ValidationOptions opt_;
  CheckPool pool_;  ///< persistent workers, reused every round
  std::uint64_t order_;
  detail::BroadcastRunState state_;
  detail::RoundEdgeTable edges_;
  FlatSchedule scratch_;
  ValidationReport rep_;
  std::size_t peak_arena_ = 0;
  std::size_t peak_edge_table_ = 0;
  std::uint64_t calls_seen_ = 0;
  std::uint64_t vertices_seen_ = 0;
  bool open_ = false;
  bool failed_ = false;
  bool finished_ = false;
};

/// Replays a materialized schedule through the streaming sink — the
/// chunked consumer — producing the identical report to the serial
/// validator while touching one round of arena at a time.
template <AdjacencyOracle Net>
[[nodiscard]] ValidationReport validate_broadcast_streaming(
    const Net& net, const FlatSchedule& schedule, const ValidationOptions& opt,
    int threads = 1) {
  StreamingBroadcastValidator<Net> sink(net, schedule.source, opt, threads);
  for (int t = 0; t < schedule.num_rounds() && !sink.aborted(); ++t) {
    sink.begin_round();
    for (const FlatSchedule::CallView call : schedule.round(t)) {
      for (const Vertex v : call) sink.push_vertex(v);
      sink.end_call();
    }
    sink.end_round();
  }
  return sink.finish();
}

static_assert(RoundSink<FlatSchedule>,
              "FlatSchedule is the whole-arena RoundSink");

}  // namespace shc
