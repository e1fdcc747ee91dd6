// Mechanical validation of broadcast schedules under k-line
// communication.  The validator re-checks every clause of Definition 1
// and Definition 2 of the paper; the library's correctness claims in
// tests always go through it rather than trusting scheme proofs.
//
// The checking kernel is a template over the adjacency-oracle type, so
// every oracle (GraphView, CubeOracle, SpecView) validates with direct,
// inlinable has_edge() calls.  Schedules are always FlatSchedule.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "shc/bits/bitstring.hpp"
#include "shc/sim/flat_schedule.hpp"
#include "shc/sim/network.hpp"

namespace shc {

/// Anything that answers num_vertices() / has_edge() — materialized
/// graphs, implicit cubes or sparse-hypercube specs.
template <class Net>
concept AdjacencyOracle = requires(const Net& net, Vertex u, Vertex v) {
  { net.num_vertices() } -> std::convertible_to<std::uint64_t>;
  { net.has_edge(u, v) } -> std::convertible_to<bool>;
};

/// Validation policy.
struct ValidationOptions {
  /// Maximum call length k (Definition 1(2)).  Use num_vertices-1 for
  /// the unbounded line model of [14].
  int k = 1;

  /// Edge capacity per round.  1 is the paper's model; c > 1 models the
  /// dilated / multi-edge variant discussed in Section 5.
  int edge_capacity = 1;

  /// When true (default), calling an already-informed vertex is an
  /// error.  The model technically permits it, but a minimum-time
  /// schedule never can (the informed set must exactly double).
  bool forbid_redundant_receivers = true;

  /// When true (default), rounds must not be empty and the schedule
  /// must inform every vertex.
  bool require_completion = true;

  /// Section-5 variant: when true, calls placed in the same round must
  /// be pairwise *vertex*-disjoint (not just edge-disjoint) — no
  /// switching through a vertex touched by another call.  The sparse
  /// hypercube schemes satisfy this stronger model (concurrent calls
  /// live in disjoint subcubes); star switching does not.
  bool require_vertex_disjoint = false;
};

/// Outcome of validating one schedule.
struct ValidationReport {
  bool ok = false;
  std::string error;            ///< empty iff ok
  int rounds = 0;               ///< rounds examined
  std::uint64_t informed = 0;   ///< vertices informed at the end
  int max_call_length = 0;      ///< longest call seen

  /// Calls across all rounds.  Explicitly 64-bit: the symbolic engine
  /// certifies schedules of up to 2^63 - 1 calls, which must not wrap
  /// on any platform's size_t.
  std::uint64_t total_calls = 0;

  /// True iff ok and rounds == ceil(log2 N): the schedule witnesses a
  /// *minimum-time* k-line broadcast (Definition 2).
  bool minimum_time = false;

  /// Bit-for-bit comparability: the parallel and streaming validators
  /// are required (and tested) to reproduce the serial report exactly,
  /// including the error string and partial counters on failure.
  friend bool operator==(const ValidationReport&, const ValidationReport&) = default;
};

namespace detail {

/// Canonical undirected-edge key for 64-bit endpoints.
struct EdgeKey {
  Vertex a, b;
  friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
};

struct EdgeKeyHash {
  std::size_t operator()(const EdgeKey& e) const noexcept {
    // splitmix-style mixing of the two endpoints.
    std::uint64_t x = e.a * 0x9E3779B97F4A7C15ULL ^ (e.b + 0xBF58476D1CE4E5B9ULL);
    x ^= x >> 31;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 29;
    return static_cast<std::size_t>(x);
  }
};

inline EdgeKey edge_key(Vertex u, Vertex v) {
  return u <= v ? EdgeKey{u, v} : EdgeKey{v, u};
}

/// Membership set over vertices 0..order-1 that sizes itself to its
/// population, not to the order.  It starts as a hash set and switches
/// once, for good, to a contiguous bitmap (one probe, no hashing) when
/// its count reaches order / kDenseRatio — about where the bitmap's
/// order/8 bytes undercut the hash set's per-element node and bucket.
/// The bitmap survives clear(), so a round-scoped set that went dense
/// stays dense.  Orders above 2^32 (the implicit n <= 63 range) never
/// switch.  A set that only ever holds a handful of vertices — the
/// symbolic engine's sampled replay — therefore costs O(population)
/// however large the cube, while the streaming validator's sets go
/// dense within a few rounds.
class VertexSet {
 public:
  explicit VertexSet(std::uint64_t order)
      : order_(order),
        dense_at_(order <= kBitmapLimit ? order / kDenseRatio
                                        : std::numeric_limits<std::uint64_t>::max()) {}

  /// Inserts v; returns true iff it was not present.
  bool insert(Vertex v) {
    if (dense_) {
      std::uint64_t& word = bits_[static_cast<std::size_t>(v >> 6)];
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if (word & bit) return false;
      word |= bit;
      ++count_;
      return true;
    }
    return insert_hashed(v);
  }

  [[nodiscard]] bool contains(Vertex v) const {
    if (dense_) {
      return (bits_[static_cast<std::size_t>(v >> 6)] >> (v & 63)) & 1;
    }
    return set_.contains(v);
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }

  /// Whether the set has switched to its bitmap (it never switches back).
  [[nodiscard]] bool dense() const noexcept { return dense_; }

  void clear() {
    if (dense_) {
      std::fill(bits_.begin(), bits_.end(), 0);
    } else {
      set_.clear();
    }
    count_ = 0;
  }

 private:
  // One bit per vertex for at most the streaming validator's n <= 32
  // range (2^32 bits = 512 MiB worst case); truly implicit orders
  // beyond stay hashed.
  static constexpr std::uint64_t kBitmapLimit = std::uint64_t{1} << 32;
  // A hash-set element costs roughly 32 bytes (node plus bucket), a
  // bitmap order/8 bytes: the bitmap is the smaller once count reaches
  // order/256.
  static constexpr std::uint64_t kDenseRatio = 256;

  // Out of line: with densify() folded in, insert() grows past what
  // the compiler inlines into the validators' per-call loops, and the
  // dense path would pay a call per vertex.
  [[gnu::noinline]] bool insert_hashed(Vertex v) {
    if (!set_.insert(v).second) return false;
    if (++count_ >= dense_at_) densify();
    return true;
  }

  void densify() {
    bits_.assign(static_cast<std::size_t>((order_ + 63) / 64), 0);
    for (const Vertex v : set_) {
      bits_[static_cast<std::size_t>(v >> 6)] |= std::uint64_t{1} << (v & 63);
    }
    std::unordered_set<Vertex>().swap(set_);
    dense_ = true;
  }

  std::uint64_t order_;
  std::uint64_t dense_at_;  ///< count at which the set turns dense
  bool dense_ = false;
  std::uint64_t count_ = 0;
  std::vector<std::uint64_t> bits_;
  std::unordered_set<Vertex> set_;
};

/// Cross-round validator state, shared by the serial, parallel, and
/// streaming drivers.  `informed` persists across rounds; the rest is
/// round-scoped scratch cleared by the round kernel.
struct BroadcastRunState {
  VertexSet informed;
  VertexSet receivers;
  std::optional<VertexSet> touched;
  std::unordered_map<EdgeKey, int, EdgeKeyHash> edge_use;
  std::vector<Vertex> round_receivers;

  BroadcastRunState(std::uint64_t order, const ValidationOptions& opt)
      : informed(order), receivers(order) {
    if (opt.require_vertex_disjoint) touched.emplace(order);
  }
};

/// Reference (serial) kernel for one round: validates calls
/// [first_call, last_call) of `schedule` as round `round_number`
/// (1-based, for error messages), updating `state` and the report's
/// counters exactly as the original monolithic loop did.  Returns false
/// and sets rep.error on the first violation.  The parallel fast path
/// re-runs this kernel verbatim whenever it detects *any* anomaly, which
/// is what makes parallel failure reports bit-for-bit serial.
template <AdjacencyOracle Net>
bool validate_round_serial(const Net& net, const FlatSchedule& schedule,
                           std::size_t first_call, std::size_t last_call,
                           int round_number, const ValidationOptions& opt,
                           BroadcastRunState& state, ValidationReport& rep) {
  const std::uint64_t order = net.num_vertices();
  auto fail = [&](const std::string& msg) {
    rep.ok = false;
    rep.error = msg;
    return false;
  };
  auto vname = [](Vertex v) { return std::to_string(v); };
  const std::string where = "round " + std::to_string(round_number) + ": ";

  if (opt.require_completion && first_call == last_call) {
    return fail(where + "empty round");
  }

  state.edge_use.clear();
  state.receivers.clear();
  if (state.touched) state.touched->clear();
  state.round_receivers.clear();

  for (std::size_t c = first_call; c < last_call; ++c) {
    const FlatSchedule::CallView call = schedule.call(c);
    if (call.size() < 2) {
      return fail(where + "empty or zero-length call (a call needs a caller, " +
                  "a receiver, and at least one edge)");
    }
    rep.max_call_length = std::max(rep.max_call_length, call.length());
    ++rep.total_calls;

    const Vertex caller = call.caller();
    const Vertex receiver = call.receiver();
    if (caller >= order || receiver >= order) {
      return fail(where + "endpoint out of range");
    }
    if (!state.informed.contains(caller)) {
      return fail(where + "caller " + vname(caller) + " not informed");
    }
    if (call.length() > opt.k) {
      return fail(where + "call " + vname(caller) + "->" + vname(receiver) +
                  " has length " + std::to_string(call.length()) + " > k=" +
                  std::to_string(opt.k));
    }
    if (opt.forbid_redundant_receivers && state.informed.contains(receiver)) {
      return fail(where + "receiver " + vname(receiver) + " already informed");
    }
    if (!state.receivers.insert(receiver)) {
      return fail(where + "receiver " + vname(receiver) +
                  " targeted by two calls");
    }
    state.round_receivers.push_back(receiver);

    if (state.touched) {
      for (const Vertex v : call) {
        // Range-check before the insert: the bitmap-backed set indexes
        // by vertex, so an out-of-range interior vertex must be
        // reported here, not written out of bounds.
        if (v >= order) {
          return fail(where + "path vertex out of range");
        }
        if (!state.touched->insert(v)) {
          return fail(where + "vertex " + vname(v) +
                      " touched by two calls (vertex-disjoint model)");
        }
      }
    }

    // Walk the path: every hop an edge, no edge reused beyond capacity
    // (the call's own edges also count toward the capacity — a single
    // call may not traverse one edge twice in the unit-capacity model).
    for (std::size_t i = 0; i + 1 < call.size(); ++i) {
      const Vertex x = call[i];
      const Vertex y = call[i + 1];
      if (x >= order || y >= order) {
        return fail(where + "path vertex out of range");
      }
      if (x == y || !net.has_edge(x, y)) {
        return fail(where + "no edge between " + vname(x) + " and " + vname(y));
      }
      const int uses = ++state.edge_use[edge_key(x, y)];
      if (uses > opt.edge_capacity) {
        return fail(where + "edge {" + vname(x) + "," + vname(y) + "} used " +
                    std::to_string(uses) + " times (capacity " +
                    std::to_string(opt.edge_capacity) + ")");
      }
    }
  }

  // Receivers become informed only after the full round resolves; a
  // vertex informed this round may not also have placed a call (it was
  // uninformed at round start, enforced by the caller check above).
  for (Vertex r : state.round_receivers) state.informed.insert(r);
  return true;
}

/// Shared tail: completion and minimum-time verdicts.
inline void finish_broadcast_report(std::uint64_t order,
                                    const ValidationOptions& opt,
                                    const BroadcastRunState& state,
                                    ValidationReport& rep) {
  rep.informed = state.informed.size();
  if (opt.require_completion && rep.informed != order) {
    rep.ok = false;
    rep.error = "incomplete: informed " + std::to_string(rep.informed) + " of " +
                std::to_string(order);
    return;
  }
  rep.ok = true;
  rep.minimum_time =
      rep.ok && rep.rounds == ceil_log2(order) && rep.informed == order;
}

}  // namespace detail

/// Validates `schedule` against `net` under `opt`.  Checks, per round:
/// callers informed, receivers distinct and (optionally) uninformed,
/// every path edge exists, call length <= k, no edge used more than
/// edge_capacity times in the round, no call re-uses an edge within its
/// own path; finally completion and minimum-time.  Degenerate calls
/// (empty or single-vertex paths) are rejected explicitly.
template <AdjacencyOracle Net>
[[nodiscard]] ValidationReport validate_broadcast(const Net& net,
                                                  const FlatSchedule& schedule,
                                                  const ValidationOptions& opt) {
  ValidationReport rep;
  const std::uint64_t order = net.num_vertices();

  if (schedule.source >= order) {
    rep.ok = false;
    rep.error = "source out of range";
    return rep;
  }

  detail::BroadcastRunState state(order, opt);
  state.informed.insert(schedule.source);

  std::size_t first = 0;
  for (int t = 0; t < schedule.num_rounds(); ++t) {
    const std::size_t last = first + schedule.round(t).size();
    ++rep.rounds;
    if (!detail::validate_round_serial(net, schedule, first, last, t + 1, opt,
                                       state, rep)) {
      return rep;
    }
    first = last;
  }

  detail::finish_broadcast_report(order, opt, state, rep);
  return rep;
}

/// Convenience: validate under the paper's exact model and require a
/// minimum-time result.  Returns the report (callers assert report.ok &&
/// report.minimum_time).
template <AdjacencyOracle Net>
[[nodiscard]] ValidationReport validate_minimum_time_k_line(const Net& net,
                                                            const FlatSchedule& schedule,
                                                            int k) {
  ValidationOptions opt;
  opt.k = k;
  return validate_broadcast(net, schedule, opt);
}

}  // namespace shc
