// Gossip (all-to-all exchange) under the k-line model — the paper's
// Section-5 future-work direction ("it should be promising to
// investigate minimum-time gossip graphs [17] under our model").
//
// Model: every vertex starts with one token.  Per round, calls are
// placed exactly as in k-line broadcast (edge-disjoint paths of <= k
// edges), but a call is a bidirectional *exchange*: afterwards both
// endpoints know the union of their token sets.  A gossip completes
// when every vertex knows every token; the trivial lower bound is
// ceil(log2 N) rounds (each vertex's knowledge at most doubles).
//
// Schemes provided:
//   * hypercube_exchange_gossip — the classic dimension-exchange on the
//     full Q_n: n rounds of perfect dim-i matchings, k = 1.  Optimal.
//   * sparse_gather_broadcast_gossip — on a sparse hypercube: reverse
//     the Broadcast_k schedule to accumulate all tokens at the source
//     (n rounds), then broadcast them back (n rounds): 2n rounds total
//     with calls of length <= k.  Whether n rounds are achievable on
//     o(n)-degree graphs is precisely the open problem; the gossip
//     bench (E13) reports the measured gap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "shc/bits/bitstring.hpp"
#include "shc/mlbg/broadcast.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/sim/flat_schedule.hpp"
#include "shc/sim/network.hpp"
#include "shc/sim/validator.hpp"

namespace shc {

/// A gossip schedule reuses the flat round/call structure; calls are
/// interpreted as exchanges (direction is irrelevant, source unused).
using GossipSchedule = FlatSchedule;

/// Validation outcome for a gossip schedule.
struct GossipReport {
  bool ok = false;
  std::string error;        ///< empty iff ok
  int rounds = 0;
  bool complete = false;    ///< every vertex knows every token
  bool minimum_time = false;  ///< complete in exactly ceil(log2 N) rounds
  int max_call_length = 0;

  /// Exchanges (calls) across all rounds.  Explicitly 64-bit: the
  /// symbolic gossip engine certifies schedules of up to 2^64 - 2
  /// exchanges and refuses with an explicit error beyond that, rather
  /// than wrapping.
  std::uint64_t total_exchanges = 0;

  /// Bit-for-bit comparability: the symbolic gossip validator is
  /// required (and tested) to reproduce the exact validator's report on
  /// the shared range, including clean-run counters.
  friend bool operator==(const GossipReport&, const GossipReport&) = default;
};

namespace detail {

/// Per-vertex knowledge as packed token bitsets.
class KnowledgeMatrix {
 public:
  explicit KnowledgeMatrix(std::uint64_t n)
      : n_(n), words_((n + 63) / 64), bits_(n * words_, 0) {
    for (std::uint64_t v = 0; v < n; ++v) {
      bits_[v * words_ + v / 64] |= std::uint64_t{1} << (v % 64);
    }
  }

  void exchange(std::uint64_t a, std::uint64_t b) {
    std::uint64_t* ra = &bits_[a * words_];
    std::uint64_t* rb = &bits_[b * words_];
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t u = ra[w] | rb[w];
      ra[w] = u;
      rb[w] = u;
    }
  }

  [[nodiscard]] bool complete() const {
    for (std::uint64_t v = 0; v < n_; ++v) {
      const std::uint64_t* row = &bits_[v * words_];
      for (std::size_t w = 0; w + 1 < words_; ++w) {
        if (row[w] != ~std::uint64_t{0}) return false;
      }
      const std::uint64_t tail_bits = n_ - 64 * (words_ - 1);
      const std::uint64_t tail_mask =
          tail_bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail_bits) - 1;
      if ((row[words_ - 1] & tail_mask) != tail_mask) return false;
    }
    return true;
  }

 private:
  std::uint64_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// Per-round structural clauses shared by the exact gossip validator
/// and the symbolic engine's sampled concrete replay: call shape, length <= k, endpoint uniqueness (a vertex
/// joins at most one exchange), path range checks, edge existence, and
/// edge-disjointness.  Returns the error message (round prefix
/// included) or an empty string; updates `max_call_length`.  Keeping
/// one copy means a hardening fix cannot silently miss one engine.
template <class Net>
[[nodiscard]] std::string check_gossip_round_structure(
    const Net& net, const FlatSchedule::RoundView& round, int k,
    int round_number, int& max_call_length, std::uint64_t& total_exchanges,
    std::unordered_set<EdgeKey, EdgeKeyHash>& round_edges,
    std::unordered_set<Vertex>& round_endpoints) {
  const std::uint64_t order = net.num_vertices();
  round_edges.clear();
  round_endpoints.clear();
  const std::string where = "round " + std::to_string(round_number) + ": ";
  for (const FlatSchedule::CallView call : round) {
    if (call.size() < 2) return where + "empty or zero-length exchange";
    max_call_length = std::max(max_call_length, call.length());
    ++total_exchanges;
    if (call.length() > k) {
      return where + "exchange longer than k=" + std::to_string(k);
    }
    const Vertex a = call.caller();
    const Vertex b = call.receiver();
    if (a >= order || b >= order) return where + "endpoint out of range";
    // Each vertex joins at most one exchange per round.
    if (!round_endpoints.insert(a).second) {
      return where + "vertex " + std::to_string(a) + " in two exchanges";
    }
    if (!round_endpoints.insert(b).second) {
      return where + "vertex " + std::to_string(b) + " in two exchanges";
    }
    for (std::size_t i = 0; i + 1 < call.size(); ++i) {
      const Vertex x = call[i];
      const Vertex y = call[i + 1];
      // Mirror validate_broadcast: interior path vertices must be
      // range-checked before they reach the adjacency oracle (a
      // GraphView would index out of bounds otherwise).
      if (x >= order || y >= order) {
        return where + "path vertex out of range";
      }
      if (x == y || !net.has_edge(x, y)) {
        return where + "no edge between " + std::to_string(x) + " and " +
               std::to_string(y);
      }
      if (!round_edges.insert(edge_key(x, y)).second) {
        return where + "edge {" + std::to_string(x) + "," + std::to_string(y) +
               "} used twice";
      }
    }
  }
  return {};
}

}  // namespace detail

/// Checks a gossip schedule against `net` under the k-line constraints:
/// per round, paths valid and edge-disjoint; in gossip both endpoints
/// receive, so the receiver-uniqueness rule becomes endpoint-uniqueness:
/// a vertex takes part in at most one exchange per round.  Knowledge is
/// tracked exactly (N^2 bits; pre: N <= 2^13).  Templated over the
/// adjacency oracle like validate_broadcast.
template <AdjacencyOracle Net>
[[nodiscard]] GossipReport validate_gossip(const Net& net,
                                           const GossipSchedule& schedule, int k) {
  GossipReport rep;
  const std::uint64_t order = net.num_vertices();

  auto fail = [&](std::string msg) {
    rep.ok = false;
    rep.error = std::move(msg);
    return rep;
  };

  // Hard guard, not an assert: in Release an oversized oracle would
  // silently allocate the O(N^2)-bit knowledge matrix.
  if (order > (std::uint64_t{1} << 13)) {
    return fail("network order " + std::to_string(order) +
                " exceeds the gossip validator limit 2^13 (exact knowledge "
                "tracking costs N^2 bits); use certify_gossip_symbolic to "
                "certify at scale");
  }

  detail::KnowledgeMatrix know(order);
  std::unordered_set<detail::EdgeKey, detail::EdgeKeyHash> round_edges;
  std::unordered_set<Vertex> round_endpoints;

  for (int t = 0; t < schedule.num_rounds(); ++t) {
    ++rep.rounds;
    const FlatSchedule::RoundView round = schedule.round(t);
    std::string err = detail::check_gossip_round_structure(
        net, round, k, t + 1, rep.max_call_length, rep.total_exchanges,
        round_edges, round_endpoints);
    if (!err.empty()) return fail(std::move(err));
    // Exchanges resolve simultaneously; endpoint-uniqueness makes the
    // application order irrelevant.
    for (const FlatSchedule::CallView call : round) {
      know.exchange(call.caller(), call.receiver());
    }
  }

  rep.complete = know.complete();
  if (!rep.complete) return fail("gossip incomplete after all rounds");
  rep.ok = true;
  rep.minimum_time = rep.rounds == ceil_log2(order);
  return rep;
}

/// Dimension-exchange gossip on the full Q_n: round t pairs every vertex
/// with its neighbor across dimension n-t+1.  n rounds, k = 1, optimal.
/// Materializes n * 2^(n-1) concrete exchanges; throws
/// std::invalid_argument unless 1 <= n <= 28 (the flat engine's sane
/// range — beyond it, produce symbolically with
/// hypercube_exchange_gossip_symbolic, which admits n <= 63).
[[nodiscard]] GossipSchedule hypercube_exchange_gossip(int n);

/// Gather-then-broadcast gossip on a sparse hypercube: the Broadcast_k
/// schedule from `root` is replayed backwards (leaf calls first) to
/// accumulate every token at `root`, then forwards to disseminate.
/// 2n rounds, calls of length <= spec.k().  Materializes 2 * (2^n - 1)
/// concrete exchanges; throws std::invalid_argument unless
/// spec.n() <= 20 (the exact validator stops at 2^13 vertices anyway —
/// beyond the wall, certify symbolically with certify_gossip_symbolic).
[[nodiscard]] GossipSchedule sparse_gather_broadcast_gossip(
    const SparseHypercubeSpec& spec, Vertex root);

}  // namespace shc
