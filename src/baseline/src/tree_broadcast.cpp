#include "shc/baseline/tree_broadcast.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "shc/bits/bitstring.hpp"
#include "shc/graph/algorithms.hpp"
#include "shc/graph/generators.hpp"

namespace shc {
namespace {

// Line-broadcast scheduling on trees by responsibility-set splitting.
//
// Every informed vertex owns a *set* of uninformed vertices (not
// necessarily connected — line calls switch through foreign vertices).
// Each round an owner o:
//   1. roots the tree at itself and computes, for every vertex v, the
//      number of owned uninformed vertices in v's subtree (weight);
//   2. picks a *generalized carve* give = owned(subtree(c)) \ subtree(x)
//      whose size best splits the remaining budget: subtree differences
//      realize sizes plain subtrees cannot (e.g. 2^(j-1) out of a
//      complete binary tree whose subtree sizes are all 2^i - 1);
//   3. calls a balance vertex u inside the carve along the unique tree
//      path o -> u, provided its edges are free this round; the carve
//      becomes u's responsibility set.
// Informed vertices whose sets are empty act as helpers: they carve out
// of the most over-budget set along free edges.  Budgets come from the
// global target R = ceil(log2 N): after round t each set should fit in
// 2^(R-t) - 1 so the remaining rounds can finish it.
//
// Feasibility is unconditional (every call is edge-checked against the
// round); hitting R exactly is heuristic and certified per-family by
// tests (paths, stars, caterpillars, complete binary trees, the paper's
// Figure-1 trees).

struct EdgeKey {
  VertexId a, b;
  auto operator<=>(const EdgeKey&) const = default;
};

EdgeKey canon(VertexId u, VertexId v) { return u <= v ? EdgeKey{u, v} : EdgeKey{v, u}; }

FlatSchedule::RoundView last_round(const FlatSchedule& s) {
  return s.round(s.num_rounds() - 1);
}

class Scheduler {
 public:
  Scheduler(const Graph& tree, VertexId source)
      : g_(tree), n_(tree.num_vertices()), source_(source) {
    informed_.assign(n_, 0);
    informed_[source_] = 1;
    owner_.assign(n_, source_);
    parent_.assign(n_, n_);
    order_.reserve(n_);
    depth_.assign(n_, 0);
    weight_.assign(n_, 0);
  }

  FlatSchedule run() {
    FlatSchedule schedule;
    schedule.source = source_;
    VertexId informed_count = 1;
    const int target = ceil_log2(n_);
    // Hard cap: the fallback guarantees >= 1 new vertex per round, so
    // the loop always terminates; 2*target + 8 bounds heuristic drift.
    const int max_rounds = std::max(static_cast<int>(n_), 2 * target + 8);
    while (informed_count < n_ && schedule.num_rounds() < max_rounds) {
      const int rem = std::max(0, target - schedule.num_rounds() - 1);
      const std::uint64_t cap =
          rem >= 62 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
      schedule.begin_round();
      plan_round(cap, schedule);
      if (last_round(schedule).empty()) {
        // Heuristic stall (should not happen on trees): fall back to a
        // direct call from some informed vertex to an adjacent
        // uninformed vertex, which always exists in a connected graph.
        fallback_call(schedule);
      }
      for (const FlatSchedule::CallView c : last_round(schedule)) {
        informed_[static_cast<VertexId>(c.receiver())] = 1;
        ++informed_count;
      }
    }
    if (informed_count != n_) {
      throw std::logic_error("tree_line_broadcast: scheduler informed " +
                             std::to_string(informed_count) + " of " +
                             std::to_string(n_) + " vertices");
    }
    return schedule;
  }

 private:
  /// BFS-roots the whole tree at `root`; fills parent_/order_/depth_ and
  /// weight_ = per-subtree count of vertices owned by `root` and still
  /// uninformed and uncarved this round.
  void root_at(VertexId root) {
    std::fill(parent_.begin(), parent_.end(), n_);
    order_.clear();
    parent_[root] = root;
    depth_[root] = 0;
    order_.push_back(root);
    for (std::size_t h = 0; h < order_.size(); ++h) {
      const VertexId u = order_[h];
      for (VertexId w : g_.neighbors(u)) {
        if (parent_[w] == n_) {
          parent_[w] = u;
          depth_[w] = depth_[u] + 1;
          order_.push_back(w);
        }
      }
    }
    std::fill(weight_.begin(), weight_.end(), 0);
    for (std::size_t i = order_.size(); i-- > 0;) {
      const VertexId v = order_[i];
      if (!informed_[v] && owner_[v] == root && !carved_[v]) ++weight_[v];
      if (parent_[v] != v) weight_[parent_[v]] += weight_[v];
    }
  }

  /// After root_at: true iff `anc` lies on the path from `v` to the root
  /// (inclusive).
  bool is_ancestor(VertexId anc, VertexId v) const {
    while (depth_[v] > depth_[anc]) v = parent_[v];
    return v == anc;
  }

  /// A generalized carve out of the current rooting's owner set.
  struct Carve {
    VertexId c = 0;          ///< carve top
    VertexId x = 0;          ///< excluded subtree root, or n_ for none
    VertexId receiver = 0;   ///< uninformed member that receives the call
    std::uint64_t give = 0;  ///< members transferred (receiver included)
  };

  /// Searches for the carve whose two sides best fit `cap` (primary:
  /// total capacity overflow; secondary: balance).  give == 0 means the
  /// set is empty or fully masked.
  Carve choose_carve(VertexId o, std::uint64_t cap) const {
    const std::uint64_t q = weight_[o];
    Carve best;
    if (q == 0) return best;
    std::uint64_t best_score = ~std::uint64_t{0};
    const std::uint64_t half = (q + 1) / 2;
    for (const VertexId c : order_) {
      if (c == o || weight_[c] == 0) continue;
      // Plain subtree carve.
      consider(o, c, n_, weight_[c], q, cap, half, best, best_score);
      // Subtree-difference carves: exclude one descendant branch.  The
      // heavy chain below each child realizes the useful size gaps
      // without scanning all O(subtree^2) pairs.
      for (VertexId x : g_.neighbors(c)) {
        if (x == parent_[c] || weight_[x] == 0 || weight_[x] == weight_[c]) continue;
        consider(o, c, x, weight_[c] - weight_[x], q, cap, half, best, best_score);
        VertexId y = x;
        while (true) {
          VertexId heavy = n_;
          std::uint64_t hw = 0;
          for (VertexId z : g_.neighbors(y)) {
            if (z != parent_[y] && weight_[z] > hw) {
              hw = weight_[z];
              heavy = z;
            }
          }
          if (heavy == n_) break;
          if (weight_[c] > weight_[heavy]) {
            consider(o, c, heavy, weight_[c] - weight_[heavy], q, cap, half, best,
                     best_score);
          }
          y = heavy;
        }
      }
    }
    return best;
  }

  /// Evaluates carve (c, x) with transfer size `give`; records it in
  /// `best` when it improves `best_score` and a receiver exists.
  void consider(VertexId o, VertexId c, VertexId x, std::uint64_t give,
                std::uint64_t q, std::uint64_t cap, std::uint64_t half, Carve& best,
                std::uint64_t& best_score) const {
    if (give == 0 || give > q) return;
    const std::uint64_t keep = q - give;
    const std::uint64_t callee_after = give - 1;
    const std::uint64_t overflow = (keep > cap ? keep - cap : 0) +
                                   (callee_after > cap ? callee_after - cap : 0);
    const std::uint64_t balance = give > half ? give - half : half - give;
    // Lexicographic score: overflow, then balance, then a preference for
    // deep carve tops — give the far part away, keep the near part, so
    // the owner's future calls stay short and contention-free.
    const std::uint64_t span = static_cast<std::uint64_t>(n_) + 1;
    const std::uint64_t score =
        (overflow * span + balance) * span + (span - 1 - depth_[c]);
    if (score >= best_score) return;
    const VertexId receiver = pick_receiver(o, c, x, give);
    if (receiver == n_) return;
    best = Carve{c, x, receiver, give};
    best_score = score;
  }

  /// Receiver inside the carve (c, x): the shallowest member (the carve
  /// top itself when it is a member), breaking depth ties toward the
  /// heaviest subtree.  A shallow receiver preserves the carve's
  /// geometry — its own future calls fan out downward without crossing
  /// the owner's retained side.
  VertexId pick_receiver(VertexId o, VertexId c, VertexId x,
                         std::uint64_t /*give*/) const {
    VertexId best = n_;
    for (const VertexId v : order_) {
      if (informed_[v] || owner_[v] != o || carved_[v]) continue;
      if (!is_ancestor(c, v)) continue;
      if (x != n_ && is_ancestor(x, v)) continue;
      if (best == n_ || depth_[v] < depth_[best] ||
          (depth_[v] == depth_[best] && weight_[v] > weight_[best])) {
        best = v;
      }
    }
    return best;
  }

  /// Unique tree path a -> b under the current rooting (LCA walk).
  std::vector<Vertex> tree_path(VertexId a, VertexId b) const {
    std::vector<Vertex> up, down;
    VertexId x = a, y = b;
    while (depth_[x] > depth_[y]) {
      up.push_back(x);
      x = parent_[x];
    }
    while (depth_[y] > depth_[x]) {
      down.push_back(y);
      y = parent_[y];
    }
    while (x != y) {
      up.push_back(x);
      down.push_back(y);
      x = parent_[x];
      y = parent_[y];
    }
    up.push_back(x);
    up.insert(up.end(), down.rbegin(), down.rend());
    return up;
  }

  bool edges_free(const std::vector<Vertex>& path) const {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (used_.contains(canon(static_cast<VertexId>(path[i]),
                               static_cast<VertexId>(path[i + 1])))) {
        return false;
      }
    }
    return true;
  }

  void mark_edges(const std::vector<Vertex>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      used_.insert(canon(static_cast<VertexId>(path[i]),
                         static_cast<VertexId>(path[i + 1])));
    }
  }

  /// Transfers membership of the carve to its receiver.  Must run under
  /// the same rooting that produced the carve.
  void commit_carve(VertexId o, const Carve& cv) {
    for (const VertexId v : order_) {
      if (informed_[v] || owner_[v] != o || carved_[v]) continue;
      if (!is_ancestor(cv.c, v)) continue;
      if (cv.x != n_ && is_ancestor(cv.x, v)) continue;
      owner_[v] = cv.receiver;
      carved_[v] = 1;  // fixed for the rest of the round
    }
  }

  void recount_sets() {
    set_size_.assign(n_, 0);
    for (VertexId v = 0; v < n_; ++v) {
      if (!informed_[v]) ++set_size_[owner_[v]];
    }
  }

  /// One call attempt by `caller` into `set_owner`'s set.  Returns true
  /// when a call was placed into the open round of `out`.
  bool try_call(VertexId caller, VertexId set_owner, std::uint64_t cap,
                FlatSchedule& out) {
    root_at(set_owner);
    for (int attempt = 0; attempt < 6; ++attempt) {
      const Carve cv = choose_carve(set_owner, cap);
      if (cv.give == 0) return false;
      const std::vector<Vertex> path = tree_path(caller, cv.receiver);
      if (edges_free(path)) {
        mark_edges(path);
        commit_carve(set_owner, cv);
        set_size_[set_owner] -= cv.give;
        out.add_call(path);
        return true;
      }
      // Mask the receiver and re-search; weights must be rebuilt since
      // carved_ feeds them.
      carved_[cv.receiver] = 1;
      masked_.push_back(cv.receiver);
      root_at(set_owner);
    }
    return false;
  }

  /// Plans one round's calls into the open round of `out`.
  void plan_round(std::uint64_t cap, FlatSchedule& out) {
    carved_.assign(n_, 0);
    used_.clear();
    recount_sets();

    std::vector<VertexId> helpers;
    for (VertexId o = 0; o < n_; ++o) {
      if (!informed_[o]) continue;
      masked_.clear();
      const bool placed = set_size_[o] > 0 && try_call(o, o, cap, out);
      for (VertexId v : masked_) carved_[v] = 0;  // un-mask failed tries
      if (!placed) helpers.push_back(o);
    }

    for (const VertexId h : helpers) {
      std::vector<VertexId> targets;
      for (VertexId o = 0; o < n_; ++o) {
        if (informed_[o] && set_size_[o] > 0) targets.push_back(o);
      }
      std::sort(targets.begin(), targets.end(), [&](VertexId a, VertexId b) {
        const std::uint64_t oa = set_size_[a] > cap ? set_size_[a] - cap : 0;
        const std::uint64_t ob = set_size_[b] > cap ? set_size_[b] - cap : 0;
        if (oa != ob) return oa > ob;
        if (set_size_[a] != set_size_[b]) return set_size_[a] > set_size_[b];
        return a < b;
      });
      for (const VertexId o : targets) {
        masked_.clear();
        const bool placed = try_call(h, o, cap, out);
        for (VertexId v : masked_) carved_[v] = 0;
        if (placed) break;
      }
    }

    // Final packing sweep: any informed vertex that has not called yet
    // and has an uninformed neighbor over a free edge places a direct
    // call.  This fills rounds the carve heuristics left slack in
    // (typically the broadcast tail).
    std::vector<char> busy(n_, 0);
    std::vector<char> receiving(n_, 0);
    for (const FlatSchedule::CallView c : last_round(out)) {
      busy[static_cast<VertexId>(c.caller())] = 1;
      receiving[static_cast<VertexId>(c.receiver())] = 1;
    }
    for (VertexId v = 0; v < n_; ++v) {
      if (informed_[v] || receiving[v]) continue;
      for (VertexId u : g_.neighbors(v)) {
        if (!informed_[u] || busy[u]) continue;
        const std::vector<Vertex> path{u, v};
        if (!edges_free(path)) continue;
        mark_edges(path);
        busy[u] = 1;
        receiving[v] = 1;
        out.add_call(path);
        break;
      }
    }
  }

  void fallback_call(FlatSchedule& out) const {
    for (VertexId u = 0; u < n_; ++u) {
      if (!informed_[u]) continue;
      for (VertexId w : g_.neighbors(u)) {
        if (!informed_[w]) {
          out.add_call({Vertex{u}, Vertex{w}});
          return;
        }
      }
    }
    throw std::logic_error(
        "tree_line_broadcast: no informed-uninformed edge in a connected graph");
  }

  const Graph& g_;
  VertexId n_;
  VertexId source_;
  std::vector<char> informed_;
  std::vector<VertexId> owner_;

  // Rooting scratch (valid for the most recent root_at call).
  std::vector<VertexId> parent_;
  std::vector<VertexId> order_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint64_t> weight_;

  // Round scratch.
  std::vector<char> carved_;
  std::vector<VertexId> masked_;
  std::vector<std::uint64_t> set_size_;
  std::set<EdgeKey> used_;
};

TreeBroadcastResult finish_result(FlatSchedule schedule, VertexId n) {
  TreeBroadcastResult result;
  result.minimum_rounds = ceil_log2(n);
  result.schedule = std::move(schedule);
  result.rounds = result.schedule.num_rounds();
  result.achieved_minimum = result.rounds == result.minimum_rounds;
  result.max_call_length = result.schedule.max_call_length();
  return result;
}

}  // namespace

TreeBroadcastResult tree_line_broadcast(const Graph& tree, VertexId source) {
  const VertexId n = tree.num_vertices();
  if (source >= n) {
    throw std::invalid_argument("tree_line_broadcast: source " + std::to_string(source) +
                                " out of range for " + std::to_string(n) + " vertices");
  }
  if (!is_tree(tree)) {
    throw std::invalid_argument("tree_line_broadcast: graph is not a tree");
  }
  return finish_result(Scheduler(tree, source).run(), n);
}

namespace {

/// Walks a heap-numbered complete binary tree from `v` up to its root 0,
/// returning [v, parent, ..., 0].
std::vector<Vertex> heap_walk_to_root(VertexId v) {
  std::vector<Vertex> path{v};
  while (v != 0) {
    v = (v - 1) / 2;
    path.push_back(v);
  }
  return path;
}

/// Appends two independent component broadcasts side by side as the
/// next rounds of `out`: merged round t holds `a`'s round-t calls, then
/// `b`'s round-t calls with vertex ids translated by `b_shift`.
void merge_component_schedules(FlatSchedule& out, const FlatSchedule& a,
                               const FlatSchedule& b, Vertex b_shift) {
  const int rounds = std::max(a.num_rounds(), b.num_rounds());
  for (int t = 0; t < rounds; ++t) {
    out.begin_round();
    if (t < a.num_rounds()) {
      for (const FlatSchedule::CallView c : a.round(t)) out.add_call(c);
    }
    if (t < b.num_rounds()) {
      for (const FlatSchedule::CallView c : b.round(t)) {
        for (const Vertex v : c) out.push_vertex(v + b_shift);
        out.end_call();
      }
    }
  }
}

}  // namespace

TreeBroadcastResult theorem1_tree_broadcast(int h, VertexId source) {
  // h <= 30 keeps |B(h)| + |B(h-1)| = 3*2^h - 2 inside VertexId.
  if (h < 1 || h > 30) {
    throw std::invalid_argument("theorem1_tree_broadcast: h must be in [1, 30], got " +
                                std::to_string(h));
  }
  const VertexId big = (VertexId{1} << (h + 1)) - 1;   // |B(h)|
  const VertexId small = (VertexId{1} << h) - 1;       // |B(h-1)|
  const VertexId n = big + small;
  if (source >= n) {
    throw std::invalid_argument("theorem1_tree_broadcast: source " +
                                std::to_string(source) + " out of range for " +
                                std::to_string(n) + " vertices");
  }

  if (h == 1) {
    // N = 4 is K_{1,3}; ceil(log2 N) = 2 = h+1 and the composition's
    // h+2 would overshoot.  The generic scheduler handles it.
    return tree_line_broadcast(make_theorem1_tree(1), source);
  }

  const Graph big_tree = make_complete_binary_tree(h);
  const Graph small_tree = make_complete_binary_tree(h - 1);

  FlatSchedule schedule;
  schedule.source = source;

  // Round 1: cross-call over the joining edge {0, big}.
  std::vector<Vertex> cross;
  if (source < big) {
    cross = heap_walk_to_root(source);   // source -> ... -> 0
    cross.push_back(big);                // -> small root
  } else {
    cross = heap_walk_to_root(source - big);
    for (Vertex& v : cross) v += big;    // source -> ... -> small root
    cross.push_back(0);                  // -> big root
  }
  schedule.begin_round();
  schedule.add_call(cross);

  // Rounds 2..: independent component broadcasts.
  merge_component_schedules(schedule, Scheduler(big_tree, source < big ? source : 0).run(),
                            Scheduler(small_tree, source < big ? 0 : source - big).run(),
                            big);

  return finish_result(std::move(schedule), n);
}

}  // namespace shc
