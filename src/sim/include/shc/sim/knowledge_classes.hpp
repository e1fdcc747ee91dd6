// Knowledge-class partition — the state layer of the symbolic gossip
// engine.
//
// The exact gossip validator tracks N^2 bits (who knows which token) and
// hard-fails at N > 2^13.  The symbolic engine exploits that gossip
// knowledge is *translation-covariant* under subcube-batched exchanges:
// a call group pairs every caller u of a subcube with the fixed
// translate u ^ delta, so if every vertex v of a region knows exactly
// { v ^ x : x in K } for one shared offset set K, the paired regions
// again share one offset set after the exchange — the union
// K ∪ (K' ^ delta), computed once and reused (translated) on the other
// side.  The partition therefore tracks, instead of N token bitsets:
//
//   * a set of *classes* — disjoint subcubes covering Q_n — where every
//     vertex of a class has the same knowledge *relative to itself*;
//   * per class, one shared GossipKnowledge: a canonical disjoint
//     subcube cover of the known offsets (structurally the same
//     representation as the broadcast engine's informed frontier).
//
// apply_round() refines classes along the exchange boundaries (a group
// bisecting a class splits it), computes each pairing's union exactly
// once (translation-keyed cache; genuine set union — overlapping
// knowledge deduplicates via subcube subtraction), and re-coalesces
// classes whose knowledge came out identical through canonical_reduce,
// which is what keeps dimension-exchange gossip at O(1) classes and
// gather-broadcast gossip at the broadcast frontier's polynomial size.
//
// The endgame check is all_complete(): every class's knowledge must be
// the full cube covered exactly once — the XOR-translate of the full
// cube is the full cube, so this certifies that every vertex knows
// every token, with no per-vertex state ever materialized.  All
// cardinality arithmetic (offset counts, coverage sums, the
// class-size x knowledge-count pair totals) goes through bits/checked.hpp:
// at n = 63 the counts reach 2^63 and the pair products overflow 64 bits
// first here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "shc/bits/checked.hpp"
#include "shc/bits/vertex.hpp"
#include "shc/sim/subcube.hpp"

namespace shc {

class WorkerPool;
struct SymbolicRound;

/// One immutable knowledge set of relative offsets, shared (via
/// shared_ptr) by every class whose vertices know exactly these offsets
/// of themselves.  Invariants: entries are pairwise disjoint, carry
/// multiplicity one, and are in canonical sorted form (canonical_reduce
/// output ordered by (mask, prefix)), so content equality is plain
/// vector equality and `sig` is a deterministic content hash.
struct GossipKnowledge {
  std::vector<WeightedSubcube> entries;
  std::uint64_t count = 0;  ///< offsets covered (sum of 2^dim, exact)
  std::uint64_t sig = 0;    ///< hash of (count, entries) for merge buckets

  /// True iff the set is all of Q_n covered exactly once.
  [[nodiscard]] bool complete(int n) const noexcept {
    return entries.size() == 1 && entries[0].prefix == 0 &&
           entries[0].mask == mask_low(n) && entries[0].mult == 1;
  }
};

using GossipKnowledgePtr = std::shared_ptr<const GossipKnowledge>;

/// Cap of the partition machinery — like the symbolic broadcast
/// validator's, it makes adversarially fragmented input fail explicitly
/// instead of thrashing.  The node budgets of the reductions and
/// subtractions are fixed (knowledge_classes.cpp).
struct KnowledgeClassOptions {
  /// Hard cap on classes (memory guard).  The class count plateaus at
  /// the geometric complexity of the schedule's participation regions —
  /// roughly half the producer's total group count for gather-broadcast
  /// (~2M at n = 40 on the designed cuts).
  std::uint64_t max_classes = std::uint64_t{1} << 23;
};

/// Size/effort counters of one partition run.
struct KnowledgeClassStats {
  std::uint64_t classes = 0;        ///< current class count
  std::uint64_t peak_classes = 0;
  /// High-water mark of the summed entry counts of the *distinct*
  /// knowledge sets alive at a round boundary.
  std::uint64_t peak_knowledge_subcubes = 0;
  std::uint64_t unions_computed = 0;
  std::uint64_t union_cache_hits = 0;
  /// Pairings whose union was genuinely computed this run (the
  /// translation-keyed cache had no entry) — hits + misses is the total
  /// pairing lookups.
  std::uint64_t union_cache_misses = 0;
  /// Subtrees farmed by canonical_reduce_tree (union canonicalization
  /// and the single-bucket merge path).  Thread-count dependent by
  /// design — the serial path farms nothing — so it is never gated for
  /// thread invariance.
  std::uint64_t reduce_tree_tasks = 0;
  /// Sum over classes of class-size x knowledge-count — the "who knows
  /// what" pair total the exact validator stores as N^2 bits.  Saturates
  /// at UINT64_MAX with known_pairs_exact cleared (at n = 63 the final
  /// total is 2^126; the overflow is expected and must be explicit).
  std::uint64_t known_pairs = 0;
  bool known_pairs_exact = true;
};

/// The partition of Q_n into equal-relative-knowledge classes.  Starts
/// as one class (the full cube) knowing offset {0} — every vertex knows
/// its own token.  Not thread-safe; one instance per validation run.
class KnowledgeClassPartition {
 public:
  /// Throws std::invalid_argument unless 1 <= n <= kMaxCubeDim.
  explicit KnowledgeClassPartition(int n, KnowledgeClassOptions opt = {});

  /// One round's exchanges: every vertex v of `callers` exchanges with
  /// v ^ delta.  Pre (the symbolic gossip validator establishes all of
  /// these; apply_round re-checks the cheap ones and returns an error
  /// otherwise): delta != 0, delta and the caller subcube in range,
  /// delta disjoint from the caller subcube's free mask, and all 2R
  /// endpoint subcubes of the round pairwise disjoint.
  struct Exchange {
    Subcube callers;
    Vertex delta = 0;
  };

  /// Applies one round of simultaneous exchanges.  Returns the empty
  /// string on success, or an explicit error (budget/cap exhaustion,
  /// malformed exchange, or an internal coverage-loss check — the
  /// latter also fires when the endpoint-disjointness precondition was
  /// violated, so the partition never silently corrupts).
  [[nodiscard]] std::string apply_round(const std::vector<Exchange>& exchanges);

  /// The same for a recorded round: group g's callers exchange along
  /// its pattern's last vertex (an empty pattern reads delta 0, refused).
  [[nodiscard]] std::string apply_round(const SymbolicRound& round);

  /// True iff every class's knowledge is the full cube covered once —
  /// gossip completion.
  [[nodiscard]] bool all_complete() const noexcept;

  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }
  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] const KnowledgeClassStats& stats() const noexcept { return stats_; }

  /// Relative knowledge of the class containing `v` (linear scan; for
  /// tests and diagnostics, not the hot path).  Throws
  /// std::out_of_range for a `v` outside the cube.
  [[nodiscard]] const GossipKnowledge& knowledge_of(Vertex v) const;

  /// Optional worker pool for the heavy reductions (knowledge unions
  /// and the class re-coalesce pass farm the reduce recursion's top
  /// split over it).  Results are bit-for-bit identical with or without
  /// a pool and at every thread count — the recursion tree is a
  /// deterministic function of the data (see canonical_reduce_tree).
  /// The pool must outlive the partition; nullptr (the default) runs
  /// everything inline.
  void set_pool(WorkerPool* pool) noexcept { pool_ = pool; }

 private:
  struct ClassEntry {
    Subcube cube;
    GossipKnowledgePtr know;
    /// True for classes created or re-cut this round: the merge pass
    /// only canonicalizes signature buckets containing a fresh member,
    /// so the plateau of settled classes is not re-reduced every round.
    bool fresh = false;
  };

  /// apply_round over `count` exchanges, the i-th read as at(i).
  template <class ExchangeAt>
  [[nodiscard]] std::string apply_exchanges(std::size_t count, const ExchangeAt& at);
  [[nodiscard]] std::string merge_equal_classes(std::vector<ClassEntry>& next);
  void refresh_stats();

  int n_;
  KnowledgeClassOptions opt_;
  std::vector<ClassEntry> classes_;
  KnowledgeClassStats stats_;
  WorkerPool* pool_ = nullptr;
};

}  // namespace shc
