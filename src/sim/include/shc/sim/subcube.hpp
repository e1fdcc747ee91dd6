// Subcube algebra — the representation layer of the symbolic schedule
// engine.
//
// A subcube of Q_n is written (prefix, mask): `mask` marks the free
// dimensions, `prefix` pins the rest (prefix & mask == 0), and the
// subcube is { prefix | a : a subset of mask } — 2^popcount(mask)
// vertices.  The symbolic pipeline represents informed sets, call
// groups, and edge families as collections of subcubes, so certifying a
// Broadcast_k schedule costs time/memory polynomial in the collection
// size instead of 2^n.
//
// Three tools live here:
//
//   * Subcube / overlap / intersection / containment — O(1) word ops;
//   * SubcubeFrontier — a *multiset* of subcubes keyed (mask, prefix)
//     with per-entry multiplicity.  insert() coalesces sibling subcubes
//     (equal mask, prefixes differing in one non-free bit, equal
//     multiplicity) into one subcube of one higher dimension, which is
//     what keeps the informed set of a 2^63-vertex broadcast at a few
//     million entries.  Multiplicity makes the structure faithful to
//     the *multiset* of inserted vertices: a vertex covered twice can
//     coalesce into hidden corners but can never disappear, so the
//     endgame check (every entry multiplicity one, entries pairwise
//     disjoint, total 2^n) proves every vertex was informed exactly
//     once;
//   * canonical_reduce / canonical_reduce_tree — a recursive
//     divide-on-pinned-dimension sweep computing the order-independent
//     normal form of a subcube multiset (greedy sibling coalescing can
//     wedge in a local optimum; the recursion cannot).  The
//     knowledge-class partition reduces its unions with it.  It takes
//     an explicit node budget and fails (rather than stalls) on
//     adversarially fragmented inputs.
//
// Storage is structure-of-arrays throughout (see subcube_batch.hpp for
// the kernel layer and the rationale): the frontier's per-class tables
// keep separate contiguous key/value arrays so each coalesce step — the
// hottest loop of a symbolic certification — runs as one fused
// OR-reduction (batch::sibling_probe) that finds the inserted prefix
// and its merge partner in one pass over any class of up to 16 n
// slots; larger classes probe their n candidate siblings by hash.
// Mask classes live in a recycled dense pool instead of an
// unordered_map (class churn was ~11 % of the designed-63 profile),
// with a small most-recent cache in front of its hash, since
// consecutive receivers share their class and their cascade class.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "shc/bits/audit.hpp"
#include "shc/bits/checked.hpp"
#include "shc/bits/vertex.hpp"
#include "shc/sim/subcube_batch.hpp"

namespace shc {

/// A subcube of Q_n: free dims in `mask`, pinned values in `prefix`.
/// Invariant: (prefix & mask) == 0.
struct Subcube {
  Vertex prefix = 0;
  Vertex mask = 0;

  [[nodiscard]] int dim() const noexcept { return weight(mask); }
  /// Number of vertices.  Pre: dim() <= 63.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return std::uint64_t{1} << static_cast<unsigned>(dim());
  }
  [[nodiscard]] bool contains_vertex(Vertex v) const noexcept {
    return (v & ~mask) == prefix;
  }
  friend bool operator==(const Subcube&, const Subcube&) = default;
};

/// True iff the subcubes share a vertex: they agree on every dimension
/// pinned by both.
[[nodiscard]] inline bool subcubes_overlap(const Subcube& a, const Subcube& b) noexcept {
  const Vertex both_pinned = ~(a.mask | b.mask);
  return ((a.prefix ^ b.prefix) & both_pinned) == 0;
}

/// True iff every vertex of `inner` lies in `outer`.
[[nodiscard]] inline bool subcube_contains(const Subcube& outer,
                                           const Subcube& inner) noexcept {
  return (inner.mask & ~outer.mask) == 0 &&
         ((inner.prefix ^ outer.prefix) & ~outer.mask) == 0;
}

/// Intersection, or nullopt when disjoint.
[[nodiscard]] inline std::optional<Subcube> subcube_intersection(
    const Subcube& a, const Subcube& b) noexcept {
  if (!subcubes_overlap(a, b)) return std::nullopt;
  const Vertex mask = a.mask & b.mask;
  return Subcube{(a.prefix | b.prefix) & ~mask, mask};
}

/// Splits `outer` minus `inner` into disjoint subcubes (one per free
/// dimension of outer that inner pins).  Throws std::invalid_argument
/// unless subcube_contains(outer, inner): the pieces of a subtraction
/// from outside would overlap `inner`.  The symbolic congestion
/// overlay's refinement step.
[[nodiscard]] inline std::vector<Subcube> subcube_subtract(const Subcube& outer,
                                                           const Subcube& inner) {
  if (!subcube_contains(outer, inner)) {
    throw std::invalid_argument("subcube_subtract: inner is not inside outer");
  }
  std::vector<Subcube> pieces;
  Subcube cur = outer;
  Vertex split = outer.mask & ~inner.mask;
  while (split) {
    const Vertex b = split & (~split + 1);
    split &= ~b;
    // The half that disagrees with inner on b is entirely outside.
    pieces.push_back(Subcube{(cur.prefix & ~b) | (~inner.prefix & b), cur.mask & ~b});
    cur.prefix = (cur.prefix & ~b) | (inner.prefix & b);
    cur.mask &= ~b;
  }
  return pieces;
}

/// A subcube with a coverage multiplicity (how many times the multiset
/// covers each of its vertices).
struct WeightedSubcube {
  Vertex prefix = 0;
  Vertex mask = 0;
  std::uint64_t mult = 1;
  friend bool operator==(const WeightedSubcube&, const WeightedSubcube&) = default;
};

namespace detail {

/// `n` when 1 <= n <= kMaxCubeDim; otherwise throws
/// std::invalid_argument naming `what` (mask_low(n) is undefined
/// outside that range).
inline int require_cube_dim(const char* what, int n) {
  if (n < 1 || n > kMaxCubeDim) {
    throw std::invalid_argument(std::string(what) + ": cube dimension " +
                                std::to_string(n) + " outside [1, " +
                                std::to_string(kMaxCubeDim) + "]");
  }
  return n;
}

/// splitmix finalizer — the frontier tables hash prefixes with it.
inline std::uint64_t mix_u64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Open-addressing prefix -> value table for one mask class, stored SoA
/// (separate contiguous key and value arrays) so the coalesce probe
/// vectorizes — see batch::sibling_probe.  Prefixes are < 2^63
/// (n <= kMaxCubeDim), so the two top-bit-set sentinels can never
/// collide with a key.
class PrefixTable {
 public:
  static constexpr Vertex kEmpty = ~Vertex{0};
  static constexpr Vertex kTomb = ~Vertex{0} - 1;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Pointer to the value for `p`, or nullptr.
  [[nodiscard]] std::uint64_t* find(Vertex p) noexcept {
    if (keys_.empty()) return nullptr;
    std::size_t i = mix_u64(p) & mask_;
    for (;;) {
      const Vertex k = keys_[i];
      if (k == p) return &vals_[i];
      if (k == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  [[nodiscard]] const std::uint64_t* find(Vertex p) const noexcept {
    return const_cast<PrefixTable*>(this)->find(p);
  }

  /// First entry satisfying fn(prefix, value), or false.
  template <class Fn>
  [[nodiscard]] bool any_of(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] < kTomb && fn(keys_[i], vals_[i])) return true;
    }
    return false;
  }

  /// Inserts p -> v, or adds v to the existing value, in one probe;
  /// true when it created the entry.  The table grows only to make room
  /// for a new key.
  bool add(Vertex p, std::uint64_t v) {
    assert(p < kTomb);
    if (keys_.empty()) reserve_one();
    std::size_t i = mix_u64(p) & mask_;
    std::size_t tomb = SIZE_MAX;
    for (;;) {
      const Vertex k = keys_[i];
      if (k == p) {
        vals_[i] += v;
        return false;
      }
      if (k == kTomb && tomb == SIZE_MAX) tomb = i;
      if (k == kEmpty) break;
      i = (i + 1) & mask_;
    }
    if (needs_room()) {
      reserve_one();
      return add(p, v);  // p is still absent: the re-probe places it
    }
    const std::size_t at = tomb != SIZE_MAX ? tomb : i;
    keys_[at] = p;
    vals_[at] = v;
    ++size_;
    ++used_;
    if (tomb != SIZE_MAX) {
      --used_;  // reused a tombstone: occupancy unchanged
    }
    return true;
  }

  /// Removes p; returns false when absent.
  bool erase(Vertex p) noexcept {
    if (keys_.empty()) return false;
    std::size_t i = detail_probe_start(p);
    for (;;) {
      if (keys_[i] == p) {
        keys_[i] = kTomb;
        --size_;
        return true;
      }
      if (keys_[i] == kEmpty) return false;
      i = (i + 1) & mask_;
    }
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] < kTomb) fn(keys_[i], vals_[i]);
    }
  }

  /// One pass over the slot arrays (batch::sibling_probe): the slot
  /// holding `p`, and the lowest bit in which a live prefix whose value
  /// is `want` differs from `p` alone — the same preference as probing
  /// candidate dimensions in ascending order, so the coalesced
  /// structure is identical either way.  For the small mask classes the
  /// frontier is made of, this beats hashing p and its n candidate
  /// siblings one by one.
  [[nodiscard]] batch::SiblingProbe probe(Vertex p, std::uint64_t want) const noexcept {
    return batch::sibling_probe(keys_.data(), vals_.data(), keys_.size(), p, want);
  }

  /// Value in slot `i` (a probe() hit, which is hit - 1).
  [[nodiscard]] std::uint64_t& value_at(std::size_t i) noexcept { return vals_[i]; }

  /// Slot-array length (the cost of probe()).
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }

  /// Back to empty without releasing the slot arrays — recycling a
  /// table keeps its capacity and clears its tombstones, which is what
  /// lets the frontier's class pool reuse tables instead of
  /// destroy/reconstruct cycles.
  void reset() noexcept {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    size_ = 0;
    used_ = 0;
  }

 private:
  [[nodiscard]] std::size_t detail_probe_start(Vertex p) const noexcept {
    return mix_u64(p) & mask_;
  }

  /// True when one more key would take the table past 70 % occupancy.
  [[nodiscard]] bool needs_room() const noexcept {
    return (used_ + 1) * 10 > keys_.size() * 7;
  }

  void reserve_one() {
    if (keys_.empty()) {
      keys_.assign(16, kEmpty);
      vals_.assign(16, 0);
      mask_ = 15;
      return;
    }
    if (!needs_room()) return;
    std::vector<Vertex> old_keys = std::move(keys_);
    std::vector<std::uint64_t> old_vals = std::move(vals_);
    const std::size_t cap = std::max<std::size_t>(
        16, old_keys.size() * (size_ * 10 >= old_keys.size() * 3 ? 2 : 1));
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, 0);
    mask_ = cap - 1;
    used_ = 0;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] < kTomb) add(old_keys[i], old_vals[i]);
    }
  }

  std::vector<Vertex> keys_;
  std::vector<std::uint64_t> vals_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live + tombstones
};

/// Open-addressing mask -> PrefixTable map backed by a dense recycled
/// table pool.  The frontier's coalesce cascade erases and recreates
/// mask classes millions of times per certification; with an
/// unordered_map each cycle was a node deallocation plus a fresh table
/// construction (~11 % of the designed-63 profile).  Here an erased
/// class just reset()s its table and parks the index on a free list, so
/// steady-state operation performs no allocation at all.  Masks are
/// < 2^63 like prefixes, so the same sentinels work.
///
/// A 4-entry cache of the most recently used mask -> pool index pairs
/// sits in front of the hash: consecutive receivers of a round share
/// their mask class and their cascade class (mask | b), so most lookups
/// never hash.  erase() drops the erased mask's entry and clear() all
/// of them, so a cached index always names its mask's live table even
/// after the pool slot is recycled.  Only non-const lookups read or
/// fill the cache; const ones hash, so concurrent readers stay
/// read-only.
class MaskClassMap {
 public:
  static constexpr Vertex kEmpty = ~Vertex{0};
  static constexpr Vertex kTomb = ~Vertex{0} - 1;

  [[nodiscard]] std::size_t class_count() const noexcept { return size_; }

  /// Table for mask `m`, creating (or recycling) an empty one if absent.
  /// The map grows only to make room for a new class.
  [[nodiscard]] PrefixTable& get_or_create(Vertex m) {
    assert(m < kTomb);
    if (const std::uint32_t idx = cached(m); idx != kNoIndex) return tables_[idx];
    if (keys_.empty()) reserve_one();
    std::size_t i = mix_u64(m) & mask_;
    std::size_t tomb = SIZE_MAX;
    for (;;) {
      const Vertex k = keys_[i];
      if (k == m) {
        remember(m, vals_[i]);
        return tables_[vals_[i]];
      }
      if (k == kTomb && tomb == SIZE_MAX) tomb = i;
      if (k == kEmpty) break;
      i = (i + 1) & mask_;
    }
    if (needs_room()) {
      reserve_one();
      return get_or_create(m);  // m is still absent: the re-probe places it
    }
    const std::size_t at = tomb != SIZE_MAX ? tomb : i;
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();  // recycled: already reset()
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(tables_.size());
      tables_.emplace_back();
      table_mask_.push_back(kEmpty);
    }
    keys_[at] = m;
    vals_[at] = idx;
    table_mask_[idx] = m;
    ++size_;
    ++used_;
    if (tomb != SIZE_MAX) --used_;
    remember(m, idx);
    return tables_[idx];
  }

  [[nodiscard]] PrefixTable* find_class(Vertex m) noexcept {
    std::uint32_t idx = cached(m);
    if (idx == kNoIndex) {
      idx = lookup(m);
      if (idx == kNoIndex) return nullptr;
      remember(m, idx);
    }
    return &tables_[idx];
  }
  [[nodiscard]] const PrefixTable* find_class(Vertex m) const noexcept {
    const std::uint32_t idx = lookup(m);
    return idx == kNoIndex ? nullptr : &tables_[idx];
  }

  /// Drops mask class `m`, recycling its table (capacity kept).
  void erase(Vertex m) noexcept {
    if (keys_.empty()) return;
    for (Vertex& w : cache_mask_) {
      if (w == m) w = kEmpty;
    }
    std::size_t i = mix_u64(m) & mask_;
    for (;;) {
      const Vertex k = keys_[i];
      if (k == m) {
        const std::uint32_t idx = vals_[i];
        keys_[i] = kTomb;
        tables_[idx].reset();
        table_mask_[idx] = kEmpty;
        free_.push_back(idx);
        --size_;
        return;
      }
      if (k == kEmpty) return;
      i = (i + 1) & mask_;
    }
  }

  /// fn(mask, const PrefixTable&) per live class, in dense pool order
  /// (deterministic for a given operation sequence).
  template <class Fn>
  void for_each_class(Fn&& fn) const {
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      if (table_mask_[i] != kEmpty) fn(table_mask_[i], tables_[i]);
    }
  }

  /// Back to empty; every table is recycled, all capacity kept.
  void clear() noexcept {
    cache_mask_.fill(kEmpty);
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    size_ = 0;
    used_ = 0;
    free_.clear();
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      tables_[i].reset();
      table_mask_[i] = kEmpty;
      free_.push_back(static_cast<std::uint32_t>(i));
    }
  }

 private:
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};
  static constexpr std::size_t kCacheWays = 4;

  /// Pool index of `m` from the cache, or kNoIndex.
  [[nodiscard]] std::uint32_t cached(Vertex m) const noexcept {
    for (std::size_t w = 0; w < kCacheWays; ++w) {
      if (cache_mask_[w] == m) return cache_idx_[w];
    }
    return kNoIndex;
  }

  /// Caches m -> idx over the oldest entry.
  void remember(Vertex m, std::uint32_t idx) noexcept {
    cache_mask_[cache_next_] = m;
    cache_idx_[cache_next_] = idx;
    cache_next_ = (cache_next_ + 1) % kCacheWays;
  }

  /// Pool index of `m` from the hash, or kNoIndex.
  [[nodiscard]] std::uint32_t lookup(Vertex m) const noexcept {
    if (keys_.empty()) return kNoIndex;
    std::size_t i = mix_u64(m) & mask_;
    for (;;) {
      const Vertex k = keys_[i];
      if (k == m) return vals_[i];
      if (k == kEmpty) return kNoIndex;
      i = (i + 1) & mask_;
    }
  }

  /// True when one more key would take the map past 70 % occupancy.
  [[nodiscard]] bool needs_room() const noexcept {
    return (used_ + 1) * 10 > keys_.size() * 7;
  }

  void reserve_one() {
    if (keys_.empty()) {
      keys_.assign(16, kEmpty);
      vals_.assign(16, 0);
      mask_ = 15;
      return;
    }
    if (!needs_room()) return;
    std::vector<Vertex> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_vals = std::move(vals_);
    const std::size_t cap = std::max<std::size_t>(
        16, old_keys.size() * (size_ * 10 >= old_keys.size() * 3 ? 2 : 1));
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, 0);
    mask_ = cap - 1;
    used_ = 0;
    // Rehash the key -> index pairs; the dense pool itself never moves.
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] >= kTomb) continue;
      std::size_t j = mix_u64(old_keys[i]) & mask_;
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
      ++used_;
    }
  }

  std::vector<Vertex> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // live classes
  std::size_t used_ = 0;  // live + tombstones
  std::vector<PrefixTable> tables_;
  std::vector<Vertex> table_mask_;  // kEmpty when pool slot is free
  std::vector<std::uint32_t> free_;
  std::array<Vertex, kCacheWays> cache_mask_ = {kEmpty, kEmpty, kEmpty, kEmpty};
  std::array<std::uint32_t, kCacheWays> cache_idx_ = {};
  std::size_t cache_next_ = 0;
};

}  // namespace detail

/// Multiset of subcubes with per-entry multiplicity, keyed (mask,
/// prefix).  Two insertion modes:
///
///   * insert() — coalescing: sibling entries (same mask and
///     multiplicity, prefixes one non-free bit apart) merge into a
///     subcube of one higher dimension, cascading.  The producer's and
///     validator's informed-set representation.
///   * add_raw() / take() — plain keyed accumulation / checked
///     deduction, no geometric merging: assign() rebuilds a snapshot
///     with add_raw(), and the congestion load map take()s an entry out
///     before it inserts the entry's refined pieces.
///
/// total_count() tracks the multiset cardinality (sum of mult * 2^dim)
/// with overflow-checked arithmetic — at n = 63 the count reaches 2^63
/// and one unchecked multiply away from wrapping.
class SubcubeFrontier {
 public:
  /// Throws std::invalid_argument unless 1 <= n <= kMaxCubeDim.
  explicit SubcubeFrontier(int n)
      : n_(detail::require_cube_dim("SubcubeFrontier", n)) {}

  /// Coalescing multiset insert of `mult` copies of (p, M).
  void insert(Vertex p, Vertex M, std::uint64_t mult = 1) {
    assert((p & M) == 0);
    SHC_AUDIT_CHECK((p & M) == 0 && ((p | M) & ~mask_low(n_)) == 0,
                    "SubcubeFrontier entries must be well-formed in-range "
                    "subcubes (mask-class disjointness depends on it)");
    bump_count(M, mult);
    // Classes up to this many slots are probed by one fused scan; both
    // paths pick the same sibling (the lowest differing bit).
    const std::size_t scan_slots = static_cast<std::size_t>(16 * n_);
    for (;;) {
      detail::PrefixTable& t = classes_.get_or_create(M);
      // A merge partner lives in the same mask class at Hamming distance
      // one.  Small classes (the common case: the frontier's distinct
      // masks outnumber entries-per-class) are scanned in one pass that
      // also finds p itself; large ones are probed per candidate
      // dimension.  Duplicate coverage is recorded as multiplicity — the
      // validator's endgame occupancy check turns it into a hard
      // validation failure.
      Vertex b = 0;
      if (t.capacity() <= scan_slots) {
        const batch::SiblingProbe probe = t.probe(p, mult);
        if (probe.hit != 0) {
          t.value_at(probe.hit - 1) += mult;
          return;
        }
        b = probe.bit;
      } else {
        if (std::uint64_t* v = t.find(p)) {
          *v += mult;
          return;
        }
        for (int d = 0; d < n_; ++d) {
          const Vertex bit = Vertex{1} << d;
          if (M & bit) continue;
          if (const std::uint64_t* sv = t.find(p ^ bit); sv && *sv == mult) {
            b = bit;
            break;
          }
        }
      }
      if (b == 0) {
#if SHC_AUDIT_ENABLED
        // Coalesce postcondition: the greedy loop settles only when no
        // equal-multiplicity sibling remains in the destination class —
        // re-verify with direct probes (per-mask-class disjointness is
        // keyed uniqueness plus the (p & M) == 0 checks below).
        for (int d = 0; d < n_; ++d) {
          const Vertex bit = Vertex{1} << d;
          if (M & bit) continue;
          const std::uint64_t* sv = t.find(p ^ bit);
          SHC_AUDIT_CHECK(!(sv && *sv == mult),
                          "SubcubeFrontier: insert() must not leave an "
                          "equal-multiplicity sibling uncoalesced");
        }
#endif
        t.add(p, mult);
        ++entries_;
        return;
      }
      t.erase(p ^ b);
      if (t.empty()) classes_.erase(M);
      p &= ~b;
      M |= b;
      --entries_;  // consumed the sibling; the loop re-inserts the merged cube
    }
  }

  /// Non-coalescing accumulate: value `v` onto key (p, M).
  void add_raw(Vertex p, Vertex M, std::uint64_t v) {
    assert((p & M) == 0);
    SHC_AUDIT_CHECK((p & M) == 0 && ((p | M) & ~mask_low(n_)) == 0,
                    "SubcubeFrontier raw keys must be well-formed in-range "
                    "subcubes");
    if (classes_.get_or_create(M).add(p, v)) ++entries_;
  }

  /// Deducts `v` from key (p, M); erases at zero.  Returns false when
  /// the key is absent or holds less than `v`.
  [[nodiscard]] bool take(Vertex p, Vertex M, std::uint64_t v) {
    detail::PrefixTable* t = classes_.find_class(M);
    if (!t) return false;
    std::uint64_t* cur = t->find(p);
    if (!cur || *cur < v) return false;
    *cur -= v;
    if (*cur == 0) {
      t->erase(p);
      --entries_;
      if (t->empty()) classes_.erase(M);
    }
    return true;
  }

  [[nodiscard]] std::uint64_t* find(Vertex p, Vertex M) {
    detail::PrefixTable* t = classes_.find_class(M);
    return t ? t->find(p) : nullptr;
  }

  [[nodiscard]] bool empty() const noexcept { return entries_ == 0; }
  [[nodiscard]] std::uint64_t num_subcubes() const noexcept { return entries_; }
  [[nodiscard]] int n() const noexcept { return n_; }

  /// Multiset cardinality; valid only while count_ok().
  [[nodiscard]] std::uint64_t total_count() const noexcept { return total_count_; }
  [[nodiscard]] bool count_ok() const noexcept { return !count_overflow_; }

  /// fn(prefix, mask, mult) over every entry (unspecified order).
  template <class Fn>
  void for_each(Fn&& fn) const {
    classes_.for_each_class([&](Vertex mask, const detail::PrefixTable& table) {
      table.for_each([&](Vertex p, std::uint64_t mult) { fn(p, mask, mult); });
    });
  }

  /// fn(mask, const detail::PrefixTable&) per mask class — consumers
  /// that probe by projected prefix (the congestion overlay) iterate
  /// classes directly.
  template <class Fn>
  void for_each_class(Fn&& fn) const {
    classes_.for_each_class(std::forward<Fn>(fn));
  }

  [[nodiscard]] std::vector<WeightedSubcube> to_entries() const {
    std::vector<WeightedSubcube> out;
    out.reserve(static_cast<std::size_t>(entries_));
    for_each([&](Vertex p, Vertex m, std::uint64_t mult) {
      out.push_back({p, m, mult});
    });
    return out;
  }

  /// Rebuilds the multiset from a to_entries() snapshot: the same keys
  /// and multiplicities, placed as they are (no coalescing), so the
  /// entry count and total come back exactly.  Only the iteration
  /// order may differ from the frontier the snapshot was taken of.
  void assign(std::span<const WeightedSubcube> entries) {
    clear();
    for (const WeightedSubcube& e : entries) {
      bump_count(e.mask, e.mult);
      add_raw(e.prefix, e.mask, e.mult);
    }
  }

  void clear() {
#if SHC_AUDIT_ENABLED
    // Entry accounting: entries_ must equal the live keys across mask
    // classes (checked here, where the O(entries) sweep rides on a walk
    // the caller already pays for at round boundaries).
    std::uint64_t live = 0;
    classes_.for_each_class([&](Vertex mask, const detail::PrefixTable& table) {
      static_cast<void>(mask);
      live += table.size();
    });
    SHC_AUDIT_CHECK(live == entries_,
                    "SubcubeFrontier entry count must match its mask-class "
                    "tables");
#endif
    classes_.clear();
    entries_ = 0;
    total_count_ = 0;
    count_overflow_ = false;
  }

 private:
  void bump_count(Vertex M, std::uint64_t mult) {
    std::uint64_t cube = 0;
    if (!checked_shift_u64(static_cast<unsigned>(weight(M)), cube) ||
        !checked_mul_u64(cube, mult, cube) ||
        !checked_acc_u64(total_count_, cube)) {
      count_overflow_ = true;
    }
  }

  int n_;
  detail::MaskClassMap classes_;
  std::uint64_t entries_ = 0;
  std::uint64_t total_count_ = 0;
  bool count_overflow_ = false;
};

/// Order-independent normal form of a subcube multiset: recursively
/// branches on the highest dimension any entry pins, reduces both
/// halves, and lifts entries that appear identically in both back to a
/// free dimension.  A multiset covering every vertex of Q_n exactly once
/// reduces to the single entry {0, mask_low(n), 1} regardless of how
/// greedy coalescing fragmented it; duplicate coverage surfaces as
/// mult > 1 entries.  Returns nullopt when the recursion exceeds
/// `budget` processed entries (pathologically interleaved inputs).
/// Throws std::invalid_argument unless 1 <= n <= kMaxCubeDim.
[[nodiscard]] std::optional<std::vector<WeightedSubcube>> canonical_reduce(
    std::vector<WeightedSubcube> entries, int n, std::uint64_t budget = 1u << 26);

class WorkerPool;

/// canonical_reduce with its serial tail removed: the reduce recursion
/// branches on one pinned dimension per level, so its top few levels
/// partition the input into independent subtrees.  Those levels are
/// descended serially (same branch choice, same budget accounting as
/// the serial form), the frontier subtrees are farmed over `pool`, and
/// the lifts join bottom-up afterwards.  The recursion tree is a
/// function of the input *multiset* alone, so the output — and the
/// refusal predicate "total processed entries > budget" — is
/// bit-for-bit identical to the serial form at every thread count.
/// Inputs at or below the chunk size, or a null / single-worker pool,
/// fall through to plain canonical_reduce (same output, same refusals,
/// zero overhead).  When `tree_tasks` is non-null, the number of
/// subtrees farmed over the pool is accumulated into it (saturating;
/// the fall-through paths add nothing) — a thread-count-dependent
/// effort counter, never part of any verdict.  Throws
/// std::invalid_argument unless 1 <= n <= kMaxCubeDim.
[[nodiscard]] std::optional<std::vector<WeightedSubcube>> canonical_reduce_tree(
    std::vector<WeightedSubcube> entries, int n, std::uint64_t budget,
    WorkerPool* pool, std::uint64_t* tree_tasks = nullptr);

}  // namespace shc
