// Batched SoA subcube kernels — the vectorizable bottom layer of the
// symbolic engine.
//
// Every hot loop of the symbolic pipeline is 64-bit mask algebra over
// collections of subcubes: the frontier's sibling-coalesce scan, the
// dyadic divide-on-pinned-dimension sweeps (canonical_reduce, the
// occupancy ledger's bucket walks, knowledge-class subtraction and
// refinement), and the set-union subtraction.  Stored as
// array-of-structs (std::vector<WeightedSubcube>), those loops carry a
// data-dependent branch per element and the compiler leaves them
// scalar.  This header provides the same operations as *batch kernels*
// over structure-of-arrays data — separate contiguous prefix[] /
// mask[] / mult[] arrays — written as branch-light store-and-bump or
// OR-reduction loops so the compiler auto-vectorizes them (no
// intrinsics; see BM_SubcubeKernels for the measured effect).  One
// kernel, sibling_probe_loop, is also compiled per ISA, inlined into the
// frontier's coalesce step (SubcubeFrontier::insert, subcube.cpp): the
// library targets baseline x86-64, where its 64-bit compares would
// otherwise stay scalar.
//
// Layering: this is the bottom of the sim module — it includes only
// bits/ headers (enforced by tools/shc_lint.py) so the kernels stay
// reusable from any layer above.
//
// Each kernel has one formulation; subcube_batch_test pins it to
// explicit bitmaps and brute-force references (exhaustively on small
// cubes, randomized at n = 16).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "shc/bits/vertex.hpp"

namespace shc {

/// Structure-of-arrays view of a plain subcube family: parallel
/// prefix[] / mask[] arrays.  Invariant per entry: (prefix & mask) == 0.
struct SubcubeSoA {
  std::vector<Vertex> prefix;
  std::vector<Vertex> mask;

  [[nodiscard]] std::size_t size() const noexcept { return prefix.size(); }
  [[nodiscard]] bool empty() const noexcept { return prefix.empty(); }
  void clear() noexcept {
    prefix.clear();
    mask.clear();
  }
  void reserve(std::size_t n) {
    prefix.reserve(n);
    mask.reserve(n);
  }
  void push_back(Vertex p, Vertex m) {
    prefix.push_back(p);
    mask.push_back(m);
  }
};

/// Structure-of-arrays batch of *weighted* subcubes: parallel prefix[] /
/// mask[] / mult[] arrays — the SoA twin of
/// std::vector<WeightedSubcube>.  Invariant per entry:
/// (prefix & mask) == 0.
struct SubcubeBatch {
  std::vector<Vertex> prefix;
  std::vector<Vertex> mask;
  std::vector<std::uint64_t> mult;

  [[nodiscard]] std::size_t size() const noexcept { return prefix.size(); }
  [[nodiscard]] bool empty() const noexcept { return prefix.empty(); }
  void clear() noexcept {
    prefix.clear();
    mask.clear();
    mult.clear();
  }
  void reserve(std::size_t n) {
    prefix.reserve(n);
    mask.reserve(n);
    mult.reserve(n);
  }
  void push_back(Vertex p, Vertex m, std::uint64_t w) {
    prefix.push_back(p);
    mask.push_back(m);
    mult.push_back(w);
  }
};

namespace batch {

/// What sibling_probe_loop finds in one slot array: `hit` is 1 + the slot
/// holding `p` (0 when p is absent), `bit` the lowest bit in which an
/// equal-valued live key differs from `p` alone (0 when none).
struct SiblingProbe {
  std::size_t hit = 0;
  Vertex bit = 0;
};

/// The coalesce step's probe over one open-addressing slot array in SoA
/// form, in one pass: the slot holding `p`, and the live key whose
/// value equals `want` at Hamming distance exactly 1 from `p`,
/// preferring the *lowest* differing bit.  Keys are distinct live
/// prefixes (< 2^63, since n <= kMaxCubeDim = 63) or the table's
/// sentinels, which have bit 63 set.  The loop is two OR-reductions
/// with no data-dependent control flow:
///   * exact slot — live keys are distinct, so at most one slot has
///     keys[i] ^ p == 0 and OR-ing i + 1 over such slots recovers it;
///   * sibling — OR-ing every single-bit difference of an equal-valued
///     slot loses nothing the lowest-bit choice needs;
///   * sentinels — a sentinel XOR a prefix keeps bit 63 set and no real
///     sibling differs in bit 63, so clearing it drops them all.
/// PrefixTable::probe inlines it, so it is compiled per ISA inside
/// SubcubeFrontier::insert's clones; the tests compare the clones with
/// insert_portable, which runs it at the baseline ISA.
[[nodiscard]] inline SiblingProbe sibling_probe_loop(const Vertex* keys,
                                                     const std::uint64_t* vals,
                                                     std::size_t count, Vertex p,
                                                     std::uint64_t want) noexcept {
  std::size_t hit = 0;
  Vertex bits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex d = keys[i] ^ p;
    hit |= d == 0 ? i + 1 : 0;
    bits |= (vals[i] == want && (d & (d - 1)) == 0) ? d : 0;
  }
  bits &= ~(Vertex{1} << 63);
  return {hit, bits & (~bits + 1)};
}

/// The dyadic divide step shared by every divide-on-pinned-dimension
/// sweep, over an *index* family: ids whose subcube frees `bit`
/// (masks[id] & bit) go to both halves, ids pinning it high to `hi`,
/// the rest to `lo`.  Stable — input order is preserved in both outputs,
/// which the walks' determinism (first-hit witnesses, DFS budget order)
/// depends on.  lo/hi are overwritten, not appended to.
inline void partition_ids(const std::uint32_t* ids, std::size_t count,
                          const Vertex* prefixes, const Vertex* masks,
                          Vertex bit, std::vector<std::uint32_t>& lo,
                          std::vector<std::uint32_t>& hi) {
  lo.resize(count);
  hi.resize(count);
  std::size_t nlo = 0, nhi = 0;
  // Branch-light: unconditional store, conditional bump.
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = ids[i];
    const bool free_dim = (masks[id] & bit) != 0;
    const bool high = (prefixes[id] & bit) != 0;
    lo[nlo] = id;
    nlo += static_cast<std::size_t>(free_dim || !high);
    hi[nhi] = id;
    nhi += static_cast<std::size_t>(free_dim || high);
  }
  lo.resize(nlo);
  hi.resize(nhi);
}

/// Value-based dyadic divide of a plain subcube family on `bit`:
/// entries freeing the bit split into both halves (mask cleared; the hi
/// copy pins the bit high), pinned entries go to their half unchanged.
/// Because (prefix & mask) == 0, both halves take the uniform forms
/// lo = (p, m & ~bit) and hi = (p | bit, m & ~bit) — no per-entry
/// branching on which case applied.  Stable; lo/hi are overwritten.
inline void partition_subcubes(const Vertex* prefixes, const Vertex* masks,
                               std::size_t count, Vertex bit, SubcubeSoA& lo,
                               SubcubeSoA& hi) {
  lo.prefix.resize(count);
  lo.mask.resize(count);
  hi.prefix.resize(count);
  hi.mask.resize(count);
  std::size_t nlo = 0, nhi = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex p = prefixes[i];
    const Vertex m = masks[i];
    const bool free_dim = (m & bit) != 0;
    const bool high = (p & bit) != 0;
    lo.prefix[nlo] = p;
    lo.mask[nlo] = m & ~bit;
    nlo += static_cast<std::size_t>(free_dim || !high);
    hi.prefix[nhi] = p | bit;
    hi.mask[nhi] = m & ~bit;
    nhi += static_cast<std::size_t>(free_dim || high);
  }
  lo.prefix.resize(nlo);
  lo.mask.resize(nlo);
  hi.prefix.resize(nhi);
  hi.mask.resize(nhi);
}

/// partition_subcubes for weighted batches: the multiplicity rides
/// along unchanged (a split duplicates it into both halves).
inline void partition_weighted(const SubcubeBatch& in, Vertex bit,
                               SubcubeBatch& lo, SubcubeBatch& hi) {
  const std::size_t count = in.size();
  lo.prefix.resize(count);
  lo.mask.resize(count);
  lo.mult.resize(count);
  hi.prefix.resize(count);
  hi.mask.resize(count);
  hi.mult.resize(count);
  std::size_t nlo = 0, nhi = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex p = in.prefix[i];
    const Vertex m = in.mask[i];
    const std::uint64_t w = in.mult[i];
    const bool free_dim = (m & bit) != 0;
    const bool high = (p & bit) != 0;
    lo.prefix[nlo] = p;
    lo.mask[nlo] = m & ~bit;
    lo.mult[nlo] = w;
    nlo += static_cast<std::size_t>(free_dim || !high);
    hi.prefix[nhi] = p | bit;
    hi.mask[nhi] = m & ~bit;
    hi.mult[nhi] = w;
    nhi += static_cast<std::size_t>(free_dim || high);
  }
  lo.prefix.resize(nlo);
  lo.mask.resize(nlo);
  lo.mult.resize(nlo);
  hi.prefix.resize(nhi);
  hi.mask.resize(nhi);
  hi.mult.resize(nhi);
}

/// OR/AND reductions a dyadic walk needs per node, in one pass over an
/// index family: the free-dimension union, the mask intersection (its
/// complement against `remaining` is the pinned-anywhere set), and the
/// prefix OR/AND (their XOR is the pinned-values-differ set).
struct MaskScan {
  Vertex mask_or = 0;
  Vertex mask_and = ~Vertex{0};
  Vertex pref_or = 0;
  Vertex pref_and = ~Vertex{0};
};

[[nodiscard]] inline MaskScan scan_ids(const std::uint32_t* ids,
                                       std::size_t count,
                                       const Vertex* prefixes,
                                       const Vertex* masks) noexcept {
  MaskScan s;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = ids[i];
    s.mask_or |= masks[id];
    s.mask_and &= masks[id];
    s.pref_or |= prefixes[id];
    s.pref_and &= prefixes[id];
  }
  return s;
}

/// scan_ids over a value family (SoA arrays directly).
[[nodiscard]] inline MaskScan scan_all(const Vertex* prefixes,
                                       const Vertex* masks,
                                       std::size_t count) noexcept {
  MaskScan s;
  for (std::size_t i = 0; i < count; ++i) {
    s.mask_or |= masks[i];
    s.mask_and &= masks[i];
    s.pref_or |= prefixes[i];
    s.pref_and &= prefixes[i];
  }
  return s;
}

/// Recycling pool of scratch buffers (index vectors, SubcubeSoA and
/// SubcubeBatch halves, output vectors) for the divide sweeps: a
/// divide-on-pinned-dimension recursion visits millions of nodes but is
/// at most 64 deep, so a handful of recycled buffers replaces two heap
/// allocations per node (the scratch-churn fix).  acquire() returns an
/// empty buffer that keeps its capacity.  Not thread-safe; use one pool
/// per walk (or thread).
template <class T>
class ScratchPool {
 public:
  [[nodiscard]] T acquire() {
    if (pool_.empty()) return {};
    T v = std::move(pool_.back());
    pool_.pop_back();
    v.clear();
    return v;
  }
  void release(T&& v) { pool_.push_back(std::move(v)); }

 private:
  std::vector<T> pool_;
};

/// Batched subtraction: `region` minus a *pairwise-disjoint* subcube
/// family, appending the uncovered pieces (multiplicity-one subcubes) to
/// `out` via push(prefix, mask).  One divide-on-pinned-dimension sweep
/// using the partition kernels; budget semantics are node-exact with the
/// scalar recursion it replaces (each node costs family_size + 1;
/// returns false on exhaustion, with `budget` reflecting the work done).
/// The sweep object owns the recycled scratch halves — reuse one
/// instance across calls to amortize them.
class SubtractSweep {
 public:
  /// Recycled family buffer for the caller to fill before run() — using
  /// it keeps the whole subtract allocation-free in steady state.
  [[nodiscard]] SubcubeSoA acquire() { return pool_.acquire(); }

  template <class Push>
  [[nodiscard]] bool run(Vertex region_prefix, Vertex region_mask,
                         SubcubeSoA family, std::uint64_t& budget, Push&& push) {
    const bool ok = recurse(region_prefix, region_mask, family, budget, push);
    pool_.release(std::move(family));
    return ok;
  }

 private:
  template <class Push>
  bool recurse(Vertex rp, Vertex rm, SubcubeSoA& family, std::uint64_t& budget,
               Push& push) {
    const std::size_t count = family.size();
    if (budget < count + 1) return false;
    budget -= count + 1;
    if (count == 0) {
      push(rp, rm);
      return true;
    }
    // Disjointness means at most one member can cover the whole region;
    // scan for it (and the pinned-dimension union) in one pass.
    bool covered = false;
    Vertex mask_and = ~Vertex{0};
    for (std::size_t i = 0; i < count; ++i) {
      const Vertex fp = family.prefix[i];
      const Vertex fm = family.mask[i];
      covered |= ((rm & ~fm) | ((rp ^ fp) & ~fm)) == 0;
      mask_and &= fm;
    }
    if (covered) return true;  // fully covered
    const Vertex pinned_any = rm & ~mask_and;
    if (pinned_any == 0) {
      // Every member spans all remaining free dims yet none contains
      // the region: they disagree on a pinned dim — no overlap left.
      push(rp, rm);
      return true;
    }
    const int d = 63 - __builtin_clzll(pinned_any);
    const Vertex b = Vertex{1} << d;
    SubcubeSoA lo = pool_.acquire();
    SubcubeSoA hi = pool_.acquire();
    partition_subcubes(family.prefix.data(), family.mask.data(), count, b, lo,
                       hi);
    family.clear();
    const bool ok = recurse(rp, rm & ~b, lo, budget, push) &&
                    recurse(rp | b, rm & ~b, hi, budget, push);
    pool_.release(std::move(lo));
    pool_.release(std::move(hi));
    return ok;
  }

  ScratchPool<SubcubeSoA> pool_;
};

}  // namespace batch
}  // namespace shc
