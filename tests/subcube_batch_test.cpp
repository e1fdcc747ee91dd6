// Parity suite for the batched SoA subcube kernels (subcube_batch.hpp)
// and the tree-shaped canonical reduction (canonical_reduce_tree).
//
// Contract under test: every batch kernel is bit-for-bit equivalent to
// the scalar subcube algebra it replaces — exhaustively over all Q_4
// subcube pairs, and against explicit vertex bitmaps on thousands of
// random pairs/families at n = 16 — and canonical_reduce_tree produces
// output identical to plain canonical_reduce at every thread count
// (pool = nullptr, 1 worker, 4 workers), because the reduction's output
// is a function of the input multiset alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "shc/sim/subcube.hpp"
#include "shc/sim/subcube_batch.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

/// Reference expansion of a subcube into an explicit vertex bitmap.
std::bitset<1 << 16> expand(Vertex prefix, Vertex mask) {
  std::bitset<1 << 16> bits;
  Vertex a = 0;
  for (;;) {
    bits.set(static_cast<std::size_t>(prefix | a));
    if (a == mask) break;
    a = (a - mask) & mask;
  }
  return bits;
}

Subcube random_subcube(std::mt19937_64& rng, int n) {
  const Vertex mask = rng() & mask_low(n);
  const Vertex prefix = rng() & mask_low(n) & ~mask;
  return {prefix, mask};
}

/// All 3^4 = 81 subcubes of Q_4 in (mask, prefix) scan order.
std::vector<Subcube> all_q4_subcubes() {
  std::vector<Subcube> out;
  for (Vertex m = 0; m < 16; ++m) {
    for (Vertex p = 0; p < 16; ++p) {
      if ((p & m) == 0) out.push_back({p, m});
    }
  }
  return out;
}

// ---- sibling_probe -----------------------------------------------------

constexpr Vertex kEmptySlot = ~Vertex{0};
constexpr Vertex kTombSlot = ~Vertex{0} - 1;

/// Brute-force reference: the live slot holding p, and the lowest
/// single-bit difference among live equal-valued slots.
batch::SiblingProbe probe_reference(const std::vector<Vertex>& keys,
                                    const std::vector<std::uint64_t>& vals,
                                    Vertex p, std::uint64_t want) {
  batch::SiblingProbe r;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] >= kTombSlot) continue;
    const Vertex d = keys[i] ^ p;
    if (d == 0) r.hit = i + 1;
    if (vals[i] == want && weight(d) == 1 && (r.bit == 0 || d < r.bit)) {
      r.bit = d;
    }
  }
  return r;
}

TEST(BatchKernels, SiblingProbeMatchesItsLoopAndBruteForceOnRandomSlotArrays) {
  // Synthetic open-addressing slot arrays the way PrefixTable stores
  // them mid-life: distinct live keys near p (so siblings exist),
  // kEmpty / kTomb slots holding stale values (want among them), and p
  // itself present under another value in some trials.  The dispatched
  // kernel runs whichever clone the host picks; sibling_probe_loop,
  // inlined here, is the same loop at the default ISA — on an AVX2 host
  // this comparison is the only coverage the baseline clone gets.
  std::mt19937_64 rng(0x5b1bull);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t cap = std::size_t{16} << (trial % 7);  // 16 .. 1024
    const int n = std::array<int, 4>{8, 16, 40, 63}[static_cast<std::size_t>(trial / 7 % 4)];
    const Vertex p = rng() & mask_low(n);
    const std::uint64_t want = 1 + rng() % 2;
    std::vector<Vertex> keys(cap);
    std::vector<std::uint64_t> vals(cap);
    std::set<Vertex> used;
    for (std::size_t i = 0; i < cap; ++i) {
      vals[i] = 1 + rng() % 3;
      Vertex k = 0;
      switch (rng() % 8) {
        case 0: keys[i] = kEmptySlot; continue;
        case 1: keys[i] = kTombSlot; continue;
        case 2: k = p ^ (Vertex{1} << (rng() % static_cast<unsigned>(n))); break;
        case 3:
          k = p ^ (Vertex{1} << (rng() % static_cast<unsigned>(n))) ^
              (Vertex{1} << (rng() % static_cast<unsigned>(n)));
          break;
        case 4:
          k = p;
          vals[i] = want + 1;  // present, under a value that must not merge
          break;
        default: k = rng() & mask_low(n); break;
      }
      if (!used.insert(k).second) {
        keys[i] = kEmptySlot;
        continue;
      }
      keys[i] = k;
    }
    const batch::SiblingProbe expect = probe_reference(keys, vals, p, want);
    const batch::SiblingProbe loop =
        batch::sibling_probe_loop(keys.data(), vals.data(), cap, p, want);
    const batch::SiblingProbe got =
        batch::sibling_probe(keys.data(), vals.data(), cap, p, want);
    ASSERT_EQ(loop.hit, expect.hit) << "trial " << trial;
    ASSERT_EQ(loop.bit, expect.bit) << "trial " << trial;
    ASSERT_EQ(got.hit, expect.hit) << "trial " << trial;
    ASSERT_EQ(got.bit, expect.bit) << "trial " << trial;
  }
}

TEST(BatchKernels, SiblingProbeDropsSentinelsThatDifferFromPInOneBit) {
  // At n = 63, p = 2^63 - 1 makes kEmpty ^ p the single bit 63, and
  // p = 2^63 - 2 does the same for kTomb; with the sentinel slots'
  // stale values equal to `want`, only the bit-63 clear keeps them out.
  for (const Vertex p : {mask_low(63), mask_low(63) - 1}) {
    for (const std::size_t cap : {std::size_t{16}, std::size_t{64}, std::size_t{1024}}) {
      std::vector<Vertex> keys(cap, kEmptySlot);
      std::vector<std::uint64_t> vals(cap, 1);
      for (std::size_t i = 0; i < cap; i += 3) keys[i] = kTombSlot;
      batch::SiblingProbe got = batch::sibling_probe(keys.data(), vals.data(), cap, p, 1);
      EXPECT_EQ(got.hit, 0u);
      EXPECT_EQ(got.bit, 0u);
      // A real sibling along bit 62 is still found, and p itself.
      keys[cap - 1] = p ^ (Vertex{1} << 62);
      keys[cap / 2 + 1] = p;
      got = batch::sibling_probe(keys.data(), vals.data(), cap, p, 1);
      EXPECT_EQ(got.hit, cap / 2 + 2);
      EXPECT_EQ(got.bit, Vertex{1} << 62);
      const batch::SiblingProbe loop =
          batch::sibling_probe_loop(keys.data(), vals.data(), cap, p, 1);
      EXPECT_EQ(loop.hit, got.hit);
      EXPECT_EQ(loop.bit, got.bit);
    }
  }
}

TEST(BatchKernels, SiblingProbePrefersTheLowestDifferingBit) {
  // p = 0b0100 has live siblings along bits 0 and 3; bit 0 must win
  // (the order SubcubeFrontier::insert's per-dimension probe uses).
  const Vertex keys[] = {0b1100, 0b0101, 0b0111};
  const std::uint64_t vals[] = {1, 1, 1};
  batch::SiblingProbe r = batch::sibling_probe(keys, vals, 3, 0b0100, 1);
  EXPECT_EQ(r.bit, Vertex{0b0001});
  EXPECT_EQ(r.hit, 0u);
  // Value filter: when the low sibling's coverage differs, the high one
  // is the only legal merge partner.
  const std::uint64_t vals2[] = {1, 2, 1};
  EXPECT_EQ(batch::sibling_probe(keys, vals2, 3, 0b0100, 1).bit, Vertex{0b1000});
  EXPECT_EQ(batch::sibling_probe(keys, vals2, 3, 0b0100, 5).bit, Vertex{0});
  // p itself is found whatever its value, beside its siblings.
  const Vertex keys3[] = {0b1100, 0b0101, 0b0100};
  r = batch::sibling_probe(keys3, vals2, 3, 0b0100, 1);
  EXPECT_EQ(r.hit, 3u);
  EXPECT_EQ(r.bit, Vertex{0b1000});
}

// ---- dyadic partition kernels ------------------------------------------

TEST(BatchKernels, PartitionIdsMatchesDyadicSemanticsExhaustivelyQ4) {
  // Every Q_4 family member against every dimension: free entries land
  // in both halves, pinned entries in exactly the matching one, and
  // input order is preserved (stability is what witness determinism
  // rests on).
  const auto cubes = all_q4_subcubes();
  std::vector<Vertex> prefixes, masks;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < cubes.size(); ++i) {
    prefixes.push_back(cubes[i].prefix);
    masks.push_back(cubes[i].mask);
    ids.push_back(i);
  }
  for (int d = 0; d < 4; ++d) {
    const Vertex bit = Vertex{1} << d;
    std::vector<std::uint32_t> lo, hi;
    batch::partition_ids(ids.data(), ids.size(), prefixes.data(), masks.data(),
                         bit, lo, hi);
    std::vector<std::uint32_t> want_lo, want_hi;
    for (const std::uint32_t i : ids) {
      if (masks[i] & bit) {
        want_lo.push_back(i);
        want_hi.push_back(i);
      } else if (prefixes[i] & bit) {
        want_hi.push_back(i);
      } else {
        want_lo.push_back(i);
      }
    }
    ASSERT_EQ(lo, want_lo) << "bit " << d;
    ASSERT_EQ(hi, want_hi) << "bit " << d;
  }
}

TEST(BatchKernels, PartitionSubcubesRestrictsBitmapsExactly) {
  // Value-based divide on random families: each output half, expanded
  // to bitmaps, must equal the input's restriction to that halfspace —
  // entry by entry, order preserved.
  std::mt19937_64 rng(0x50a5ull);
  const int n = 12;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t count = 1 + rng() % 32;
    SubcubeSoA in;
    for (std::size_t i = 0; i < count; ++i) {
      const Subcube s = random_subcube(rng, n);
      in.push_back(s.prefix, s.mask);
    }
    const int d = static_cast<int>(rng() % n);
    const Vertex bit = Vertex{1} << d;
    SubcubeSoA lo, hi;
    batch::partition_subcubes(in.prefix.data(), in.mask.data(), count, bit, lo,
                              hi);
    std::bitset<1 << 16> half_lo, half_hi;
    for (Vertex v = 0; v < cube_order(n); ++v) {
      ((v & bit) ? half_hi : half_lo).set(static_cast<std::size_t>(v));
    }
    std::bitset<1 << 16> in_lo, in_hi, got_lo, got_hi;
    for (std::size_t i = 0; i < count; ++i) {
      in_lo |= expand(in.prefix[i], in.mask[i]) & half_lo;
      in_hi |= expand(in.prefix[i], in.mask[i]) & half_hi;
    }
    for (std::size_t i = 0; i < lo.size(); ++i) {
      ASSERT_EQ(lo.prefix[i] & lo.mask[i], 0u);
      ASSERT_EQ(lo.mask[i] & bit, 0u);
      ASSERT_EQ(lo.prefix[i] & bit, 0u);
      got_lo |= expand(lo.prefix[i], lo.mask[i]);
    }
    for (std::size_t i = 0; i < hi.size(); ++i) {
      ASSERT_EQ(hi.prefix[i] & hi.mask[i], 0u);
      ASSERT_EQ(hi.mask[i] & bit, 0u);
      ASSERT_NE(hi.prefix[i] & bit, 0u);
      got_hi |= expand(hi.prefix[i], hi.mask[i]);
    }
    ASSERT_EQ(got_lo, in_lo) << "trial " << trial;
    ASSERT_EQ(got_hi, in_hi) << "trial " << trial;
  }
}

TEST(BatchKernels, PartitionWeightedAgreesWithPlainAndCarriesMult) {
  std::mt19937_64 rng(0x3e11ull);
  const int n = 14;
  SubcubeBatch in;
  for (int i = 0; i < 64; ++i) {
    const Subcube s = random_subcube(rng, n);
    in.push_back(s.prefix, s.mask, 1 + rng() % 100);
  }
  for (int d = 0; d < n; ++d) {
    const Vertex bit = Vertex{1} << d;
    SubcubeBatch lo, hi;
    batch::partition_weighted(in, bit, lo, hi);
    SubcubeSoA plo, phi;
    batch::partition_subcubes(in.prefix.data(), in.mask.data(), in.size(), bit,
                              plo, phi);
    ASSERT_EQ(lo.prefix, plo.prefix);
    ASSERT_EQ(lo.mask, plo.mask);
    ASSERT_EQ(hi.prefix, phi.prefix);
    ASSERT_EQ(hi.mask, phi.mask);
    // Multiplicities ride along with their entry (splits duplicate).
    std::vector<std::uint64_t> want_lo, want_hi;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in.mask[i] & bit) {
        want_lo.push_back(in.mult[i]);
        want_hi.push_back(in.mult[i]);
      } else if (in.prefix[i] & bit) {
        want_hi.push_back(in.mult[i]);
      } else {
        want_lo.push_back(in.mult[i]);
      }
    }
    ASSERT_EQ(lo.mult, want_lo);
    ASSERT_EQ(hi.mult, want_hi);
  }
}

// ---- reductions --------------------------------------------------------

TEST(BatchKernels, MaskScanMatchesReferenceReductions) {
  std::mt19937_64 rng(0x5ca9ull);
  const int n = 16;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t count = rng() % 48;
    std::vector<Vertex> prefixes, masks;
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < count + 8; ++i) {
      const Subcube s = random_subcube(rng, n);
      prefixes.push_back(s.prefix);
      masks.push_back(s.mask);
    }
    for (std::size_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<std::uint32_t>(rng() % prefixes.size()));
    }
    batch::MaskScan want;
    for (const std::uint32_t i : ids) {
      want.mask_or |= masks[i];
      want.mask_and &= masks[i];
      want.pref_or |= prefixes[i];
      want.pref_and &= prefixes[i];
    }
    const batch::MaskScan got =
        batch::scan_ids(ids.data(), ids.size(), prefixes.data(), masks.data());
    ASSERT_EQ(got.mask_or, want.mask_or);
    ASSERT_EQ(got.mask_and, want.mask_and);
    ASSERT_EQ(got.pref_or, want.pref_or);
    ASSERT_EQ(got.pref_and, want.pref_and);
    const batch::MaskScan all =
        batch::scan_all(prefixes.data(), masks.data(), prefixes.size());
    batch::MaskScan all_want;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      all_want.mask_or |= masks[i];
      all_want.mask_and &= masks[i];
      all_want.pref_or |= prefixes[i];
      all_want.pref_and &= prefixes[i];
    }
    ASSERT_EQ(all.mask_or, all_want.mask_or);
    ASSERT_EQ(all.mask_and, all_want.mask_and);
    ASSERT_EQ(all.pref_or, all_want.pref_or);
    ASSERT_EQ(all.pref_and, all_want.pref_and);
  }
}

// ---- SubtractSweep -----------------------------------------------------

/// Greedily thins a random family to a pairwise-disjoint one.
std::vector<Subcube> random_disjoint_family(std::mt19937_64& rng, int n,
                                            std::size_t want) {
  std::vector<Subcube> fam;
  for (int tries = 0; tries < 400 && fam.size() < want; ++tries) {
    const Subcube s = random_subcube(rng, n);
    const bool clashes = std::any_of(fam.begin(), fam.end(), [&](const Subcube& f) {
      return subcubes_overlap(s, f);
    });
    if (!clashes) fam.push_back(s);
  }
  return fam;
}

TEST(BatchKernels, SubtractSweepMatchesBitmapDifference) {
  std::mt19937_64 rng(0x5ab8ull);
  batch::SubtractSweep sweep;  // reused across trials (pooled scratch)
  const int n = 14;
  for (int trial = 0; trial < 300; ++trial) {
    const Subcube region = random_subcube(rng, n);
    const auto fam = random_disjoint_family(rng, n, 1 + rng() % 12);
    SubcubeSoA family = sweep.acquire();
    std::bitset<1 << 16> covered;
    for (const Subcube& f : fam) {
      if (!subcubes_overlap(f, region)) continue;
      family.push_back(f.prefix, f.mask);
      covered |= expand(f.prefix, f.mask);
    }
    std::uint64_t budget = std::uint64_t{1} << 32;
    std::vector<Subcube> pieces;
    ASSERT_TRUE(sweep.run(region.prefix, region.mask, std::move(family), budget,
                          [&](Vertex p, Vertex m) { pieces.push_back({p, m}); }));
    std::bitset<1 << 16> got;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      ASSERT_EQ(pieces[i].prefix & pieces[i].mask, 0u);
      for (std::size_t j = i + 1; j < pieces.size(); ++j) {
        ASSERT_FALSE(subcubes_overlap(pieces[i], pieces[j]))
            << "uncovered pieces must be pairwise disjoint";
      }
      got |= expand(pieces[i].prefix, pieces[i].mask);
    }
    ASSERT_EQ(got, expand(region.prefix, region.mask) & ~covered)
        << "trial " << trial;
  }
}

TEST(BatchKernels, SubtractSweepFailsExplicitlyOnExhaustedBudget) {
  batch::SubtractSweep sweep;
  SubcubeSoA family = sweep.acquire();
  family.push_back(0, 0);  // the vertex 0 inside Q_8
  std::uint64_t budget = 1;  // root alone costs family_size + 1 = 2
  std::size_t pushes = 0;
  EXPECT_FALSE(sweep.run(0, mask_low(8), std::move(family), budget,
                         [&](Vertex, Vertex) { ++pushes; }));
  EXPECT_EQ(budget, 1u) << "a refused node must not consume budget";
  EXPECT_EQ(pushes, 0u);
}

// ---- canonical_reduce_tree ---------------------------------------------

std::vector<WeightedSubcube> random_weighted_entries(std::mt19937_64& rng,
                                                     int n, std::size_t count) {
  std::vector<WeightedSubcube> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Subcube s = random_subcube(rng, n);
    entries.push_back({s.prefix, s.mask, 1 + rng() % 3});
  }
  return entries;
}

TEST(CanonicalReduceTree, SmallInputsFallThroughToPlainReduce) {
  std::mt19937_64 rng(0x7ee1ull);
  const auto entries = random_weighted_entries(rng, 10, 500);
  const auto plain = canonical_reduce(entries, 10);
  const auto tree = canonical_reduce_tree(entries, 10, std::uint64_t{1} << 26,
                                          nullptr);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(*plain, *tree);
}

TEST(CanonicalReduceTree, MatchesPlainReduceAtEveryThreadCount) {
  // > 4096 entries with a multi-worker pool takes the parallel
  // top-split path; the output must be bit-for-bit the serial
  // reduce's, with and without a pool — the determinism contract the
  // parallel knowledge-class merge rides on.
  std::mt19937_64 rng(0x9d2full);
  const auto entries = random_weighted_entries(rng, 12, 20000);
  const std::uint64_t budget = std::uint64_t{1} << 28;
  const auto plain = canonical_reduce(entries, 12, budget);
  ASSERT_TRUE(plain.has_value());
  WorkerPool one(1), four(4);
  for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &one, &four}) {
    const auto tree = canonical_reduce_tree(entries, 12, budget, pool);
    ASSERT_TRUE(tree.has_value());
    ASSERT_EQ(*plain, *tree)
        << "pool workers: " << (pool ? pool->workers() : 0);
  }
}

TEST(CanonicalReduceTree, DyadicTilingCollapsesToTheFullCube) {
  // All 2^13 singletons of Q_13 (shuffled): the canonical form is the
  // full cube at multiplicity one, through the tree path (input size
  // exceeds the 4096-entry chunk).
  const int n = 13;
  std::vector<WeightedSubcube> entries;
  for (Vertex v = 0; v < cube_order(n); ++v) entries.push_back({v, 0, 1});
  std::mt19937_64 rng(0xabcdull);
  std::shuffle(entries.begin(), entries.end(), rng);
  WorkerPool four(4);
  const auto tree =
      canonical_reduce_tree(std::move(entries), n, std::uint64_t{1} << 26, &four);
  ASSERT_TRUE(tree.has_value());
  ASSERT_EQ(tree->size(), 1u);
  EXPECT_EQ((*tree)[0], (WeightedSubcube{0, mask_low(n), 1}));
}

TEST(CanonicalReduceTree, RefusesExplicitlyOnAnExhaustedBudget) {
  std::mt19937_64 rng(0x111ull);
  const auto entries = random_weighted_entries(rng, 12, 8192);
  // A budget the recursion cannot fit in: the tree must refuse the
  // same way the serial reduce does — serially and in parallel — not
  // thrash or return partial work.
  WorkerPool four(4);
  for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &four}) {
    EXPECT_FALSE(canonical_reduce_tree(entries, 12, 1, pool).has_value())
        << "pool workers: " << (pool ? pool->workers() : 0);
  }
}

TEST(CanonicalReduceTree, RefusalsMatchTheSerialReduceNearTheBudgetEdge) {
  // The refusal predicate is "total processed entries > budget", a pure
  // function of the input multiset.  Sweep budgets around the edge and
  // require the parallel tree to accept and refuse on exactly the same
  // values as the serial reduce.
  std::mt19937_64 rng(0x5eedull);
  const auto entries = random_weighted_entries(rng, 12, 8192);
  WorkerPool four(4);
  // Locate the exact serial cost by bisection on the accept predicate.
  std::uint64_t lo = 1, hi = std::uint64_t{1} << 26;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (canonical_reduce(entries, 12, mid).has_value()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::uint64_t cost = lo;
  for (const std::uint64_t budget :
       {cost - 2, cost - 1, cost, cost + 1, cost + 7}) {
    const auto plain = canonical_reduce(entries, 12, budget);
    const auto tree = canonical_reduce_tree(entries, 12, budget, &four);
    ASSERT_EQ(plain.has_value(), tree.has_value()) << "budget: " << budget;
    if (plain.has_value()) {
      EXPECT_EQ(*plain, *tree);
    }
  }
}

}  // namespace
}  // namespace shc
