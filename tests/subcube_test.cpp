// Subcube algebra unit suite: disjointness, splitting, intersection,
// and multiplicity accounting — property-style sweeps over random
// subcube pairs cross-checked exhaustively against explicit bitmaps for
// n <= 16, plus the canonical-reduction and overlap-sweep engines the
// symbolic validator's endgame rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bitset>
#include <random>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "shc/bits/checked.hpp"
#include "shc/mlbg/spec.hpp"
#include "shc/mlbg/symbolic_broadcast.hpp"
#include "shc/sim/subcube.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

/// Reference expansion of a subcube into an explicit vertex bitmap.
std::bitset<1 << 16> expand(const Subcube& s) {
  std::bitset<1 << 16> bits;
  Vertex a = 0;
  for (;;) {
    bits.set(static_cast<std::size_t>(s.prefix | a));
    if (a == s.mask) break;
    a = (a - s.mask) & s.mask;
  }
  return bits;
}

Subcube random_subcube(std::mt19937_64& rng, int n) {
  const Vertex mask = rng() & mask_low(n);
  const Vertex prefix = rng() & mask_low(n) & ~mask;
  return {prefix, mask};
}

TEST(SubcubeAlgebra, OverlapAndIntersectionMatchBitmapsExhaustivelySmall) {
  // Every subcube pair of Q_4: 3^4 x 3^4 shapes via (mask, prefix) scan.
  for (Vertex m1 = 0; m1 < 16; ++m1) {
    for (Vertex p1 = 0; p1 < 16; ++p1) {
      if (p1 & m1) continue;
      for (Vertex m2 = 0; m2 < 16; ++m2) {
        for (Vertex p2 = 0; p2 < 16; ++p2) {
          if (p2 & m2) continue;
          const Subcube a{p1, m1}, b{p2, m2};
          const auto bits = expand(a) & expand(b);
          ASSERT_EQ(subcubes_overlap(a, b), bits.any());
          const auto inter = subcube_intersection(a, b);
          ASSERT_EQ(inter.has_value(), bits.any());
          if (inter) {
            ASSERT_EQ(expand(*inter), bits);
          }
          ASSERT_EQ(subcube_contains(a, b), (expand(b) & ~expand(a)).none());
        }
      }
    }
  }
}

TEST(SubcubeAlgebra, RandomPairSweepMatchesBitmapsAtN16) {
  std::mt19937_64 rng(0xA11CE);
  const int n = 16;
  for (int trial = 0; trial < 2000; ++trial) {
    const Subcube a = random_subcube(rng, n);
    const Subcube b = random_subcube(rng, n);
    const auto ea = expand(a), eb = expand(b);
    ASSERT_EQ(subcubes_overlap(a, b), (ea & eb).any());
    const auto inter = subcube_intersection(a, b);
    if (inter) {
      ASSERT_EQ(expand(*inter), ea & eb);
    } else {
      ASSERT_TRUE((ea & eb).none());
    }
    ASSERT_EQ(subcube_contains(a, b), (eb & ~ea).none());
    ASSERT_EQ(a.size(), ea.count());
  }
}

TEST(SubcubeAlgebra, SubtractSplitsIntoDisjointCover) {
  std::mt19937_64 rng(0xBEEF);
  const int n = 12;
  for (int trial = 0; trial < 500; ++trial) {
    const Subcube outer = random_subcube(rng, n);
    // A random sub-subcube of outer: pin a random subset of its free dims.
    const Vertex pin = rng() & outer.mask;
    const Subcube inner{outer.prefix | (rng() & pin), outer.mask & ~pin};
    ASSERT_TRUE(subcube_contains(outer, inner));
    const auto pieces = subcube_subtract(outer, inner);
    ASSERT_EQ(pieces.size(), static_cast<std::size_t>(weight(pin)));
    auto covered = expand(inner);
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      const auto bits = expand(pieces[i]);
      ASSERT_TRUE((bits & covered).none()) << "piece overlaps";
      ASSERT_FALSE(subcubes_overlap(pieces[i], inner));
      covered |= bits;
    }
    ASSERT_EQ(covered, expand(outer)) << "pieces + inner must tile outer";
  }
}

TEST(SubcubeAlgebra, SubtractRefusesAnInnerSubcubeOutsideOuter) {
  // Release builds used to return pieces overlapping `inner` here.
  const Subcube outer{0b0000, 0b0011};
  EXPECT_THROW(static_cast<void>(subcube_subtract(outer, {0b0100, 0b0001})),
               std::invalid_argument)
      << "inner pins a bit outer pins differently";
  EXPECT_THROW(static_cast<void>(subcube_subtract(outer, {0b0000, 0b0111})),
               std::invalid_argument)
      << "inner frees a bit outer pins";
  EXPECT_EQ(subcube_subtract(outer, outer).size(), 0u);
  EXPECT_EQ(subcube_subtract(outer, {0b0001, 0b0010}).size(), 1u);
}

TEST(SubcubeFrontierTest, CoalescesATilingToOneCubeAndCountsExactly) {
  // Insert all 2^10 singletons in random order: sibling coalescing must
  // collapse them into few subcubes totalling exactly 2^10.
  const int n = 10;
  std::vector<Vertex> order(1 << n);
  for (Vertex v = 0; v < order.size(); ++v) order[v] = v;
  std::mt19937_64 rng(7);
  std::shuffle(order.begin(), order.end(), rng);

  SubcubeFrontier f(n);
  for (const Vertex v : order) f.insert(v, 0);
  EXPECT_TRUE(f.count_ok());
  EXPECT_EQ(f.total_count(), cube_order(n));
  // Greedy sibling merging is order-sensitive and may wedge in a local
  // optimum (which is why the caller tiling compares canonical_reduce
  // normal forms rather than frontier entries);
  // it must still collapse a substantial fraction of the tiling.
  EXPECT_LT(f.num_subcubes(), cube_order(n) / 2);

  // Whatever local optimum greedy coalescing reached, the canonical
  // reduction is the single full cube with multiplicity one.
  const auto canon = canonical_reduce(f.to_entries(), n);
  ASSERT_TRUE(canon.has_value());
  ASSERT_EQ(canon->size(), 1u);
  EXPECT_EQ((*canon)[0].prefix, 0u);
  EXPECT_EQ((*canon)[0].mask, mask_low(n));
  EXPECT_EQ((*canon)[0].mult, 1u);
}

TEST(SubcubeFrontierTest, MultiplicityAccountingSurvivesCoalescing) {
  const int n = 8;
  SubcubeFrontier f(n);
  // Cover the cube once...
  f.insert(0, mask_low(n));
  // ...and vertex 5 a second time: the multiset must remember it.
  f.insert(5, 0);
  EXPECT_EQ(f.total_count(), cube_order(n) + 1);
  const auto canon = canonical_reduce(f.to_entries(), n);
  ASSERT_TRUE(canon.has_value());
  bool found_duplicate = false;
  for (const WeightedSubcube& e : *canon) {
    if (e.mult > 1) {
      found_duplicate = true;
      const Subcube dup{e.prefix, e.mask};
      EXPECT_TRUE(dup.contains_vertex(5));
    }
  }
  EXPECT_TRUE(found_duplicate) << "duplicate coverage must not coalesce away";
}

TEST(SubcubeFrontierTest, RawLedgerTakeConsumesExactly) {
  SubcubeFrontier ledger(8);
  ledger.add_raw(3, 0x30, 4);
  EXPECT_FALSE(ledger.take(3, 0x30, 5)) << "cannot take more than present";
  EXPECT_TRUE(ledger.take(3, 0x30, 4));
  EXPECT_TRUE(ledger.empty());
  EXPECT_FALSE(ledger.take(3, 0x30, 1));
}

TEST(SubcubeFrontierTest, RawAddCountsEachKeyOnce) {
  // add_raw accumulates onto an existing key in one probe; only a new
  // key counts as an entry, and assign() rebuilds the same count.
  SubcubeFrontier ledger(8);
  ledger.add_raw(3, 0x30, 4);
  ledger.add_raw(3, 0x30, 2);
  ledger.add_raw(1, 0x30, 1);
  ledger.add_raw(3, 0x04, 1);
  EXPECT_EQ(ledger.num_subcubes(), 3u);
  ASSERT_NE(ledger.find(3, 0x30), nullptr);
  EXPECT_EQ(*ledger.find(3, 0x30), 6u);
  SubcubeFrontier copy(8);
  copy.assign(ledger.to_entries());
  EXPECT_EQ(copy.num_subcubes(), 3u);
  EXPECT_EQ(*copy.find(3, 0x30), 6u);
}

TEST(MaskClassMapTest, RecycledPoolSlotNeverAnswersForTheErasedMask) {
  // The class cache maps a mask to a pool index.  Erasing a class
  // recycles its index; when another mask takes it, the erased mask
  // must come back as a fresh, empty table, not the new owner's.
  detail::MaskClassMap map;
  const Vertex a = 0b0011;
  const Vertex b = 0b0101;
  map.get_or_create(a).add(0b1000, 1);
  ASSERT_NE(map.find_class(a), nullptr);  // cached by both lookups
  const detail::PrefixTable* a_table = map.find_class(a);
  map.erase(a);
  EXPECT_EQ(map.find_class(a), nullptr);
  detail::PrefixTable& tb = map.get_or_create(b);
  EXPECT_EQ(&tb, a_table) << "b should take a's recycled pool slot";
  EXPECT_TRUE(tb.empty());
  tb.add(0b1010, 7);
  detail::PrefixTable& ta = map.get_or_create(a);
  EXPECT_NE(&ta, &tb);
  EXPECT_TRUE(ta.empty());
  EXPECT_EQ(map.class_count(), 2u);
  ASSERT_NE(map.find_class(b), nullptr);
  ASSERT_NE(map.find_class(b)->find(0b1010), nullptr);
  EXPECT_EQ(*map.find_class(b)->find(0b1010), 7u);
  // clear() forgets every cached class.
  map.clear();
  EXPECT_EQ(map.find_class(a), nullptr);
  EXPECT_EQ(map.find_class(b), nullptr);
  EXPECT_EQ(map.class_count(), 0u);
}

TEST(MaskClassMapTest, CachedAndHashedLookupsAgreeThroughChurn) {
  // Many more classes than cache ways, erased and recreated in a
  // seeded order (map growth and tombstones included): every cached
  // (non-const) lookup must agree with the plain hashed (const) one.
  detail::MaskClassMap map;
  const detail::MaskClassMap& hashed = map;
  std::mt19937_64 rng(0xcac4e);
  std::vector<std::uint64_t> expect(256, 0);
  for (int step = 0; step < 20000; ++step) {
    const Vertex m = rng() % 256;
    switch (rng() % 3) {
      case 0: {
        const bool created = map.get_or_create(m).add(1, 1);
        EXPECT_EQ(created, expect[m] == 0);
        ++expect[m];
        break;
      }
      case 1:
        map.erase(m);
        expect[m] = 0;
        break;
      default: {
        const detail::PrefixTable* t = map.find_class(m);
        ASSERT_EQ(t, hashed.find_class(m)) << "step " << step;
        if (expect[m] == 0) {
          EXPECT_TRUE(t == nullptr || t->empty());
        } else {
          ASSERT_NE(t, nullptr);
          EXPECT_EQ(*t->find(1), expect[m]);
        }
        break;
      }
    }
  }
}

TEST(SubcubeFrontierTest, TakeEmptiesAClassAndTheMaskStartsFresh) {
  SubcubeFrontier f(8);
  f.add_raw(0x01, 0x30, 2);
  ASSERT_TRUE(f.take(0x01, 0x30, 2));  // class 0x30 erased, slot recycled
  f.add_raw(0x02, 0x0c, 5);            // takes the recycled slot
  EXPECT_EQ(f.find(0x01, 0x30), nullptr);
  EXPECT_EQ(f.find(0x02, 0x30), nullptr);  // class 0x30 stays gone
  EXPECT_FALSE(f.take(0x02, 0x30, 1));
  ASSERT_NE(f.find(0x02, 0x0c), nullptr);
  EXPECT_EQ(*f.find(0x02, 0x0c), 5u);
  EXPECT_FALSE(f.take(0x02, 0x0c, 6));  // holds less: nothing deducted
  EXPECT_TRUE(f.take(0x02, 0x0c, 4));
  EXPECT_EQ(*f.find(0x02, 0x0c), 1u);
  f.add_raw(0x01, 0x30, 1);
  EXPECT_EQ(*f.find(0x01, 0x30), 1u);
  EXPECT_EQ(f.num_subcubes(), 2u);
}

/// Replays a symbolic broadcast's receiver stream into a lent informed
/// set the way SymbolicBroadcastValidator does (the snapshot retaken at
/// begin_round, each round's receivers joining in group order at
/// end_round) and folds the frontier's for_each sequence into an FNV-1a
/// hash after every round.
class LayoutPinSink {
 public:
  LayoutPinSink(int n, Vertex source) : informed_(n) { informed_.start(source); }

  void begin_round() {
    receivers_.clear();
    informed_.snapshot();
  }
  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    receivers_.push_back({g.prefix ^ pattern.back(), g.free_mask});
  }
  void end_round() {
    for (const Subcube& r : receivers_) informed_.insert(r.prefix, r.mask);
    informed_.frontier().for_each([&](Vertex p, Vertex m, std::uint64_t mult) {
      mix(p);
      mix(m);
      mix(mult);
    });
    ++rounds_;
  }
  [[nodiscard]] const InformedSet& informed_set() const noexcept { return informed_; }
  [[nodiscard]] const SubcubeFrontier& informed_frontier() const noexcept {
    return informed_.frontier();
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }
  [[nodiscard]] int rounds() const noexcept { return rounds_; }

 private:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }

  InformedSet informed_;
  std::vector<Subcube> receivers_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  int rounds_ = 0;
};

TEST(SubcubeFrontierTest, CoalescedLayoutIsPinnedOnBroadcastReceiverStreams) {
  // The greedy coalescing and every table's slot layout set for_each's
  // order, which sets the producer's group order and so every gated
  // counter.  A change to the probe, the hash, the capacities, growth
  // or tombstone rules, or the pool recycling shows up here first.
  struct Pin {
    int n;
    Vertex source;
    std::uint64_t hash;
  };
  for (const Pin& pin : {Pin{24, Vertex{0x5a5a5} << 7, 0x499763f3fe91530fULL},
                         Pin{28, Vertex{0x1b3c5d} << 7, 0x11aafeef2e023c4bULL}}) {
    const SparseHypercubeSpec spec = SparseHypercubeSpec::construct(pin.n, {7});
    LayoutPinSink sink(pin.n, pin.source & mask_low(pin.n));
    static_cast<void>(emit_broadcast_rounds_symbolic(spec, pin.source & mask_low(pin.n), sink));
    EXPECT_EQ(sink.rounds(), pin.n);
    EXPECT_EQ(sink.informed_frontier().total_count(), cube_order(pin.n));
    EXPECT_EQ(sink.hash(), pin.hash) << "construct(" << pin.n << ", [7])";
  }
}

TEST(SubcubeGuards, OutOfRangeCubeDimensionsThrow) {
  for (const int n : {-1, 0, kMaxCubeDim + 1}) {
    EXPECT_THROW(SubcubeFrontier{n}, std::invalid_argument) << n;
    EXPECT_THROW(static_cast<void>(canonical_reduce({}, n)), std::invalid_argument) << n;
    EXPECT_THROW(static_cast<void>(canonical_reduce_tree({}, n, 1 << 20, nullptr)),
                 std::invalid_argument)
        << n;
  }
  EXPECT_NO_THROW(SubcubeFrontier{1});
  EXPECT_NO_THROW(SubcubeFrontier{kMaxCubeDim});
  EXPECT_TRUE(canonical_reduce({}, kMaxCubeDim).has_value());
}

TEST(CanonicalReduce, NormalizesAnyDisjointPartitionOfTheCube) {
  std::mt19937_64 rng(0xCAFE);
  const int n = 9;
  for (int trial = 0; trial < 50; ++trial) {
    // Random recursive partition of Q_n into subcubes.
    std::vector<Subcube> stack{{0, mask_low(n)}};
    std::vector<WeightedSubcube> parts;
    while (!stack.empty()) {
      const Subcube c = stack.back();
      stack.pop_back();
      if (c.mask != 0 && (rng() & 3) != 0) {
        const int free_dims = weight(c.mask);
        int pick = static_cast<int>(rng() % static_cast<std::uint64_t>(free_dims));
        Vertex b = c.mask;
        while (pick--) b &= b - 1;
        b &= ~b + 1;
        stack.push_back({c.prefix, c.mask & ~b});
        stack.push_back({c.prefix | b, c.mask & ~b});
      } else {
        parts.push_back({c.prefix, c.mask, 1});
      }
    }
    std::shuffle(parts.begin(), parts.end(), rng);
    const auto canon = canonical_reduce(parts, n);
    ASSERT_TRUE(canon.has_value());
    ASSERT_EQ(canon->size(), 1u) << "a partition of the cube must reduce to it";
    EXPECT_EQ((*canon)[0].mask, mask_low(n));
    EXPECT_EQ((*canon)[0].mult, 1u);
  }
}

TEST(CanonicalReduce, IsANormalFormOfTheVertexSetForEverySubsetUpToN4) {
  // The caller tiling compares normal forms, so a subset's normal form
  // must not depend on the cover it is given in, and two subsets must
  // never share one.  Every subset of Q_n for n <= 4 gets two covers:
  // its vertices as raw singletons, and the same vertices greedily
  // coalesced by SubcubeFrontier::insert in descending order.
  const auto less = [](const WeightedSubcube& x, const WeightedSubcube& y) {
    return std::tie(x.mask, x.prefix, x.mult) < std::tie(y.mask, y.prefix, y.mult);
  };
  for (int n = 1; n <= 4; ++n) {
    const std::uint64_t order = cube_order(n);
    std::vector<std::vector<WeightedSubcube>> forms;
    for (std::uint64_t set = 0; set < (std::uint64_t{1} << order); ++set) {
      std::vector<WeightedSubcube> singletons;
      SubcubeFrontier greedy(n);
      for (Vertex v = order; v-- > 0;) {
        if ((set >> v) & 1) {
          singletons.push_back({v, 0, 1});
          greedy.insert(v, 0);
        }
      }
      const auto a = canonical_reduce(std::move(singletons), n);
      const auto b = canonical_reduce(greedy.to_entries(), n);
      ASSERT_TRUE(a.has_value() && b.has_value()) << "n=" << n << " set=" << set;
      ASSERT_EQ(*a, *b) << "n=" << n << " set=" << set;
      forms.push_back(*a);
      std::sort(forms.back().begin(), forms.back().end(), less);
    }
    std::sort(forms.begin(), forms.end(), [&](const auto& x, const auto& y) {
      return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end(), less);
    });
    EXPECT_EQ(std::adjacent_find(forms.begin(), forms.end()), forms.end())
        << "two subsets of Q_" << n << " share a normal form";
  }
}

TEST(CheckedArithmetic, FlagsTheBoundaryInsteadOfWrapping) {
  std::uint64_t out = 0;
  // 2^63 - 1 calls (the n = 63 broadcast) must survive doubling checks...
  EXPECT_TRUE(checked_add_u64((std::uint64_t{1} << 63) - 1, 1, out));
  EXPECT_EQ(out, std::uint64_t{1} << 63);
  // ...but one step past 2^64 - 1 must flag, not wrap.
  out = 7;
  EXPECT_FALSE(checked_add_u64(~std::uint64_t{0}, 1, out));
  EXPECT_EQ(out, 7u) << "failed add must leave the accumulator untouched";
  EXPECT_FALSE(checked_mul_u64(std::uint64_t{1} << 32, std::uint64_t{1} << 32, out));
  EXPECT_EQ(out, 7u);
  EXPECT_TRUE(checked_mul_u64(std::uint64_t{1} << 31, std::uint64_t{1} << 32, out));
  EXPECT_EQ(out, std::uint64_t{1} << 63);
  EXPECT_TRUE(checked_shift_u64(63, out));
  EXPECT_FALSE(checked_shift_u64(64, out));
}

TEST(WorkerPoolTest, RunsEveryJobExactlyOnceAcrossReuse) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  // Reuse the same pool across many generations (the per-round pattern).
  for (int round = 0; round < 200; ++round) {
    const int jobs = 1 + round % 7;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(jobs));
    pool.run(jobs, [&](int j) { hits[static_cast<std::size_t>(j)].fetch_add(1); });
    for (int j = 0; j < jobs; ++j) {
      ASSERT_EQ(hits[static_cast<std::size_t>(j)].load(), 1)
          << "job " << j << " of round " << round;
    }
  }
}

}  // namespace
}  // namespace shc
