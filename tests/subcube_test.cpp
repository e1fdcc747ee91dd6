// Subcube algebra unit suite: disjointness, intersection and
// multiplicity accounting — property-style sweeps over random
// subcube pairs cross-checked exhaustively against explicit bitmaps for
// n <= 16, plus the canonical-reduction and overlap-sweep engines the
// symbolic validator's endgame rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bitset>
#include <map>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "shc/bits/checked.hpp"
#include "shc/mlbg/params.hpp"
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

TEST(SubcubeFrontierTest, CoalescingEmptiesAClassAndTheMaskStartsFresh) {
  SubcubeFrontier f(8);
  f.add_raw(0x01, 0x30, 2);
  // The insert coalesces with its sibling 0x01: class 0x30 empties and
  // is erased, and the merged cube's class 0x31 takes the recycled slot.
  f.insert(0x00, 0x30, 2);
  EXPECT_EQ(f.find(0x01, 0x30), nullptr);
  EXPECT_EQ(f.find(0x00, 0x30), nullptr);  // class 0x30 stays gone
  ASSERT_NE(f.find(0x00, 0x31), nullptr);
  EXPECT_EQ(*f.find(0x00, 0x31), 2u);
  f.add_raw(0x02, 0x0c, 5);
  ASSERT_NE(f.find(0x02, 0x0c), nullptr);
  EXPECT_EQ(*f.find(0x02, 0x0c), 5u);
  f.add_raw(0x01, 0x30, 1);
  EXPECT_EQ(*f.find(0x01, 0x30), 1u);
  EXPECT_EQ(*f.find(0x00, 0x31), 2u);
  EXPECT_EQ(f.num_subcubes(), 3u);
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
    receivers_.emplace_back(g, g.prefix ^ pattern.back());
  }
  void end_round() {
    for (const auto& [g, receiver] : receivers_) informed_.receive(g, receiver);
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
  std::vector<std::pair<CallGroup, Vertex>> receivers_;
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
  // A designed spec (cuts [1, 4, 12]): three governing levels, where
  // the construct(n, [7]) pins above have one.
  const SparseHypercubeSpec designed = design_sparse_hypercube(20, 4);
  LayoutPinSink sink(20, 0);
  static_cast<void>(emit_broadcast_rounds_symbolic(designed, 0, sink));
  EXPECT_EQ(sink.rounds(), 20);
  EXPECT_EQ(sink.informed_frontier().total_count(), cube_order(20));
  EXPECT_EQ(sink.hash(), 0xa682784b5d240ddfULL) << "design_sparse_hypercube(20, 4)";
}

/// Replays a broadcast's receivers into a lent informed set through the
/// group-aware insert and, beside it, into a plain frontier through
/// insert(); after every round both must walk the same entries in the
/// same order.
class InsertRuleParitySink {
 public:
  InsertRuleParitySink(int n, Vertex source) : informed_(n), plain_(n) {
    informed_.start(source);
    plain_.insert(source, 0);
  }

  void begin_round() { informed_.snapshot(); }
  void end_call_group(const CallGroup& g, std::span<const Vertex> pattern) {
    const Vertex receiver = g.prefix ^ pattern.back();
    informed_.receive(g, receiver);
    plain_.insert(receiver, g.free_mask);
  }
  void end_round() {
    ++rounds_;
    doubled_ += informed_.doubled();
    if (informed_.frontier().to_entries() != plain_.to_entries()) ++diverged_;
  }
  [[nodiscard]] const InformedSet& informed_set() const noexcept { return informed_; }
  [[nodiscard]] int rounds() const noexcept { return rounds_; }
  [[nodiscard]] int diverged() const noexcept { return diverged_; }
  [[nodiscard]] std::uint64_t doubled() const noexcept { return doubled_; }

 private:
  InformedSet informed_;
  SubcubeFrontier plain_;
  int rounds_ = 0;
  int diverged_ = 0;
  std::uint64_t doubled_ = 0;
};

TEST(SubcubeFrontierTest, GroupAwareInsertKeepsThePlainLayoutOnBroadcastStreams) {
  // The group-aware insert may leave another layout than insert() only
  // when a receiver also has an equal-multiplicity sibling below the
  // swept bit.  On the paper's sweeps it never does: after every round
  // of these runs the two frontiers hold the same entries in the same
  // for_each order, and most receivers take the doubled path.
  std::mt19937_64 rng(0x9a12);
  const auto run = [](const SparseHypercubeSpec& spec, Vertex source, const std::string& what) {
    InsertRuleParitySink sink(spec.n(), source);
    static_cast<void>(emit_broadcast_rounds_symbolic(spec, source, sink));
    EXPECT_EQ(sink.rounds(), spec.n()) << what;
    EXPECT_EQ(sink.diverged(), 0) << what;
    EXPECT_GT(sink.doubled(), 0u) << what;
  };
  for (const int n : {16, 20, 24}) {
    const SparseHypercubeSpec spec = SparseHypercubeSpec::construct(n, {7});
    for (int i = 0; i < 3; ++i) {
      const Vertex source = i == 0 ? 0 : rng() & mask_low(n);
      run(spec, source, "construct(" + std::to_string(n) + ", [7]) from " + std::to_string(source));
    }
  }
  for (const auto& [n, k] : {std::pair{16, 3}, std::pair{20, 4}, std::pair{24, 5}}) {
    const SparseHypercubeSpec spec = design_sparse_hypercube(n, k);
    for (int i = 0; i < 2; ++i) {
      const Vertex source = i == 0 ? 0 : rng() & mask_low(n);
      run(spec, source, "designed (" + std::to_string(n) + ", " + std::to_string(k) + ") from " +
                            std::to_string(source));
    }
  }
}

TEST(SubcubeFrontierTest, GroupAwareInsertFallsBackToThePlainInsert) {
  // Each case is a frontier and a receiver the shortcut must not take:
  // insert_from reports no doubling and leaves exactly what insert()
  // leaves, entry for entry, in order.
  struct Case {
    const char* what;
    std::vector<WeightedSubcube> entries;  // placed as they are (assign)
    Vertex caller;
    Vertex receiver;
    Vertex mask;
  };
  const std::vector<Case> cases = {
      {"caller entry absent", {{0b1000, 0b0001, 1}}, 0b0000, 0b0100, 0b0001},
      {"caller split off a larger entry", {{0b0000, 0b0011, 1}}, 0b0000, 0b0100, 0b0001},
      {"caller entry of multiplicity 2", {{0b0000, 0b0001, 2}}, 0b0000, 0b0100, 0b0001},
      {"receiver already present", {{0b0000, 0b0001, 1}, {0b0100, 0b0001, 1}}, 0b0000, 0b0100,
       0b0001},
      {"receiver two bits from its caller", {{0b0000, 0b0001, 1}}, 0b0000, 0b0110, 0b0001},
      {"caller equal to the receiver", {{0b0100, 0b0001, 1}}, 0b0100, 0b0100, 0b0001},
  };
  for (const Case& c : cases) {
    SubcubeFrontier aware(4);
    SubcubeFrontier plain(4);
    aware.assign(c.entries);
    plain.assign(c.entries);
    EXPECT_FALSE(aware.insert_from(c.caller, c.receiver, c.mask)) << c.what;
    plain.insert(c.receiver, c.mask);
    EXPECT_EQ(aware.to_entries(), plain.to_entries()) << c.what;
    EXPECT_EQ(aware.total_count(), plain.total_count()) << c.what;
    EXPECT_EQ(aware.num_subcubes(), plain.num_subcubes()) << c.what;
  }
  // A receiver whose caller is a whole entry of multiplicity one takes
  // the shortcut, and a repeat of the same group then falls back.
  SubcubeFrontier f(4);
  f.insert(0b0000, 0b0001);
  EXPECT_TRUE(f.insert_from(0b0000, 0b0100, 0b0001));
  EXPECT_EQ(f.to_entries(), (std::vector<WeightedSubcube>{{0b0000, 0b0101, 1}}));
  EXPECT_FALSE(f.insert_from(0b0000, 0b0100, 0b0001));
  EXPECT_EQ(f.total_count(), 6u);
  EXPECT_EQ(f.num_subcubes(), 2u);
}

TEST(SubcubeFrontierTest, GroupAwareInsertPrefersTheCallerOverALowerSibling) {
  // Q_4 with entries 0000 and 0101; receiver 0100 called from 0000.
  // insert() merges the receiver with its lowest-bit sibling 0101; the
  // group-aware insert doubles the caller along bit 2 instead.  The
  // layouts differ, the multiset does not.
  SubcubeFrontier aware(4);
  SubcubeFrontier plain(4);
  for (SubcubeFrontier* f : {&aware, &plain}) {
    f->insert(0b0000, 0);
    f->insert(0b0101, 0);
  }
  EXPECT_TRUE(aware.insert_from(0b0000, 0b0100, 0));
  plain.insert(0b0100, 0);
  const auto sorted = [](std::vector<WeightedSubcube> v) {
    std::sort(v.begin(), v.end(), [](const WeightedSubcube& a, const WeightedSubcube& b) {
      return std::tie(a.mask, a.prefix, a.mult) < std::tie(b.mask, b.prefix, b.mult);
    });
    return v;
  };
  EXPECT_EQ(sorted(aware.to_entries()),
            (std::vector<WeightedSubcube>{{0b0101, 0, 1}, {0b0000, 0b0100, 1}}));
  EXPECT_EQ(sorted(plain.to_entries()),
            (std::vector<WeightedSubcube>{{0b0000, 0, 1}, {0b0100, 0b0001, 1}}));
  EXPECT_EQ(aware.total_count(), 3u);
  EXPECT_EQ(aware.total_count(), plain.total_count());
  const auto aware_form = canonical_reduce(aware.to_entries(), 4);
  const auto plain_form = canonical_reduce(plain.to_entries(), 4);
  ASSERT_TRUE(aware_form.has_value());
  ASSERT_TRUE(plain_form.has_value());
  EXPECT_EQ(sorted(*aware_form), sorted(*plain_form));
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

TEST(SubcubeGuards, MalformedKeysThrowNamedErrorsAndChangeNothing) {
  // A prefix that pins a free dimension of its mask is not a subcube;
  // both the coalescing and the raw insert refuse it by name, in
  // Release too, before touching the multiset.
  SubcubeFrontier f(8);
  f.insert(0b0001, 0b0100);
  f.add_raw(0b0010, 0b1000, 3);
  const std::vector<WeightedSubcube> before = f.to_entries();
  const std::uint64_t count = f.total_count();
  const auto expect_named = [](auto&& call, const std::string& what) {
    try {
      call();
      ADD_FAILURE() << what << " accepted a malformed key";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), what + ": prefix pins a free dimension of its mask");
    }
  };
  expect_named([&] { f.insert(0b0110, 0b0100); }, "SubcubeFrontier::insert");
  expect_named([&] { f.insert_portable(0b0110, 0b0100); }, "SubcubeFrontier::insert");
  expect_named([&] { f.add_raw(0b1000, 0b1000, 1); }, "SubcubeFrontier::add_raw");
  EXPECT_EQ(f.to_entries(), before);
  EXPECT_EQ(f.total_count(), count);
  EXPECT_EQ(f.num_subcubes(), 2u);
}

/// The table's entries in for_each order.
std::vector<std::pair<Vertex, std::uint64_t>> walk(const detail::PrefixTable& t) {
  std::vector<std::pair<Vertex, std::uint64_t>> out;
  t.for_each([&](Vertex p, std::uint64_t v) { out.emplace_back(p, v); });
  return out;
}

/// The table's entries by a scan of every slot (any_of never stops).
std::vector<std::pair<Vertex, std::uint64_t>> scan(const detail::PrefixTable& t) {
  std::vector<std::pair<Vertex, std::uint64_t>> out;
  static_cast<void>(t.any_of([&](Vertex p, std::uint64_t v) {
    out.emplace_back(p, v);
    return false;
  }));
  return out;
}

TEST(PrefixTableTest, LiveSlotWalkMatchesTheFullSlotScanThroughChurn) {
  // Seeded add / re-add / erase / reset over key pools sized so the
  // table settles at every capacity from 16 to 1024: growth and
  // same-size rehashes, tombstones and their reuse all happen.  After
  // every step the bitmap walk (tables up to 64 slots) or the slot
  // scan (larger ones) must give exactly the full scan's sequence.
  std::mt19937_64 rng(0x1b17a9);
  std::set<std::size_t> capacities;
  for (const std::size_t pool_size : {6, 12, 24, 48, 96, 192, 384, 900}) {
    std::vector<Vertex> pool(pool_size);
    for (Vertex& k : pool) k = rng() & mask_low(40);
    detail::PrefixTable t;
    std::map<Vertex, std::uint64_t> expect;
    for (int step = 0; step < 4000; ++step) {
      const Vertex k = pool[rng() % pool_size];
      if (step % 1000 == 999) {
        t.reset();
        expect.clear();
      } else if (rng() % 100 < 60) {
        const std::uint64_t v = 1 + rng() % 3;
        EXPECT_EQ(t.add(k, v), expect.count(k) == 0);
        expect[k] += v;
      } else {
        EXPECT_EQ(t.erase(k), expect.erase(k) == 1);
      }
      const auto got = walk(t);
      ASSERT_EQ(got, scan(t)) << "pool " << pool_size << " step " << step;
      ASSERT_EQ(got.size(), expect.size());
      ASSERT_EQ(t.size(), expect.size());
      for (const auto& [key, v] : got) ASSERT_EQ(expect.at(key), v);
      capacities.insert(t.capacity());
    }
  }
  // The pools above reach every capacity from 16 to 1024 slots.
  for (const std::size_t cap : {16, 32, 64, 128, 256, 512, 1024}) {
    EXPECT_EQ(capacities.count(cap), 1u) << "no table reached " << cap << " slots";
  }
}

TEST(SubcubeFrontierTest, ClonedInsertMatchesItsFormulationOnSeededReceiverStreams) {
  // The dispatched insert runs whichever clone this host picks;
  // insert_portable is the same code at the baseline ISA.  Streams mix
  // small-class scans with classes past the 16 n-slot scan limit (an
  // independent set of singletons, none of them siblings), multiplicity
  // two and cascades.  Both frontiers must agree entry for entry, in
  // order, after every batch.
  for (const int n : {8, 16, 40, 63}) {
    std::mt19937_64 rng(0xc10e5 + static_cast<std::uint64_t>(n));
    SubcubeFrontier cloned(n);
    SubcubeFrontier portable(n);
    // Half the single-copy inserts name a caller one random bit away,
    // so the group-aware path runs beside the plain one: it doubles
    // the caller when that is a whole entry and falls back otherwise.
    int doubled = 0;
    const auto both = [&](Vertex p, Vertex m, std::uint64_t mult) {
      if (mult == 1 && rng() % 2 == 0) {
        const Vertex caller = p ^ (Vertex{1} << (rng() % static_cast<std::uint64_t>(n)));
        const bool took = cloned.insert_from(caller, p, m);
        ASSERT_EQ(portable.insert_portable_from(caller, p, m), took);
        doubled += took ? 1 : 0;
        return;
      }
      cloned.insert(p, m, mult);
      portable.insert_portable(p, m, mult);
    };
    const auto entries = [](const SubcubeFrontier& f) {
      std::vector<WeightedSubcube> out;
      f.for_each([&](Vertex p, Vertex m, std::uint64_t mult) { out.push_back({p, m, mult}); });
      return out;
    };
    // Even-weight vertices of the low 9 bits: pairwise at distance two,
    // so class 0 holds up to 256 entries and outgrows the scan at n = 8
    // and n = 16.
    const int wide = std::min(n, 9);
    for (Vertex v = 0; v < (Vertex{1} << wide); ++v) {
      if (weight(v) % 2 == 0) both(v << (n - wide), 0, 1);
    }
    ASSERT_EQ(entries(cloned), entries(portable)) << "n " << n;
    const Vertex near = mask_low(std::min(n, 12));
    for (int batch = 0; batch < 40; ++batch) {
      for (int i = 0; i < 256; ++i) {
        const Vertex m = rng() & rng() & near;
        const Vertex p = (rng() & near & ~m) | (rng() % 4 == 0 ? rng() & mask_low(n) & ~m : 0);
        both(p, m, rng() % 8 == 0 ? 2 : 1);
      }
      ASSERT_EQ(entries(cloned), entries(portable)) << "n " << n << " batch " << batch;
      ASSERT_EQ(cloned.num_subcubes(), portable.num_subcubes());
      ASSERT_EQ(cloned.total_count(), portable.total_count());
    }
    EXPECT_GT(doubled, 0) << "n " << n << ": no insert took the doubled path";
  }
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
