// Dyadic occupancy ledger unit suite — the sub-quadratic disjointness
// engine behind the symbolic validators' collision checks.
//
// Contract under test: check() reports kDoubleClaim exactly when two
// claims of the same family share a vertex (cross-checked against the
// brute-force pairwise sweep on random families), the witness is exact
// (the reported groups genuinely overlap and the reported piece is
// their intersection), random tilings of Q_n are accepted, families are
// independent shards, and every outcome — verdict, witness, and budget
// diagnostics — is bit-for-bit identical for any thread count.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "shc/sim/occupancy_ledger.hpp"
#include "shc/sim/subcube.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

Subcube random_subcube(std::mt19937_64& rng, int n) {
  const Vertex mask = rng() & mask_low(n);
  const Vertex prefix = rng() & mask_low(n) & ~mask;
  return {prefix, mask};
}

/// Brute force: does any pair of family members overlap?
bool any_pair_overlaps(const std::vector<Subcube>& family) {
  for (std::size_t a = 0; a < family.size(); ++a) {
    for (std::size_t b = a + 1; b < family.size(); ++b) {
      if (subcubes_overlap(family[a], family[b])) return true;
    }
  }
  return false;
}

TEST(OccupancyLedger, HandcraftedDoubleClaimWitnessIsExact) {
  OccupancyLedger ledger(6);
  // Claims 0 and 2 overlap on the subcube {prefix 0b100, free bit 1}.
  ledger.claim(3, /*prefix=*/0b000, /*mask=*/0b101, /*group=*/7);
  ledger.claim(3, /*prefix=*/0b010, /*mask=*/0b001, /*group=*/9);
  ledger.claim(3, /*prefix=*/0b100, /*mask=*/0b011, /*group=*/11);
  const OccupancyOutcome out = ledger.check(nullptr, 512);
  ASSERT_EQ(out.status, OccupancyStatus::kDoubleClaim);
  EXPECT_EQ(out.family, 3);
  EXPECT_EQ(out.group_a, 7u);
  EXPECT_EQ(out.group_b, 11u);
  const Subcube expect =
      *subcube_intersection({0b000, 0b101}, {0b100, 0b011});
  EXPECT_EQ(out.piece, expect);
}

TEST(OccupancyLedger, IdenticalClaimIsADoubleClaim) {
  OccupancyLedger ledger(10);
  ledger.claim(1, 0b1100, 0b0011, 4);
  ledger.claim(1, 0b1100, 0b0011, 5);
  const OccupancyOutcome out = ledger.check(nullptr, 512);
  ASSERT_EQ(out.status, OccupancyStatus::kDoubleClaim);
  EXPECT_EQ(out.group_a, 4u);
  EXPECT_EQ(out.group_b, 5u);
  EXPECT_EQ(out.piece, (Subcube{0b1100, 0b0011}));
}

TEST(OccupancyLedger, FamiliesAreIndependentShards) {
  // The same subcube claimed in two different families never collides.
  OccupancyLedger ledger(8);
  ledger.claim(1, 0, mask_low(8), 0);
  ledger.claim(2, 0, mask_low(8), 1);
  ledger.claim(9, 0, mask_low(8), 2);
  EXPECT_EQ(ledger.check(nullptr, 512).status, OccupancyStatus::kDisjoint);
  // ...and the smallest family id wins when several have collisions.
  ledger.claim(2, 0, 0, 3);
  ledger.claim(9, 0, 0, 4);
  const OccupancyOutcome out = ledger.check(nullptr, 512);
  ASSERT_EQ(out.status, OccupancyStatus::kDoubleClaim);
  EXPECT_EQ(out.family, 2);
}

TEST(OccupancyLedger, RandomTilingsAreAccepted) {
  // Random dyadic partitions of Q_n tile the cube: pairwise disjoint by
  // construction, so the ledger must accept every one of them.
  std::mt19937_64 rng(0xACCE55);
  for (const int n : {6, 10, 14, 20}) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<Subcube> pieces{{0, mask_low(n)}};
      for (int splits = 0; splits < 200; ++splits) {
        const std::size_t at = rng() % pieces.size();
        if (pieces[at].mask == 0) continue;
        const Vertex m = pieces[at].mask;
        // Pick a random free bit of the piece and split on it.
        int bit = -1;
        for (int trial = 0; trial < 64; ++trial) {
          const int c = static_cast<int>(rng() % static_cast<unsigned>(n));
          if (m & (Vertex{1} << c)) {
            bit = c;
            break;
          }
        }
        if (bit < 0) continue;
        const Vertex b = Vertex{1} << bit;
        Subcube lo = pieces[at];
        lo.mask &= ~b;
        Subcube hi = lo;
        hi.prefix |= b;
        pieces[at] = lo;
        pieces.push_back(hi);
      }
      OccupancyLedger ledger(n);
      for (std::size_t i = 0; i < pieces.size(); ++i) {
        ledger.claim(1, pieces[i].prefix, pieces[i].mask,
                     static_cast<std::uint32_t>(i));
      }
      EXPECT_EQ(ledger.check(nullptr, 512).status, OccupancyStatus::kDisjoint)
          << "n=" << n << " rep=" << rep;
      // Duplicating any one piece must flip the verdict.
      const std::size_t dup = rng() % pieces.size();
      ledger.claim(1, pieces[dup].prefix, pieces[dup].mask, 777u);
      const OccupancyOutcome out = ledger.check(nullptr, 512);
      ASSERT_EQ(out.status, OccupancyStatus::kDoubleClaim);
      EXPECT_EQ(out.group_b, 777u);
    }
  }
}

TEST(OccupancyLedger, RandomFamiliesAgreeWithBruteForce) {
  std::mt19937_64 rng(0x5eed);
  for (int rep = 0; rep < 300; ++rep) {
    const int n = 12;
    const std::size_t count = 2 + rng() % 24;
    std::vector<Subcube> family;
    for (std::size_t i = 0; i < count; ++i) {
      family.push_back(random_subcube(rng, n));
    }
    OccupancyLedger ledger(n);
    for (std::size_t i = 0; i < family.size(); ++i) {
      ledger.claim(1, family[i].prefix, family[i].mask,
                   static_cast<std::uint32_t>(i));
    }
    const OccupancyOutcome out = ledger.check(nullptr, 512);
    const bool expect_overlap = any_pair_overlaps(family);
    ASSERT_EQ(out.status == OccupancyStatus::kDoubleClaim, expect_overlap)
        << "rep=" << rep;
    if (expect_overlap) {
      // The witness must name two genuinely overlapping claims and
      // their exact intersection.
      ASSERT_LT(out.group_a, out.group_b);
      ASSERT_LT(out.group_b, family.size());
      const auto inter =
          subcube_intersection(family[out.group_a], family[out.group_b]);
      ASSERT_TRUE(inter.has_value());
      EXPECT_EQ(out.piece, *inter);
    }
  }
}

TEST(OccupancyLedger, OutcomeIsThreadCountIndependent) {
  // Verdict, witness, and budget diagnostics must be bit-for-bit the
  // serial ones for any pool — clean, colliding, and budget-starved.
  std::mt19937_64 rng(0xDEC0DE);
  WorkerPool pool(4);
  for (int rep = 0; rep < 50; ++rep) {
    const int n = 16;
    OccupancyLedger ledger(n);
    const std::size_t count = 2 + rng() % 64;
    for (std::size_t i = 0; i < count; ++i) {
      const Subcube s = random_subcube(rng, n);
      ledger.claim(1 + static_cast<int>(rng() % 3), s.prefix, s.mask,
                   static_cast<std::uint32_t>(i));
    }
    for (const std::uint64_t per_claim : {std::uint64_t{512}, std::uint64_t{0}}) {
      // Base 0 + per-claim 0 starves every bucket: the budget outcome
      // must be identical too (same family, same exhausted budget).
      for (const std::uint64_t base : {std::uint64_t{4096}, std::uint64_t{0}}) {
        const OccupancyOutcome serial = ledger.check(nullptr, per_claim, base);
        const OccupancyOutcome sharded = ledger.check(&pool, per_claim, base);
        ASSERT_EQ(serial.status, sharded.status)
            << "rep=" << rep << " per_claim=" << per_claim << " base=" << base;
        EXPECT_EQ(serial.family, sharded.family);
        EXPECT_EQ(serial.group_a, sharded.group_a);
        EXPECT_EQ(serial.group_b, sharded.group_b);
        EXPECT_EQ(serial.piece, sharded.piece);
        EXPECT_EQ(serial.budget, sharded.budget);
        if (serial.status == OccupancyStatus::kDisjoint) {
          EXPECT_EQ(serial.nodes, sharded.nodes);
        }
      }
    }
  }
}

TEST(OccupancyLedger, BudgetExhaustionIsExplicitAndDeterministic) {
  OccupancyLedger ledger(20);
  // Two overlapping claims, but a zero budget: the walk must refuse
  // rather than answer, and report the exhausted budget for the
  // diagnostics the validators embed in their error strings.
  ledger.claim(5, 0, mask_low(20), 0);
  ledger.claim(5, 0, 0, 1);
  const OccupancyOutcome out =
      ledger.check(nullptr, /*budget_per_claim=*/0, /*bucket_budget_base=*/0);
  ASSERT_EQ(out.status, OccupancyStatus::kBudgetExceeded);
  EXPECT_EQ(out.family, 5);
  EXPECT_EQ(out.budget, 0u);
  // With any sane budget the same ledger answers.
  EXPECT_EQ(ledger.check(nullptr, 512).status, OccupancyStatus::kDoubleClaim);
}

TEST(OccupancyLedger, ClearRecyclesAcrossRounds) {
  OccupancyLedger ledger(8);
  ledger.claim(1, 0, 0, 0);
  ledger.claim(1, 0, 0, 1);
  ASSERT_EQ(ledger.check(nullptr, 512).status, OccupancyStatus::kDoubleClaim);
  EXPECT_EQ(ledger.num_claims(), 2u);
  ledger.clear();
  EXPECT_EQ(ledger.num_claims(), 0u);
  ledger.claim(1, 0, 0, 0);
  EXPECT_EQ(ledger.check(nullptr, 512).status, OccupancyStatus::kDisjoint);
}

TEST(OccupancyLedger, BadDimensionThrowsInsteadOfAsserting) {
  for (const int n : {0, -1, kMaxCubeDim + 1}) {
    EXPECT_THROW(OccupancyLedger{n}, std::invalid_argument) << "n=" << n;
  }
  EXPECT_NO_THROW(OccupancyLedger{kMaxCubeDim});
}

TEST(OccupancyLedger, MalformedClaimThrowsInsteadOfAsserting) {
  // A key whose prefix pins a free dimension is caller input: it throws
  // in every build type and leaves the ledger as it was.
  OccupancyLedger ledger(8);
  ledger.claim(1, 0b0001, 0b0110, 0);
  try {
    ledger.claim(1, 0b0011, 0b0110, 1);
    ADD_FAILURE() << "malformed claim accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "OccupancyLedger::claim: prefix pins a free dimension of its mask");
  }
  EXPECT_EQ(ledger.num_claims(), 1u);
  EXPECT_EQ(ledger.check(nullptr, 512).status, OccupancyStatus::kDisjoint);
}

}  // namespace
}  // namespace shc
