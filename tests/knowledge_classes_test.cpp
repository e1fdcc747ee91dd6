// Unit tests for the knowledge-class partition — the state layer of the
// symbolic gossip engine.  The load-bearing property: after any
// sequence of endpoint-disjoint exchange rounds, expanding the class
// containing v (its relative offset cover translated by v) must equal
// the exact per-vertex token set a brute-force tracker computes.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "shc/sim/knowledge_classes.hpp"
#include "shc/sim/symbolic_schedule.hpp"

namespace shc {
namespace {

/// One exchange: every vertex v of `callers` exchanges with v ^ delta.
struct Exchange {
  Subcube callers;
  Vertex delta = 0;
};

/// Feeds `xs` to the partition as one recorded round: each exchange is
/// a call group with pattern {0, delta} (apply_round reads the last
/// pattern vertex as the delta).
std::string run_round(KnowledgeClassPartition& p, const std::vector<Exchange>& xs) {
  SymbolicRound round;
  for (const Exchange& x : xs) {
    const CallGroup g{x.callers.prefix, x.callers.mask,
                      std::uint64_t{1} << weight(x.callers.mask)};
    const std::vector<Vertex> pattern{0, x.delta};
    EXPECT_TRUE(round.append(g, pattern));
  }
  return p.apply_round(round);
}

/// Expands the relative knowledge of the class containing v into the
/// absolute token set {v ^ x : x covered}.
std::set<Vertex> absolute_knowledge(const KnowledgeClassPartition& p, Vertex v) {
  std::set<Vertex> out;
  for (const WeightedSubcube& e : p.knowledge_of(v).entries) {
    EXPECT_EQ(e.mult, 1u) << "knowledge covers must stay multiplicity-one";
    Vertex a = 0;
    for (;;) {
      out.insert(v ^ (e.prefix | a));
      if (a == e.mask) break;
      a = (a - e.mask) & e.mask;
    }
  }
  return out;
}

/// Brute-force token tracker: know[v] as a set of vertices.
struct Brute {
  explicit Brute(int n) {
    know.resize(static_cast<std::size_t>(cube_order(n)));
    for (Vertex v = 0; v < know.size(); ++v) know[v].insert(v);
  }
  void apply(const std::vector<Exchange>& xs) {
    for (const Exchange& x : xs) {
      Vertex a = 0;
      for (;;) {
        const Vertex u = x.callers.prefix | a;
        const Vertex w = u ^ x.delta;
        std::set<Vertex> merged = know[u];
        merged.insert(know[w].begin(), know[w].end());
        know[u] = merged;
        know[w] = std::move(merged);
        if (a == x.callers.mask) break;
        a = (a - x.callers.mask) & x.callers.mask;
      }
    }
  }
  std::vector<std::set<Vertex>> know;
};

void expect_agrees(const KnowledgeClassPartition& p, const Brute& brute, int n,
                   const char* what) {
  for (Vertex v = 0; v < cube_order(n); ++v) {
    ASSERT_EQ(absolute_knowledge(p, v), brute.know[v])
        << what << ": vertex " << v;
  }
}

TEST(KnowledgeClasses, InitialStateIsOneClassKnowingItself) {
  KnowledgeClassPartition p(4);
  EXPECT_EQ(p.num_classes(), 1u);
  EXPECT_FALSE(p.all_complete());
  const GossipKnowledge& k = p.knowledge_of(7);
  ASSERT_EQ(k.entries.size(), 1u);
  EXPECT_EQ(k.entries[0], (WeightedSubcube{0, 0, 1}));
  EXPECT_EQ(k.count, 1u);
  EXPECT_EQ(absolute_knowledge(p, 7), std::set<Vertex>{7});
}

TEST(KnowledgeClasses, DimensionExchangeStaysAtOneClassAndCompletes) {
  const int n = 6;
  KnowledgeClassPartition p(n);
  Brute brute(n);
  for (Dim i = n; i >= 1; --i) {
    const std::vector<Exchange> round = {
        {Subcube{0, mask_low(n) & ~dim_bit(i)}, dim_bit(i)}};
    ASSERT_EQ(run_round(p, round), "");
    brute.apply(round);
    // The split halves re-coalesce: equal knowledge, sibling cubes.
    EXPECT_EQ(p.num_classes(), 1u) << "after dim " << i;
    expect_agrees(p, brute, n, "dimension exchange");
  }
  EXPECT_TRUE(p.all_complete());
  // peak_classes samples round boundaries, after the equal-knowledge
  // coalescing pass — the mid-round split halves are never visible.
  EXPECT_EQ(p.stats().peak_classes, 1u);
  EXPECT_TRUE(p.stats().known_pairs_exact);
  EXPECT_EQ(p.stats().known_pairs, cube_order(n) * cube_order(n));
}

TEST(KnowledgeClasses, OverlappingKnowledgeDeduplicates) {
  // 0<->1, then 0<->2 and 1<->3 (so {0,2} and {1,3} both know {0,1}
  // plus their own), then 0<->1 again: the partners' sets overlap in
  // {0,1} and the union must not double-count.
  const int n = 2;
  KnowledgeClassPartition p(n);
  Brute brute(n);
  const std::vector<std::vector<Exchange>> rounds = {
      {{Subcube{0, 0}, 1}},
      {{Subcube{0, 0}, 2}, {Subcube{1, 0}, 2}},
      {{Subcube{0, 0}, 1}},
  };
  for (const auto& r : rounds) {
    ASSERT_EQ(run_round(p, r), "");
    brute.apply(r);
    expect_agrees(p, brute, n, "overlap dedup");
  }
  EXPECT_FALSE(p.all_complete());  // vertices 2 and 3 never met
  EXPECT_EQ(absolute_knowledge(p, 0), (std::set<Vertex>{0, 1, 2, 3}));
  EXPECT_EQ(absolute_knowledge(p, 2), (std::set<Vertex>{0, 1, 2}));
}

TEST(KnowledgeClasses, RandomSingletonExchangesMatchBruteForce) {
  const int n = 5;
  const std::uint64_t order = cube_order(n);
  std::mt19937_64 rng(0xC0FFEE);
  for (int trial = 0; trial < 8; ++trial) {
    KnowledgeClassPartition p(n);
    Brute brute(n);
    for (int round = 0; round < 10; ++round) {
      // Random endpoint-disjoint partial pairing with arbitrary
      // (multi-bit) deltas — the knowledge layer does not require
      // adjacency, only disjoint endpoints.
      std::vector<bool> used(order, false);
      std::vector<Exchange> xs;
      for (int attempt = 0; attempt < 12; ++attempt) {
        const Vertex u = rng() % order;
        const Vertex d = 1 + rng() % (order - 1);
        if (used[u] || used[u ^ d]) continue;
        used[u] = used[u ^ d] = true;
        xs.push_back({Subcube{u, 0}, d});
      }
      ASSERT_EQ(run_round(p, xs), "");
      brute.apply(xs);
    }
    expect_agrees(p, brute, n, "random singleton rounds");
  }
}

TEST(KnowledgeClasses, SubcubeBatchedEqualsSingletonExpansion) {
  const int n = 4;
  // One batched exchange: callers = the bit4=0, bit1=0 quarter, delta
  // flips bits 4 and 1 — versus the same four exchanges as singletons.
  const Subcube callers{0, 0b0110};
  const Vertex delta = 0b1001;
  KnowledgeClassPartition batched(n), singles(n);
  ASSERT_EQ(run_round(batched, {{callers, delta}}), "");
  std::vector<Exchange> expanded;
  Vertex a = 0;
  for (;;) {
    expanded.push_back({Subcube{callers.prefix | a, 0}, delta});
    if (a == callers.mask) break;
    a = (a - callers.mask) & callers.mask;
  }
  ASSERT_EQ(run_round(singles, expanded), "");
  for (Vertex v = 0; v < cube_order(n); ++v) {
    EXPECT_EQ(absolute_knowledge(batched, v), absolute_knowledge(singles, v))
        << "vertex " << v;
  }
}

TEST(KnowledgeClasses, MalformedExchangesRejected) {
  KnowledgeClassPartition p(4);
  EXPECT_EQ(run_round(p, {{Subcube{0, 0}, 0}}),
            "exchange delta is zero (self-exchange)");
  EXPECT_EQ(run_round(p, {{Subcube{1, 1}, 2}}),
            "exchange caller prefix overlaps its free mask");
  EXPECT_EQ(run_round(p, {{Subcube{0, 0}, 1 << 4}}), "exchange out of range");
  EXPECT_EQ(run_round(p, {{Subcube{0, 0b0010}, 0b0010}}),
            "exchange delta intersects the caller subcube's free dimensions");
  // A clean round still works afterwards (failed rounds left no trace).
  EXPECT_EQ(run_round(p, {{Subcube{0, 0b0111}, 0b1000}}), "");
}

TEST(KnowledgeClasses, OverlappingEndpointsSurfaceInTheSelfCheck) {
  // Two exchanges sharing vertex 1 violate the endpoint-disjointness
  // precondition; the partition's tiling self-check must refuse rather
  // than silently corrupt.
  KnowledgeClassPartition p(3);
  const std::string err =
      run_round(p, {{Subcube{0, 0}, 1}, {Subcube{1, 0}, 2}});
  EXPECT_FALSE(err.empty());
}

TEST(KnowledgeClasses, ClassCapFailsExplicitly) {
  KnowledgeClassOptions opt;
  opt.max_classes = 2;
  KnowledgeClassPartition p(4, opt);
  // Singleton exchanges fragment the partition past the tiny cap.
  const std::string err = run_round(p, 
      {{Subcube{0, 0}, 1}, {Subcube{4, 0}, 3}, {Subcube{8, 0}, 5}});
  EXPECT_NE(err.find("class cap"), std::string::npos) << err;
}

TEST(KnowledgeClasses, GuardsThrowInsteadOfAsserting) {
  // Bad dimensions and out-of-cube vertices are caller input: they throw
  // in every build type instead of tripping (or, under NDEBUG, skipping)
  // an assert.
  for (const int n : {0, -1, kMaxCubeDim + 1}) {
    EXPECT_THROW(KnowledgeClassPartition{n}, std::invalid_argument) << "n=" << n;
  }
  const KnowledgeClassPartition p(4);
  EXPECT_NO_THROW((void)p.knowledge_of(15));
  EXPECT_THROW((void)p.knowledge_of(16), std::out_of_range);
  EXPECT_THROW((void)p.knowledge_of(~Vertex{0}), std::out_of_range);
}

}  // namespace
}  // namespace shc
