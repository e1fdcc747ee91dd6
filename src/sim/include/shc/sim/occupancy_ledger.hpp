// Dyadic occupancy ledger — sub-quadratic disjointness certification for
// families of subcubes.
//
// The symbolic validators must prove, per round, that the edge subcubes
// (and, under the Section-5 vertex-disjoint model, the vertex subcubes)
// claimed by concurrent call groups are pairwise disjoint.  Enumerating
// candidate *pairs* of groups is quadratic in the number of concurrent
// groups: the paper's *designed* n = 63 spec (m = 10) produces rounds of
// ~8.4 M groups.  The ledger replaces candidate pairs with dyadic
// *consumption* — the same argument the caller-tiling check already uses
// for frontier/ledger key matching:
//
//   * every per-hop edge subcube is claimed into the family of its flip
//     dimension (edges of different dimensions can never coincide, so
//     the families are independent shards);
//   * within a family, claims are consumed into buckets of an
//     open-addressing ledger (detail::PrefixTable) keyed by the bits
//     that every claim pins but whose values differ — two overlapping
//     subcubes agree on all commonly pinned bits, so bucketing on any
//     subset of them is exact and costs O(1) per claim;
//   * each bucket is then resolved by a dyadic split walk: branch on a
//     pinned dimension (preferring dims pinned by every claim with
//     differing values — a zero-duplication split), duplicate claims
//     that leave the dimension free into both halves, and stop at nodes
//     where no claim pins anything — two claims meeting in such a leaf is a
//     *double-claim*, an exact collision witness (the claiming group
//     indices plus the shared subcube).  Disjoint families never
//     enumerate a single pair, so the cost is O(total pieces · n)
//     instead of O(candidate pairs · pattern length).
//
// Every bucket carries a deterministic budget proportional to its claim
// count (a hard ceiling on the dyadic duplication factor), so adversarially
// interleaved families fail explicitly — and the verdict, witness, and
// budget diagnostics are identical for every thread count: buckets are
// formed serially in claim order, walked independently (sharded over the
// persistent WorkerPool when one is supplied), and the outcome with the
// smallest bucket index wins, exactly as the serial loop picks it.
//
// Claims are stored structure-of-arrays per family (contiguous prefix /
// mask / group arrays) and the walk's divide step runs as batch kernels
// over them with recycled per-thread index scratch — see
// subcube_batch.hpp for the layout rationale.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "shc/bits/audit.hpp"
#include "shc/bits/checked.hpp"
#include "shc/bits/vertex.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/subcube.hpp"
#include "shc/sim/subcube_batch.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {

/// Verdict of one OccupancyLedger::check() run.
enum class OccupancyStatus {
  kDisjoint,        ///< no two claims share a vertex
  kDoubleClaim,     ///< a collision witness was found
  kBudgetExceeded,  ///< a bucket walk outran its deterministic budget
};

/// Result of a check, including the exact witness on kDoubleClaim.
struct OccupancyOutcome {
  OccupancyStatus status = OccupancyStatus::kDisjoint;
  int family = 0;            ///< family id of the witness / budget hit
  std::uint32_t group_a = 0; ///< first claimant (claim insertion order)
  std::uint32_t group_b = 0; ///< second claimant
  Subcube piece;             ///< a subcube both groups claim (witness)
  std::uint64_t budget = 0;  ///< the exhausted bucket budget (diagnostics)
  std::uint64_t nodes = 0;   ///< dyadic walk visits (valid when kDisjoint)
};

/// Multiset-of-claims disjointness checker.  Families are independent
/// shards (claims in different families are never compared); within the
/// validators, edge claims use their flip dimension as the family id and
/// vertex claims use n + 1, so edge collisions are discovered before
/// vertex collisions.
class OccupancyLedger {
 public:
  /// Throws std::invalid_argument unless 1 <= n <= kMaxCubeDim.
  explicit OccupancyLedger(int n) : n_(detail::require_cube_dim("OccupancyLedger", n)) {}

  /// Registers the subcube (prefix, mask) as claimed by `group` in
  /// `family` (0 <= family; families are checked in ascending order).
  /// Throws std::invalid_argument when prefix pins a free dimension of
  /// mask.
  void claim(int family, Vertex prefix, Vertex mask, std::uint32_t group) {
    if ((prefix & mask) != 0) [[unlikely]] {
      throw std::invalid_argument(
          "OccupancyLedger::claim: prefix pins a free dimension of its mask");
    }
    if (families_.size() <= static_cast<std::size_t>(family)) {
      families_.resize(static_cast<std::size_t>(family) + 1);
    }
    FamilyClaims& f = families_[static_cast<std::size_t>(family)];
    f.prefix.push_back(prefix);
    f.mask.push_back(mask);
    f.group.push_back(group);
    ++claims_;
  }

  [[nodiscard]] std::uint64_t num_claims() const noexcept { return claims_; }

  /// Drops all claims but keeps the family/bucket capacity for the next
  /// round (the validators recycle one ledger across rounds).
  void clear() {
    for (auto& f : families_) {
      f.prefix.clear();
      f.mask.clear();
      f.group.clear();
    }
    claims_ = 0;
  }

  /// Resolves every family.  Deterministic for any `pool`/thread count:
  /// bucket formation is serial, each bucket's walk is independent with
  /// a saturating budget of `bucket_budget_base + budget_per_claim *
  /// bucket_claims`, and the outcome with the smallest (family, bucket)
  /// index wins.
  [[nodiscard]] OccupancyOutcome check(
      WorkerPool* pool, std::uint64_t budget_per_claim,
      std::uint64_t bucket_budget_base = 4096) const {
    SHC_TRACE_SCOPE("ledger_check");
    SHC_TRACE_COUNTER("ledger_claims", claims_);
    // ---- bucket formation (serial, deterministic) --------------------
    struct Bucket {
      int family = 0;
      std::vector<std::uint32_t> ids;  ///< indices into families_[family]
    };
    std::vector<Bucket> buckets;
    detail::PrefixTable keys;
    for (std::size_t fam = 0; fam < families_.size(); ++fam) {
      const FamilyClaims& claims = families_[fam];
      if (claims.size() < 2) continue;
      // Bits every claim pins with differing values: bucketing on them
      // is exact (overlapping claims agree on all commonly pinned bits).
      const batch::MaskScan scan =
          batch::scan_all(claims.prefix.data(), claims.mask.data(),
                          claims.size());
      Vertex varying =
          mask_low(n_) & ~scan.mask_or & (scan.pref_or ^ scan.pref_and);
      Vertex bucket_bits = 0;
      for (int b = 0; b < kMaxBucketBits && varying != 0; ++b) {
        const Vertex bit = varying & (~varying + 1);
        bucket_bits |= bit;
        varying &= ~bit;
      }
      keys.reset();  // recycled across families (capacity kept)
      for (std::size_t i = 0; i < claims.size(); ++i) {
        const Vertex key = claims.prefix[i] & bucket_bits;
        std::size_t at;
        if (const std::uint64_t* v = keys.find(key)) {
          at = static_cast<std::size_t>(*v);
        } else {
          at = buckets.size();
          keys.add(key, static_cast<std::uint64_t>(at));
          buckets.push_back({static_cast<int>(fam), {}});
        }
        buckets[at].ids.push_back(static_cast<std::uint32_t>(i));
      }
#if SHC_AUDIT_ENABLED
      // Bucket partition exactness: every claim of the family must land
      // in exactly one bucket — the walks see each claim once, or the
      // disjointness verdict is void.
      std::uint64_t bucketed = 0;
      for (const Bucket& bk : buckets) {
        if (bk.family == static_cast<int>(fam)) bucketed += bk.ids.size();
      }
      SHC_AUDIT_CHECK(bucketed == claims.size(),
                      "OccupancyLedger buckets must partition the family's "
                      "claims exactly");
#endif
    }

    // ---- bucket walks (sharded; smallest bucket index wins) ----------
    std::atomic<std::uint64_t> total_nodes{0};
    std::mutex best_m;
    std::size_t best_index = buckets.size();
    OccupancyOutcome best;
    auto walk_bucket = [&](std::size_t bi) {
      // Per-thread recycled index scratch: a walk is at most 64 deep
      // but the designed specs resolve millions of buckets per round,
      // so per-node (or even per-bucket) vectors were pure churn.
      static thread_local batch::ScratchPool<std::vector<std::uint32_t>> scratch;
      Bucket& bucket = buckets[bi];
      const FamilyClaims& claims =
          families_[static_cast<std::size_t>(bucket.family)];
      // Saturating: a wrapped sum would shrink the budget the knob raises.
      std::uint64_t budget = 0;
      if (!checked_mul_u64(budget_per_claim, bucket.ids.size(), budget) ||
          !checked_acc_u64(budget, bucket_budget_base)) {
        budget = ~std::uint64_t{0};
      }
      DyadicWalk walk{claims.prefix.data(), claims.mask.data(), scratch,
                      budget, 0, false, false, 0, 0};
      walk.run(bucket.ids, mask_low(n_));
      total_nodes.fetch_add(walk.nodes, std::memory_order_relaxed);
      if (!walk.found && !walk.budget_hit) return false;
      OccupancyOutcome out;
      if (walk.budget_hit) {
        out.status = OccupancyStatus::kBudgetExceeded;
        out.family = bucket.family;
        out.budget = budget;
      } else {
        out.status = OccupancyStatus::kDoubleClaim;
        out.family = bucket.family;
        out.group_a = claims.group[walk.hit_a];
        out.group_b = claims.group[walk.hit_b];
        const auto piece = subcube_intersection(
            {claims.prefix[walk.hit_a], claims.mask[walk.hit_a]},
            {claims.prefix[walk.hit_b], claims.mask[walk.hit_b]});
        assert(piece.has_value());  // shc-lint: allow(assert-guard) — the walk met both claims in one leaf
        SHC_AUDIT_CHECK(
            piece.has_value() &&
                subcubes_overlap(
                    {claims.prefix[walk.hit_a], claims.mask[walk.hit_a]},
                    {claims.prefix[walk.hit_b], claims.mask[walk.hit_b]}),
            "OccupancyLedger double-claim witnesses must name two "
            "genuinely overlapping claims");
        if (piece) {
          SHC_AUDIT_CHECK(
              subcube_contains({claims.prefix[walk.hit_a],
                                claims.mask[walk.hit_a]},
                               *piece) &&
                  subcube_contains({claims.prefix[walk.hit_b],
                                    claims.mask[walk.hit_b]},
                                   *piece),
              "OccupancyLedger witness piece must be contained in both "
              "claims");
          out.piece = *piece;
        }
      }
      std::lock_guard<std::mutex> lock(best_m);
      if (bi < best_index) {
        best_index = bi;
        best = out;
      }
      return true;
    };

    if (pool == nullptr || pool->workers() <= 1 || buckets.size() < 2 ||
        buckets.size() >
            static_cast<std::size_t>(std::numeric_limits<int>::max())) {
      for (std::size_t bi = 0; bi < buckets.size(); ++bi) {
        if (walk_bucket(bi)) break;  // serial: the first outcome is final
      }
    } else {
      pool->run(static_cast<int>(buckets.size()),
                [&](int bi) { (void)walk_bucket(static_cast<std::size_t>(bi)); });
    }
    if (best_index < buckets.size()) return best;
    OccupancyOutcome ok;
    ok.nodes = total_nodes.load(std::memory_order_relaxed);
    return ok;
  }

 private:
  static constexpr int kMaxBucketBits = 16;

  /// One family's claims, structure-of-arrays: parallel prefix / mask /
  /// group arrays (the batch kernels' native layout).
  struct FamilyClaims {
    std::vector<Vertex> prefix;
    std::vector<Vertex> mask;
    std::vector<std::uint32_t> group;

    [[nodiscard]] std::size_t size() const noexcept { return prefix.size(); }
  };

  /// Divide-on-pinned-dimension descent over one bucket.  A node where
  /// no claim pins a remaining dimension holds claims that all cover the
  /// node's whole subspace: two of them is a double-claim.  Claims free
  /// on the branch dimension are split into both halves (the dyadic
  /// split); partition order is stable (batch::partition_ids), so
  /// hit_a/hit_b are the claims with the smallest insertion indices —
  /// deterministic everywhere.
  struct DyadicWalk {
    const Vertex* cprefix;
    const Vertex* cmask;
    batch::ScratchPool<std::vector<std::uint32_t>>& scratch;
    std::uint64_t budget;
    std::uint64_t nodes;
    bool found;
    bool budget_hit;
    std::uint32_t hit_a, hit_b;

    void run(std::vector<std::uint32_t>& ids, Vertex remaining) {
      if (found || budget_hit || ids.size() <= 1) return;
      if (budget < ids.size()) {
        budget_hit = true;
        return;
      }
      budget -= ids.size();
      nodes += ids.size();

      const batch::MaskScan scan =
          batch::scan_ids(ids.data(), ids.size(), cprefix, cmask);
      Vertex pinned_any = remaining & ~scan.mask_and;
      // Dims every claim pins to the same value carry no overlap
      // information — drop them from `remaining` without spending a
      // branch.
      const Vertex pinned_all = remaining & ~scan.mask_or;
      const Vertex diff = (scan.pref_or ^ scan.pref_and) & remaining;
      remaining &= ~(pinned_all & ~diff);
      pinned_any &= remaining;
      if (pinned_any == 0) {
        hit_a = ids[0];
        hit_b = ids[1];
        found = true;
        return;
      }
      // Branch preference: a dim pinned by *every* claim with differing
      // values splits with zero duplication (for dyadic tilings this
      // mirrors the tiling's own generation tree, making acceptance
      // linear); next, a dim whose pinned values disagree; highest
      // pinned dim as the last resort.
      Vertex cand = pinned_all & diff;
      if (cand == 0) cand = pinned_any & diff;
      if (cand == 0) cand = pinned_any;
      const int d = 63 - __builtin_clzll(cand);
      const Vertex b = Vertex{1} << d;
      std::vector<std::uint32_t> lo = scratch.acquire();
      std::vector<std::uint32_t> hi = scratch.acquire();
      batch::partition_ids(ids.data(), ids.size(), cprefix, cmask, b, lo, hi);
      ids.clear();
      run(lo, remaining & ~b);
      run(hi, remaining & ~b);
      scratch.release(std::move(lo));
      scratch.release(std::move(hi));
    }
  };

  int n_;
  std::vector<FamilyClaims> families_;
  std::uint64_t claims_ = 0;
};

}  // namespace shc
