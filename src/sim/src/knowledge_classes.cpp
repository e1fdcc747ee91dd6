#include "shc/sim/knowledge_classes.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "shc/bits/audit.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/subcube_batch.hpp"
#include "shc/sim/symbolic_schedule.hpp"
#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

/// Node budget per canonical_reduce (knowledge unions, class merges).
constexpr std::uint64_t kReduceBudget = std::uint64_t{1} << 28;
/// Node budget per refinement sweep and per round of subcube
/// subtractions (union dedup + class remainders).
constexpr std::uint64_t kSubtractBudget = std::uint64_t{1} << 32;

#if SHC_AUDIT_ENABLED
/// Audit contract for every minted knowledge set: entries canonically
/// sorted by (mask, prefix), multiplicity one, well-formed, and pairwise
/// disjoint.  The quadratic disjointness sweep is capped so audit builds
/// stay usable on the parity suites; order and multiplicity are always
/// checked in full.
void audit_knowledge(const GossipKnowledge& k) {
  for (std::size_t i = 0; i < k.entries.size(); ++i) {
    const WeightedSubcube& e = k.entries[i];
    SHC_AUDIT_CHECK(e.mult == 1,
                    "GossipKnowledge entries must carry multiplicity one "
                    "(knowledge is a set)");
    SHC_AUDIT_CHECK((e.prefix & e.mask) == 0,
                    "GossipKnowledge entries must be well-formed subcubes");
    if (i > 0) {
      const WeightedSubcube& p = k.entries[i - 1];
      SHC_AUDIT_CHECK(
          p.mask < e.mask || (p.mask == e.mask && p.prefix < e.prefix),
          "GossipKnowledge entries must be in canonical (mask, prefix) "
          "order");
    }
  }
  if (k.entries.size() <= 1024) {
    for (std::size_t i = 0; i < k.entries.size(); ++i) {
      for (std::size_t j = i + 1; j < k.entries.size(); ++j) {
        SHC_AUDIT_CHECK(
            !subcubes_overlap({k.entries[i].prefix, k.entries[i].mask},
                              {k.entries[j].prefix, k.entries[j].mask}),
            "GossipKnowledge entries must be pairwise disjoint");
      }
    }
  }
}
#endif

/// Sorted canonical entry order: content equality is vector equality.
void sort_entries(std::vector<WeightedSubcube>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const WeightedSubcube& a, const WeightedSubcube& b) {
              if (a.mask != b.mask) return a.mask < b.mask;
              return a.prefix < b.prefix;
            });
}

std::uint64_t content_sig(const std::vector<WeightedSubcube>& entries,
                          std::uint64_t count) {
  std::uint64_t h = detail::mix_u64(count ^ 0x6b6e6f776c656467ULL);
  for (const WeightedSubcube& e : entries) {
    h = detail::mix_u64(h ^ e.prefix);
    h = detail::mix_u64(h ^ e.mask);
    h = detail::mix_u64(h ^ e.mult);
  }
  return h;
}

/// region minus a *disjoint* subcube family — one
/// divide-on-pinned-dimension sweep over SoA halves
/// (batch::SubtractSweep, the batched form of the recursion shape
/// shared with canonical_reduce and the occupancy ledger): uncovered
/// fragments are appended to `out` with multiplicity one.  Linear-ish
/// in |family| x n rather than quadratic in the family size, with
/// recycled scratch instead of two vector allocations per divide step.
/// Budget semantics are node-exact with the scalar recursion this
/// replaces.  Returns false on budget exhaustion.
bool subtract_family(batch::SubtractSweep& sweep, const Subcube& region,
                     SubcubeSoA family, std::uint64_t& budget,
                     std::vector<WeightedSubcube>& out) {
  return sweep.run(region.prefix, region.mask, std::move(family), budget,
                   [&out](Vertex p, Vertex m) { out.push_back({p, m, 1}); });
}

/// Pieces of `s` not covered by the disjoint canonical cover `cover`,
/// appended to `out`.  This is the set-union dedup: overlapping
/// knowledge must not inflate multiplicities (knowledge is a set, the
/// frontier a multiset).  Returns false on budget exhaustion.
bool subtract_covered(batch::SubtractSweep& sweep, const Subcube& s,
                      const std::vector<WeightedSubcube>& cover,
                      std::uint64_t& budget,
                      std::vector<WeightedSubcube>& out) {
  SubcubeSoA overlapping = sweep.acquire();
  for (const WeightedSubcube& e : cover) {
    if (subcubes_overlap(s, Subcube{e.prefix, e.mask})) {
      overlapping.push_back(e.prefix, e.mask);
    }
  }
  return subtract_family(sweep, s, std::move(overlapping), budget, out);
}

/// One (query, class, piece) overlap: piece = query ∩ a leaf region
/// fully covered by the class.
struct OverlapHit {
  std::uint32_t query = 0;
  std::uint32_t cls = 0;
  Subcube piece;
};

/// Bipartite partition refinement: for a *disjoint* class family tiling
/// the cube and an arbitrary query family, emits every (query, class)
/// overlap as leaf pieces, in one divide-on-pinned-dimension sweep over
/// both families at once.  Replaces per-query index probing, whose
/// queries x classes product dominated the profile.  A (query, class)
/// pair may emit as several pieces (when sibling classes force deeper
/// splits); the pieces tile the overlap exactly, which is all the
/// refinement step needs — finer classes re-coalesce in the merge pass.
class PartitionRefiner {
 public:
  PartitionRefiner(const std::vector<Subcube>& queries,
                   const std::vector<Subcube>& classes, std::uint64_t budget)
      : queries_(queries), classes_(classes), budget_(budget) {
    // SoA mirrors of both families: the divide steps below run as batch
    // kernels over contiguous prefix/mask arrays (one conversion pass
    // against millions of partition visits).
    qsoa_.reserve(queries.size());
    for (const Subcube& s : queries) qsoa_.push_back(s.prefix, s.mask);
    csoa_.reserve(classes.size());
    for (const Subcube& s : classes) csoa_.push_back(s.prefix, s.mask);
  }

  /// False on budget exhaustion.  Pre: every class overlaps `region`
  /// (the partition tiles the cube) and every query lies inside it.
  [[nodiscard]] bool run(const Subcube& region, std::vector<OverlapHit>& out) {
    std::vector<std::uint32_t> qs(queries_.size());
    std::vector<std::uint32_t> cs(classes_.size());
    for (std::uint32_t i = 0; i < qs.size(); ++i) qs[i] = i;
    for (std::uint32_t i = 0; i < cs.size(); ++i) cs[i] = i;
    return recurse(region, qs, cs, out);
  }

 private:
  // Invariant: every listed query and class overlaps `region`.  The id
  // halves come from a recycled pool — the recursion is at most 64 deep
  // but visits millions of nodes, so per-node vectors were pure churn.
  bool recurse(const Subcube& region, std::vector<std::uint32_t>& qs,
               std::vector<std::uint32_t>& cs, std::vector<OverlapHit>& out) {
    if (qs.empty() || cs.empty()) return true;
    const std::uint64_t work = qs.size() + cs.size();
    if (budget_ < work) return false;
    budget_ -= work;

    const batch::MaskScan cls_scan =
        batch::scan_ids(cs.data(), cs.size(), csoa_.prefix.data(),
                        csoa_.mask.data());
    const Vertex pinned_any = region.mask & ~cls_scan.mask_and;
    if (pinned_any == 0 ||
        (cs.size() == 1 && subcube_contains(classes_[cs[0]], region))) {
      // A class spanning every remaining free dim while overlapping the
      // region contains it, and disjointness allows only one such.
      for (const std::uint32_t q : qs) {
        out.push_back({q, cs[0], *subcube_intersection(queries_[q], region)});
      }
      return true;
    }
    const int d = 63 - __builtin_clzll(pinned_any);
    const Vertex b = Vertex{1} << d;
    std::vector<std::uint32_t> q_lo = pool_.acquire();
    std::vector<std::uint32_t> q_hi = pool_.acquire();
    std::vector<std::uint32_t> c_lo = pool_.acquire();
    std::vector<std::uint32_t> c_hi = pool_.acquire();
    batch::partition_ids(qs.data(), qs.size(), qsoa_.prefix.data(),
                         qsoa_.mask.data(), b, q_lo, q_hi);
    batch::partition_ids(cs.data(), cs.size(), csoa_.prefix.data(),
                         csoa_.mask.data(), b, c_lo, c_hi);
    qs.clear();
    cs.clear();
    const Subcube lo{region.prefix, region.mask & ~b};
    const Subcube hi{region.prefix | b, region.mask & ~b};
    const bool ok = recurse(lo, q_lo, c_lo, out) && recurse(hi, q_hi, c_hi, out);
    pool_.release(std::move(q_lo));
    pool_.release(std::move(q_hi));
    pool_.release(std::move(c_lo));
    pool_.release(std::move(c_hi));
    return ok;
  }

  const std::vector<Subcube>& queries_;
  const std::vector<Subcube>& classes_;
  SubcubeSoA qsoa_;
  SubcubeSoA csoa_;
  batch::ScratchPool<std::vector<std::uint32_t>> pool_;
  std::uint64_t budget_;
};

/// Entry-wise XOR translate of a knowledge set by `delta`.  Translation
/// preserves masks, disjointness, canonical structure, and count; only
/// the sorted order (and hence sig) needs recomputing.  Returns the
/// input pointer when the translate is the identity (every entry frees
/// all of delta's bits).
GossipKnowledgePtr translate_knowledge(const GossipKnowledgePtr& k, Vertex delta) {
  bool identity = true;
  for (const WeightedSubcube& e : k->entries) {
    if ((delta & ~e.mask) != 0) {
      identity = false;
      break;
    }
  }
  if (identity) return k;
  auto out = std::make_shared<GossipKnowledge>();
  out->entries.reserve(k->entries.size());
  for (const WeightedSubcube& e : k->entries) {
    out->entries.push_back({(e.prefix ^ delta) & ~e.mask, e.mask, e.mult});
  }
  sort_entries(out->entries);
  out->count = k->count;
  out->sig = content_sig(out->entries, out->count);
#if SHC_AUDIT_ENABLED
  audit_knowledge(*out);
#endif
  return out;
}

}  // namespace

KnowledgeClassPartition::KnowledgeClassPartition(int n, KnowledgeClassOptions opt)
    : n_(detail::require_cube_dim("KnowledgeClassPartition", n)), opt_(opt) {
  auto self_only = std::make_shared<GossipKnowledge>();
  self_only->entries.push_back({0, 0, 1});  // offset 0: every vertex knows itself
  self_only->count = 1;
  self_only->sig = content_sig(self_only->entries, self_only->count);
  classes_.push_back({Subcube{0, mask_low(n)}, std::move(self_only)});
  refresh_stats();
}

std::string KnowledgeClassPartition::apply_round(const SymbolicRound& round) {
  const std::size_t count = round.groups.size();
  // Group g's callers exchange along its pattern's last vertex.
  const auto delta_of = [&round](std::size_t g) {
    const std::span<const Vertex> pattern = round.pattern_of_group(g);
    return pattern.empty() ? Vertex{0} : pattern.back();
  };
  const Vertex cube = mask_low(n_);
  for (std::size_t g = 0; g < count; ++g) {
    const Subcube callers = round.groups[g].callers();
    const Vertex delta = delta_of(g);
    if (delta == 0) return "exchange delta is zero (self-exchange)";
    if ((callers.prefix & callers.mask) != 0) {
      return "exchange caller prefix overlaps its free mask";
    }
    if (((callers.prefix | callers.mask | delta) & ~cube) != 0) {
      return "exchange out of range";
    }
    if ((delta & callers.mask) != 0) {
      return "exchange delta intersects the caller subcube's free dimensions";
    }
  }
  if (count == 0) return {};

  // 1. Refine: cut every exchange along class boundaries on both sides
  //    of the pairing, producing caller-side pieces whose caller class
  //    and partner class are each unique.  Two bipartite sweeps: caller
  //    cubes against the partition, then the translated pieces against
  //    it again.
  const Subcube whole{0, cube};
  std::vector<Subcube> class_cubes;
  class_cubes.reserve(classes_.size());
  for (const ClassEntry& c : classes_) class_cubes.push_back(c.cube);

  std::vector<Subcube> caller_cubes;
  caller_cubes.reserve(count);
  for (const CallGroup& g : round.groups) caller_cubes.push_back(g.callers());
  std::vector<OverlapHit> caller_hits;
  {
    SHC_TRACE_SCOPE("kc_refine");
    PartitionRefiner refine(caller_cubes, class_cubes, kSubtractBudget);
    if (!refine.run(whole, caller_hits)) {
      return "knowledge refinement budget exceeded";
    }
  }

  std::vector<Subcube> partner_cubes;
  partner_cubes.reserve(caller_hits.size());
  for (const OverlapHit& h : caller_hits) {
    const Vertex delta = delta_of(h.query);
    partner_cubes.push_back(Subcube{h.piece.prefix ^ delta, h.piece.mask});
  }
  std::vector<OverlapHit> partner_hits;
  {
    SHC_TRACE_SCOPE("kc_refine");
    PartitionRefiner refine(partner_cubes, class_cubes, kSubtractBudget);
    if (!refine.run(whole, partner_hits)) {
      return "knowledge refinement budget exceeded";
    }
  }

  struct Triple {
    Subcube piece;  // callers; partners are piece ^ delta
    std::uint32_t ca = 0, cb = 0;
    Vertex delta = 0;
  };
  std::vector<Triple> triples;
  triples.reserve(partner_hits.size());
  for (const OverlapHit& h : partner_hits) {
    const OverlapHit& first = caller_hits[h.query];
    const Vertex delta = delta_of(first.query);
    triples.push_back(
        {Subcube{h.piece.prefix ^ delta, h.piece.mask}, first.cls, h.cls, delta});
  }

  // 2. Union per distinct (caller class, partner class, delta) — the
  //    translation-keyed cache is what keeps a round sweeping millions
  //    of groups between two classes at O(1) union computations.
  struct UnionResult {
    GossipKnowledgePtr caller_side;    // K_ca ∪ (K_cb ^ delta)
    GossipKnowledgePtr receiver_side;  // the same set translated by delta
  };
  struct CacheKey {
    std::uint32_t ca, cb;
    Vertex delta;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(detail::mix_u64(
          (static_cast<std::uint64_t>(k.ca) << 32 | k.cb) ^ detail::mix_u64(k.delta)));
    }
  };
  std::unordered_map<CacheKey, UnionResult, CacheKeyHash> cache;
  std::uint64_t subtract_budget = kSubtractBudget;
  batch::SubtractSweep sweep;

  auto compute_union = [&](const Triple& t) -> std::pair<UnionResult, std::string> {
    const GossipKnowledgePtr& ka = classes_[t.ca].know;
    const GossipKnowledgePtr& kb = classes_[t.cb].know;
    saturating_acc_u64(stats_.unions_computed, 1);
    // Fresh offsets: (kb ^ delta) minus what ka already covers.
    std::vector<WeightedSubcube> fresh;
    for (const WeightedSubcube& e : kb->entries) {
      const Subcube moved{(e.prefix ^ t.delta) & ~e.mask, e.mask};
      if (!subtract_covered(sweep, moved, ka->entries, subtract_budget, fresh)) {
        return {{}, "knowledge subtraction budget exceeded"};
      }
    }
    UnionResult r;
    if (fresh.empty()) {
      // Partner knowledge already known: share the caller set unchanged.
      r.caller_side = ka;
    } else {
      std::vector<WeightedSubcube> raw = ka->entries;
      raw.insert(raw.end(), fresh.begin(), fresh.end());
      auto canon = canonical_reduce_tree(std::move(raw), n_, kReduceBudget,
                                         pool_, &stats_.reduce_tree_tasks);
      if (!canon) return {{}, "knowledge union reduction budget exceeded"};
      auto merged = std::make_shared<GossipKnowledge>();
      merged->entries = std::move(*canon);
      sort_entries(merged->entries);
      std::uint64_t count = ka->count;
      for (const WeightedSubcube& e : fresh) {
        std::uint64_t size = 0;
        if (!checked_shift_u64(static_cast<unsigned>(weight(e.mask)), size) ||
            !checked_acc_u64(count, size)) {
          return {{}, "knowledge count overflowed 64 bits"};
        }
      }
      for (const WeightedSubcube& e : merged->entries) {
        if (e.mult != 1) {
          return {{}, "knowledge union lost disjointness (internal error)"};
        }
      }
      merged->count = count;
      merged->sig = content_sig(merged->entries, merged->count);
#if SHC_AUDIT_ENABLED
      audit_knowledge(*merged);
#endif
      r.caller_side = std::move(merged);
    }
    r.receiver_side = translate_knowledge(r.caller_side, t.delta);
    return {std::move(r), {}};
  };

  // 3. New classes: one pair per triple, plus the untouched remainders
  //    of every partially-consumed old class.
  std::vector<ClassEntry> next;
  {
    SHC_TRACE_SCOPE("kc_union");
    next.reserve(classes_.size() + 2 * triples.size());
    std::vector<SubcubeSoA> consumed(classes_.size());
    for (const Triple& t : triples) {
      auto [it, fresh] = cache.try_emplace({t.ca, t.cb, t.delta});
      if (fresh) {
        saturating_acc_u64(stats_.union_cache_misses, 1);
        auto [result, err] = compute_union(t);
        if (!err.empty()) return err;
        it->second = std::move(result);
      } else {
        saturating_acc_u64(stats_.union_cache_hits, 1);
      }
      const Subcube partner{t.piece.prefix ^ t.delta, t.piece.mask};
      next.push_back({t.piece, it->second.caller_side, /*fresh=*/true});
      next.push_back({partner, it->second.receiver_side, /*fresh=*/true});
      consumed[t.ca].push_back(t.piece.prefix, t.piece.mask);
      consumed[t.cb].push_back(partner.prefix, partner.mask);
    }
    for (std::size_t i = 0; i < classes_.size(); ++i) {
      if (consumed[i].empty()) {
        next.push_back(classes_[i]);
        continue;
      }
      std::vector<WeightedSubcube> rem;
      if (!subtract_family(sweep, classes_[i].cube, std::move(consumed[i]),
                           subtract_budget, rem)) {
        return "knowledge subtraction budget exceeded";
      }
      for (const WeightedSubcube& r : rem) {
        next.push_back({Subcube{r.prefix, r.mask}, classes_[i].know, /*fresh=*/true});
      }
    }
  }

  // 4. Coalesce classes whose knowledge came out identical.
  {
    SHC_TRACE_SCOPE("kc_merge");
    if (std::string err = merge_equal_classes(next); !err.empty()) return err;
  }
  classes_ = std::move(next);

  // 5. Caps and the self-check: the classes must still tile Q_n exactly
  //    (this also catches violated endpoint-disjointness preconditions —
  //    overlapping exchanges double-consume and the sum drifts).
  if (classes_.size() > opt_.max_classes) {
    return "knowledge class cap exceeded (" + std::to_string(classes_.size()) +
           " > " + std::to_string(opt_.max_classes) + ")";
  }
  std::uint64_t covered = 0;
  for (const ClassEntry& c : classes_) {
    std::uint64_t size = 0;
    if (!checked_shift_u64(static_cast<unsigned>(c.cube.dim()), size) ||
        !checked_acc_u64(covered, size)) {
      return "knowledge coverage count overflowed 64 bits";
    }
  }
  if (covered != cube_order(n_)) {
    return "knowledge classes no longer tile the cube (overlapping exchange "
           "endpoints or internal error)";
  }
#if SHC_AUDIT_ENABLED
  // Tiling is size-exact above; the audit adds the pairwise half of the
  // contract (disjoint class cubes), capped to keep parity suites fast.
  if (classes_.size() <= 512) {
    for (std::size_t i = 0; i < classes_.size(); ++i) {
      SHC_AUDIT_CHECK((classes_[i].cube.prefix & classes_[i].cube.mask) == 0,
                      "knowledge class cubes must be well-formed subcubes");
      for (std::size_t j = i + 1; j < classes_.size(); ++j) {
        SHC_AUDIT_CHECK(!subcubes_overlap(classes_[i].cube, classes_[j].cube),
                        "knowledge class cubes must tile Q_n disjointly");
      }
    }
  }
#endif
  refresh_stats();
  return {};
}

std::string KnowledgeClassPartition::merge_equal_classes(
    std::vector<ClassEntry>& next) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(next.size());
  for (std::size_t i = 0; i < next.size(); ++i) {
    buckets[next[i].know->sig].push_back(i);
  }

  // Emission plan: pass-through entries interleaved with per-group
  // reduce tasks, recorded in bucket/group order.  The reductions
  // themselves can then run in any order (farmed over the pool below)
  // while the assembled output — and the first error — stays identical
  // to the serial sweep, because assembly walks the plan in order.
  struct Emit {
    std::size_t cls = SIZE_MAX;   ///< pass-through: index into `next`
    std::size_t task = SIZE_MAX;  ///< or: index into `tasks`
  };
  struct MergeTask {
    GossipKnowledgePtr know;
    std::vector<WeightedSubcube> cubes;
    std::optional<std::vector<WeightedSubcube>> reduced;
  };
  std::vector<Emit> plan;
  plan.reserve(next.size());
  std::vector<MergeTask> tasks;

  for (auto& [sig, members] : buckets) {
    // Buckets of settled classes only (nothing created or re-cut this
    // round) are already in their reduced form from the round that made
    // them — passing them through keeps the per-round merge cost
    // proportional to the round's activity, not the class plateau.
    bool any_fresh = false;
    for (const std::size_t i : members) {
      if (next[i].fresh) {
        any_fresh = true;
        break;
      }
    }
    if (!any_fresh) {
      for (const std::size_t i : members) plan.push_back({i, SIZE_MAX});
      continue;
    }
    // Group by actual content within the sig bucket — a hash collision
    // must never merge classes with different knowledge.
    std::vector<std::size_t> group_rep;           // index of each group's head
    std::vector<std::vector<WeightedSubcube>> group_cubes;
    for (const std::size_t i : members) {
      const GossipKnowledge& k = *next[i].know;
      std::size_t g = group_rep.size();
      for (std::size_t j = 0; j < group_rep.size(); ++j) {
        const GossipKnowledge& rep = *next[group_rep[j]].know;
        if (next[group_rep[j]].know == next[i].know ||
            (rep.count == k.count && rep.entries == k.entries)) {
          g = j;
          break;
        }
      }
      if (g == group_rep.size()) {
        group_rep.push_back(i);
        group_cubes.emplace_back();
      }
      group_cubes[g].push_back({next[i].cube.prefix, next[i].cube.mask, 1});
    }
    for (std::size_t g = 0; g < group_rep.size(); ++g) {
      MergeTask t;
      t.know = next[group_rep[g]].know;
      if (group_cubes[g].size() == 1) {
        t.reduced = std::move(group_cubes[g]);  // nothing to coalesce
      } else {
        t.cubes = std::move(group_cubes[g]);
      }
      plan.push_back({SIZE_MAX, tasks.size()});
      tasks.push_back(std::move(t));
    }
  }

  // The re-coalesce reductions, farmed over the pool when there are
  // several (each task carries its own fresh reduce budget, so the
  // tasks are fully independent).  With a single heavy task the
  // parallelism moves inside canonical_reduce_tree instead — WorkerPool
  // runs are not reentrant, so it is one level or the other.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].reduced) pending.push_back(i);
  }
  const auto reduce_task = [&](int j) {
    MergeTask& t = tasks[pending[static_cast<std::size_t>(j)]];
    // Farmed tasks run on worker threads with the tree path disabled
    // (no reentrancy), so they also skip the shared task counter; the
    // single-task path runs on the engine thread and may count.
    const bool farmed = pending.size() > 1;
    t.reduced = canonical_reduce_tree(
        std::move(t.cubes), n_, kReduceBudget, farmed ? nullptr : pool_,
        farmed ? nullptr : &stats_.reduce_tree_tasks);
  };
  if (pool_ != nullptr && pool_->workers() > 1 && pending.size() > 1) {
    pool_->run(static_cast<int>(pending.size()), reduce_task);
  } else {
    for (std::size_t j = 0; j < pending.size(); ++j) {
      reduce_task(static_cast<int>(j));
    }
  }

  std::vector<ClassEntry> out;
  out.reserve(next.size());
  for (const Emit& e : plan) {
    if (e.task == SIZE_MAX) {
      out.push_back(next[e.cls]);
      continue;
    }
    MergeTask& t = tasks[e.task];
    if (!t.reduced) return "class merge reduction budget exceeded";
    for (const WeightedSubcube& w : *t.reduced) {
      if (w.mult != 1) {
        return "knowledge classes overlap (overlapping exchange endpoints "
               "or internal error)";
      }
      out.push_back({Subcube{w.prefix, w.mask}, t.know, /*fresh=*/false});
    }
  }
  next = std::move(out);
  return {};
}

void KnowledgeClassPartition::refresh_stats() {
  stats_.classes = classes_.size();
  stats_.peak_classes = std::max(stats_.peak_classes, stats_.classes);
  std::uint64_t subcubes = 0;
  std::uint64_t pairs = 0;
  bool pairs_exact = true;
  std::unordered_set<const GossipKnowledge*> seen;
  for (const ClassEntry& c : classes_) {
    std::uint64_t size = 0;
    std::uint64_t product = 0;
    if (!checked_shift_u64(static_cast<unsigned>(c.cube.dim()), size) ||
        !checked_mul_u64(size, c.know->count, product) ||
        !checked_acc_u64(pairs, product)) {
      pairs = ~std::uint64_t{0};  // saturate, flagged below
      pairs_exact = false;
    }
    if (seen.insert(c.know.get()).second) {
      subcubes += c.know->entries.size();
    }
  }
  stats_.known_pairs = pairs;
  stats_.known_pairs_exact = stats_.known_pairs_exact && pairs_exact;
  stats_.peak_knowledge_subcubes = std::max(stats_.peak_knowledge_subcubes, subcubes);
}

bool KnowledgeClassPartition::all_complete() const noexcept {
  for (const ClassEntry& c : classes_) {
    if (!c.know->complete(n_)) return false;
  }
  return true;
}

const GossipKnowledge& KnowledgeClassPartition::knowledge_of(Vertex v) const {
  for (const ClassEntry& c : classes_) {
    if (c.cube.contains_vertex(v)) return *c.know;
  }
  throw std::out_of_range("knowledge_of: vertex " + std::to_string(v) +
                          " outside the " + std::to_string(n_) + "-cube");
}

}  // namespace shc
