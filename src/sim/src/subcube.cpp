#include "shc/sim/subcube.hpp"

#include <stdexcept>
#include <string>

#include "shc/bits/checked.hpp"
#include "shc/obs/recorder.hpp"
#include "shc/sim/worker_pool.hpp"

// The one ISA-cloned function: the frontier's whole coalesce step
// (SubcubeFrontier::insert, its slot-array probe inlined).  The library
// builds for baseline x86-64, where the probe's 64-bit compares stay
// scalar; cloning the step lets the compiler emit AVX-512 and AVX2
// copies beside the baseline one and pick between them when the program
// loads (an ifunc), with no build knob, no -march change and no
// hand-written SIMD.  The clones are named by ISA feature, not by
// `arch=`: a resolver that does not recognise the host's CPU model
// would fall back to the baseline copy, the slowest.  Toolchains
// without ifunc support (non-x86-64, non-ELF, non-glibc) get one plain
// copy, and so do ThreadSanitizer builds: TSan instruments the ifunc
// resolver, which the loader runs before the TSan runtime exists (the
// program crashes at start-up).
#if defined(__SANITIZE_THREAD__)
#define SHC_NO_ISA_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SHC_NO_ISA_CLONES
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && \
    defined(__has_attribute) && !defined(SHC_NO_ISA_CLONES)
#if __has_attribute(target_clones)
#define SHC_ISA_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef SHC_ISA_CLONES
#define SHC_ISA_CLONES
#endif

namespace shc {
namespace {

/// The clones live behind an internal name so that the public
/// SubcubeFrontier::insert declaration stays an ordinary member
/// function: clang wants the multiversioning attribute on every
/// declaration.
SHC_ISA_CLONES void insert_clones(SubcubeFrontier& frontier, Vertex p, Vertex M,
                                  std::uint64_t mult) {
  frontier.insert_portable(p, M, mult);
}

/// Open-addressing scratch for the lift-matching step, reset by
/// generation stamp instead of deallocation: canon_recurse matches the
/// two halves' outputs at every internal node, and a per-node
/// unordered_map was a hidden allocation in every divide step.  One
/// instance serves a whole canonical_reduce call — a child's use is
/// finished before its parent matches, and begin() bumping the
/// generation invalidates all previous entries for free.
class LiftScratch {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Starts a fresh match set sized for `need` keys.
  void begin(std::size_t need) {
    std::size_t cap = 16;
    while (cap < need * 2) cap <<= 1;
    if (cap > stamp_.size()) {
      stamp_.assign(cap, 0);
      key_.resize(cap);
      idx_.resize(cap);
      gen_ = 0;
    }
    mask_ = stamp_.size() - 1;
    ++gen_;
  }

  /// Registers key -> i; the first insertion of a key wins (matching
  /// unordered_map::emplace in the code this replaces).
  void insert(const WeightedSubcube& e, std::uint32_t i) {
    std::size_t j = hash(e) & mask_;
    for (;;) {
      if (stamp_[j] != gen_) {
        stamp_[j] = gen_;
        key_[j] = e;
        idx_[j] = i;
        return;
      }
      if (key_[j] == e) return;
      j = (j + 1) & mask_;
    }
  }

  [[nodiscard]] std::uint32_t find(const WeightedSubcube& e) const noexcept {
    std::size_t j = hash(e) & mask_;
    for (;;) {
      if (stamp_[j] != gen_) return kNone;
      if (key_[j] == e) return idx_[j];
      j = (j + 1) & mask_;
    }
  }

 private:
  [[nodiscard]] static std::size_t hash(const WeightedSubcube& e) noexcept {
    std::uint64_t h = detail::mix_u64(e.prefix);
    h = detail::mix_u64(h ^ e.mask);
    h = detail::mix_u64(h ^ e.mult);
    return static_cast<std::size_t>(h);
  }

  std::vector<std::uint64_t> stamp_;
  std::vector<WeightedSubcube> key_;
  std::vector<std::uint32_t> idx_;
  std::uint64_t gen_ = 0;
  std::size_t mask_ = 0;
};

/// Pool of output vectors for canon_recurse halves (same recycling
/// rationale as batch::IdVecPool).
class OutVecPool {
 public:
  [[nodiscard]] std::vector<WeightedSubcube> acquire() {
    if (pool_.empty()) return {};
    std::vector<WeightedSubcube> v = std::move(pool_.back());
    pool_.pop_back();
    v.clear();
    return v;
  }
  void release(std::vector<WeightedSubcube>&& v) {
    pool_.push_back(std::move(v));
  }

 private:
  std::vector<std::vector<WeightedSubcube>> pool_;
};

/// Recycled scratch shared across one canonical_reduce call: batch
/// halves, half outputs, the lift matcher, and the lifted flags.  The
/// recursion is at most 64 deep, so each pool holds a handful of
/// buffers where the previous code allocated two vectors and a hash map
/// per node.
struct CanonCtx {
  batch::BatchPool batches;
  OutVecPool outs;
  LiftScratch lift;
  std::vector<unsigned char> lifted;
};

/// The join step of the canonical-form recursion: entries present
/// identically in both halves of branch bit `b` lift back to a free
/// dimension; everything else passes through pinned.  Output order is
/// fixed (hi entries first, then unlifted lo entries) so the result is
/// a pure function of the two halves.
void lift_join(const std::vector<WeightedSubcube>& lo_out,
               const std::vector<WeightedSubcube>& hi_out, Vertex b,
               std::vector<WeightedSubcube>& out, LiftScratch& lift,
               std::vector<unsigned char>& lifted) {
  lift.begin(lo_out.size());
  for (std::size_t i = 0; i < lo_out.size(); ++i) {
    lift.insert(lo_out[i], static_cast<std::uint32_t>(i));
  }
  lifted.assign(lo_out.size(), 0);
  for (const WeightedSubcube& e : hi_out) {
    WeightedSubcube key = e;
    key.prefix &= ~b;
    const std::uint32_t li = lift.find(key);
    if (li != LiftScratch::kNone && !lifted[li]) {
      lifted[li] = 1;
      key.mask |= b;
      out.push_back(key);
    } else {
      out.push_back(e);  // pinned 1
    }
  }
  for (std::size_t i = 0; i < lo_out.size(); ++i) {
    if (!lifted[i]) out.push_back(lo_out[i]);  // pinned 0
  }
}

/// Recursive normal form; see the header.  `remaining` masks the
/// dimensions not yet branched or skipped.  Returned entries carry
/// absolute prefixes (branch bits included by the caller's half).
bool canon_recurse(SubcubeBatch& entries, Vertex remaining,
                   std::uint64_t& budget, std::vector<WeightedSubcube>& out,
                   CanonCtx& ctx) {
  const std::size_t count = entries.size();
  if (count == 0) return true;
  if (budget < count) return false;
  budget -= count;

  // Dimensions some entry pins; everything else stays free in the result.
  const batch::MaskScan scan =
      batch::scan_all(entries.prefix.data(), entries.mask.data(), count);
  const Vertex pinned_any = remaining & ~scan.mask_and;

  if (pinned_any == 0) {
    // Every entry covers the whole remaining subspace: identical
    // regions, multiplicities add.
    WeightedSubcube merged{entries.prefix[0], remaining, 0};
    for (std::size_t i = 0; i < count; ++i) {
      // Saturate instead of wrapping: any mult != 1 fails the endgame
      // check, and a saturated value keeps that property.
      if (!checked_acc_u64(merged.mult, entries.mult[i])) {
        merged.mult = ~std::uint64_t{0};
      }
    }
    // The prefix outside `remaining` is shared by construction, and no
    // entry pins a remaining dimension here.
    merged.prefix &= ~remaining;
    out.push_back(merged);
    return true;
  }

  const int d = 63 - __builtin_clzll(pinned_any);
  const Vertex b = Vertex{1} << d;
  SubcubeBatch lo = ctx.batches.acquire();
  SubcubeBatch hi = ctx.batches.acquire();
  batch::partition_weighted(entries, b, lo, hi);
  entries.clear();

  std::vector<WeightedSubcube> lo_out = ctx.outs.acquire();
  std::vector<WeightedSubcube> hi_out = ctx.outs.acquire();
  const bool ok = canon_recurse(lo, remaining & ~b, budget, lo_out, ctx) &&
                  canon_recurse(hi, remaining & ~b, budget, hi_out, ctx);
  ctx.batches.release(std::move(lo));
  ctx.batches.release(std::move(hi));
  if (ok) {
    // Safe to reuse the shared scratch: every descendant's lift
    // finished before this one begins.
    lift_join(lo_out, hi_out, b, out, ctx.lift, ctx.lifted);
  }
  ctx.outs.release(std::move(lo_out));
  ctx.outs.release(std::move(hi_out));
  return ok;
}

/// canonical_reduce_tree farms the recursion's own top levels over the
/// pool.  Inputs at or below kTreeChunk fall through to the plain
/// serial reduce; larger inputs split the top kTopSplitDepth branch
/// levels serially (at most 2^kTopSplitDepth farmed subtrees).  Both
/// are pure functions of the input, never of the pool or thread count.
constexpr std::size_t kTreeChunk = 4096;
constexpr int kTopSplitDepth = 6;

/// One node of the serially-descended top of the reduce recursion.
/// Children are created after their parent, so a reverse index walk
/// visits children before parents at join time.
struct TopNode {
  Vertex b = 0;            // branch bit (internal nodes only)
  int lo = -1, hi = -1;    // child indices; -1 on leaves
  int task = -1;           // farmed-subtree index; -1 otherwise
  std::vector<WeightedSubcube> out;
};

/// A frontier subtree handed to the worker pool.
struct TreeTask {
  SubcubeBatch batch;
  Vertex remaining = 0;
  std::vector<WeightedSubcube> out;
  std::uint64_t consumed = 0;
  bool ok = true;
};

}  // namespace

void SubcubeFrontier::insert(Vertex p, Vertex M, std::uint64_t mult) {
  insert_clones(*this, p, M, mult);
}

void SubcubeFrontier::throw_pinned_free_dim(const char* what) {
  throw std::invalid_argument(std::string(what) +
                              ": prefix pins a free dimension of its mask");
}

std::optional<std::vector<WeightedSubcube>> canonical_reduce(
    std::vector<WeightedSubcube> entries, int n, std::uint64_t budget) {
  detail::require_cube_dim("canonical_reduce", n);
  CanonCtx ctx;
  SubcubeBatch batch;
  batch.reserve(entries.size());
  for (const WeightedSubcube& e : entries) {
    batch.push_back(e.prefix, e.mask, e.mult);
  }
  entries.clear();
  entries.shrink_to_fit();
  std::vector<WeightedSubcube> out;
  if (!canon_recurse(batch, mask_low(n), budget, out, ctx)) return std::nullopt;
  return out;
}

std::optional<std::vector<WeightedSubcube>> canonical_reduce_tree(
    std::vector<WeightedSubcube> entries, int n, std::uint64_t budget,
    WorkerPool* pool, std::uint64_t* tree_tasks) {
  detail::require_cube_dim("canonical_reduce_tree", n);
  if (pool == nullptr || pool->workers() <= 1 ||
      entries.size() <= kTreeChunk) {
    return canonical_reduce(std::move(entries), n, budget);
  }
  SHC_TRACE_SCOPE("reduce_tree");

  SubcubeBatch root;
  root.reserve(entries.size());
  for (const WeightedSubcube& e : entries) {
    root.push_back(e.prefix, e.mask, e.mult);
  }
  entries.clear();
  entries.shrink_to_fit();

  // Serial descent of the recursion's own top levels: identical branch
  // choice and identical per-node budget accounting to canon_recurse,
  // so the recursion tree — and with it both the output and the refusal
  // predicate "total processed entries > budget" — matches the serial
  // reduce exactly.  Each frontier subtree becomes an independent task.
  std::vector<TopNode> nodes;
  std::vector<TreeTask> tasks;
  CanonCtx ctx;  // lift scratch for the serial joins below
  bool fail = false;

  const auto descend = [&](auto&& self, SubcubeBatch batch, Vertex remaining,
                           int depth) -> int {
    const int idx = static_cast<int>(nodes.size());
    nodes.emplace_back();
    if (fail || batch.size() == 0) return idx;
    const std::size_t count = batch.size();
    if (depth >= kTopSplitDepth || count <= kTreeChunk) {
      nodes[idx].task = static_cast<int>(tasks.size());
      tasks.push_back(TreeTask{std::move(batch), remaining, {}, 0, true});
      return idx;
    }
    if (budget < count) {
      fail = true;
      return idx;
    }
    budget -= count;
    const batch::MaskScan scan =
        batch::scan_all(batch.prefix.data(), batch.mask.data(), count);
    const Vertex pinned_any = remaining & ~scan.mask_and;
    if (pinned_any == 0) {
      WeightedSubcube merged{batch.prefix[0], remaining, 0};
      for (std::size_t i = 0; i < count; ++i) {
        if (!checked_acc_u64(merged.mult, batch.mult[i])) {
          merged.mult = ~std::uint64_t{0};
        }
      }
      merged.prefix &= ~remaining;
      nodes[idx].out.push_back(merged);
      return idx;
    }
    const int d = 63 - __builtin_clzll(pinned_any);
    const Vertex b = Vertex{1} << d;
    SubcubeBatch lo;
    SubcubeBatch hi;
    batch::partition_weighted(batch, b, lo, hi);
    batch.clear();
    const int li = self(self, std::move(lo), remaining & ~b, depth + 1);
    const int hi_i = self(self, std::move(hi), remaining & ~b, depth + 1);
    nodes[idx].b = b;
    nodes[idx].lo = li;
    nodes[idx].hi = hi_i;
    return idx;
  };
  descend(descend, std::move(root), mask_low(n), 0);
  if (fail) return std::nullopt;

  // Farm the frontier subtrees.  Each task runs against a private copy
  // of the budget left after the descent; the exact shared-counter
  // semantics are restored afterwards by summing actual consumption, so
  // parallelism never changes which inputs are refused — a task can
  // merely overshoot by up to one subtree of work before the sum check
  // catches it.
  if (tree_tasks != nullptr) saturating_acc_u64(*tree_tasks, tasks.size());
  const std::uint64_t task_budget = budget;
  const auto run_task = [&](int j) {
    TreeTask& t = tasks[static_cast<std::size_t>(j)];
    static thread_local CanonCtx tls_ctx;
    std::uint64_t local = task_budget;
    t.ok = canon_recurse(t.batch, t.remaining, local, t.out, tls_ctx);
    t.consumed = task_budget - local;
  };
  pool->run(static_cast<int>(tasks.size()), run_task);
  for (const TreeTask& t : tasks) {
    if (!t.ok || t.consumed > budget) return std::nullopt;
    budget -= t.consumed;
  }

  // Join bottom-up: children were created after their parents, so a
  // reverse index walk lifts each pair before its parent is consumed.
  for (std::size_t i = nodes.size(); i-- > 0;) {
    TopNode& nd = nodes[i];
    if (nd.task >= 0) {
      nd.out = std::move(tasks[static_cast<std::size_t>(nd.task)].out);
      continue;
    }
    if (nd.lo < 0) continue;  // empty or fully-merged leaf
    lift_join(nodes[static_cast<std::size_t>(nd.lo)].out,
              nodes[static_cast<std::size_t>(nd.hi)].out, nd.b, nd.out,
              ctx.lift, ctx.lifted);
    nodes[static_cast<std::size_t>(nd.lo)].out = {};
    nodes[static_cast<std::size_t>(nd.hi)].out = {};
  }
  return std::move(nodes.front().out);
}

}  // namespace shc
