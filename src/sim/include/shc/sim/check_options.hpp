#pragma once
// Shared knobs of the symbolic certification engines, and the one pool
// every engine runs its checks on.
//
// CommonCheckOptions is the single home of the sampling, ledger-budget
// and threading knobs; shc_lint's duplicate-knob rule forbids
// re-declaring them elsewhere in src/.  Settable fields: gossip
// (SymbolicGossipOptions, an alias) has the five below; broadcast
// (SymbolicCheckOptions, which inherits them) adds max_frontier_subcubes.
//
// `pool` lends a persistent WorkerPool (the certification server reuses
// one across queries); CheckPool is the one place that turns (pool,
// threads) into the pool an engine runs on, for both symbolic
// validators and the streaming one.  Reports are bit-for-bit identical
// for every thread count and for borrowed vs. owned pools.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "shc/sim/worker_pool.hpp"

namespace shc {

/// Largest worker count any engine entry accepts.  Each worker is an
/// operating-system thread, so an unchecked count from a request is a
/// way to exhaust the process; the cap is far above any useful value
/// for these kernels.
inline constexpr int kMaxCheckThreads = 256;

/// The thread-count guard of the engine entry points, applied before
/// any WorkerPool is built: throws std::invalid_argument unless
/// 1 <= threads <= kMaxCheckThreads.  `what` names the entry and the
/// knob, e.g. "certify_broadcast_symbolic: threads".
inline void require_check_threads(const std::string& what, int threads) {
  if (threads <= 0) {
    throw std::invalid_argument(what + " must be >= 1 (got " +
                                std::to_string(threads) + ")");
  }
  if (threads > kMaxCheckThreads) {
    throw std::invalid_argument(what + " must be <= " +
                                std::to_string(kMaxCheckThreads) + " (got " +
                                std::to_string(threads) + ")");
  }
}

/// Seed of the sampled replay's generator.  Fixed, so a report is a
/// function of the schedule and the options alone.
inline constexpr std::uint64_t kSampleSeed = 0x5eedULL;

/// Knobs shared by every symbolic check engine (all have safe defaults;
/// caps make the engines fail explicitly instead of thrashing on
/// adversarial input).  SymbolicCheckOptions inherits it;
/// SymbolicGossipOptions is this type.
struct CommonCheckOptions {
  /// Groups sampled per round for concrete replay through the exact
  /// serial kernel (0 disables sampling).
  std::uint64_t sample_groups_per_round = 4;
  /// Concrete calls/exchanges expanded per sampled group.
  std::uint64_t sample_calls_per_group = 4;

  /// Budget of the dyadic occupancy ledger (occupancy_ledger.hpp), the
  /// one proof of per-round concurrent disjointness: cost O(total
  /// pieces * n), which is what certifies the paper's designed n = 63
  /// (m = 10) construction.  Each bucket's budget is
  /// ledger_budget_per_claim * (bucket claims + 8) — deterministic,
  /// thread-count independent.  The designed specs stay under 16 visits
  /// per claim; the default leaves an order of magnitude of headroom.
  std::uint64_t ledger_budget_per_claim = 512;

  /// Workers of the persistent WorkerPool the engine runs its checks
  /// on (the broadcast validator runs each round's checks on one worker
  /// beside its frontier insert and shards its endgame; the gossip
  /// validator shards its ledger walks and class reductions).  1 (the
  /// default) runs fully inline.  The verdict, report, and error
  /// strings are thread-count independent:
  /// per-entry and per-bucket budgets are deterministic and the failure
  /// with the smallest index wins, exactly as the serial loop picks it.
  /// At most kMaxCheckThreads.  Ignored when `pool` is set.
  int threads = 1;

  /// Optional borrowed WorkerPool.  When non-null the validator runs
  /// its checks on this pool instead of constructing one from
  /// `threads`; the caller keeps ownership and must keep the pool alive
  /// for the validator's lifetime.  Lets a long-lived server reuse one
  /// pool across queries.  Null (the default): an owned pool iff
  /// threads > 1.
  WorkerPool* pool = nullptr;
};

/// The pool an engine runs its checks on: `lent` when the caller lends
/// one, else an owned pool iff threads > 1, else none (every check runs
/// inline).  Without a lent pool, require_check_threads(what, threads)
/// runs first, so a bad count throws before any worker starts.
class CheckPool {
 public:
  CheckPool(WorkerPool* lent, int threads, const char* what) : pool_(lent) {
    if (lent != nullptr) return;
    require_check_threads(what, threads);
    if (threads > 1) {
      owned_ = std::make_unique<WorkerPool>(threads);
      pool_ = owned_.get();
    }
  }

  [[nodiscard]] WorkerPool* get() const noexcept { return pool_; }

 private:
  std::unique_ptr<WorkerPool> owned_;
  WorkerPool* pool_;
};

}  // namespace shc
