// Persistent worker pool for the per-round parallel kernels.
//
// The parallel validator and congestion analyzer used to spawn fresh
// std::threads for every round — for a 2^n-call broadcast that is n
// spawn/join barriers of pure overhead on top of the actual sharded
// work.  WorkerPool keeps `threads - 1` workers parked on a condition
// variable across rounds; run() publishes a task generation, the caller
// participates as a worker itself, and everyone pulls job indices from a
// shared atomic counter.  Job index w executes exactly once per run(),
// so callers that shard deterministically by index (chunked call ranges,
// edge-hash shards) produce bit-for-bit the same result as the
// spawn-per-round code they replace — the existing serial/parallel
// parity suites enforce this.
//
// Exceptions: a task that throws does not take the process down with
// std::terminate.  The first exception (any thread) is captured, the
// rest of the generation drains without executing further jobs, and
// run() rethrows it to the caller once every job index is accounted
// for — the pool stays fully reusable for the next generation.  Which
// job's exception wins is first-capture order (not deterministic across
// runs); the production kernels never throw, so this path exists for
// robustness, not for verdicts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "shc/bits/audit.hpp"
#include "shc/obs/recorder.hpp"

namespace shc {

class WorkerPool {
 public:
  /// A pool of `threads` total workers (the caller counts as one; only
  /// threads - 1 are spawned).  threads <= 1 means fully inline runs.
  explicit WorkerPool(int threads) {
    const int helpers = threads > 1 ? threads - 1 : 0;
    total_ = helpers + 1;
    threads_.reserve(static_cast<std::size_t>(helpers));
    for (int t = 0; t < helpers; ++t) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& th : threads_) th.join();
  }

  /// Total workers including the caller.
  [[nodiscard]] int workers() const noexcept { return total_; }

  /// Executes fn(j) for every j in [0, jobs) exactly once, across the
  /// pool; the caller participates and the call returns when all jobs
  /// finished.  If any job throws, the first captured exception is
  /// rethrown here after the generation drains (remaining unclaimed
  /// jobs are skipped); the pool remains reusable.  Not reentrant.
  void run(int jobs, const std::function<void(int)>& fn) {
    if (jobs <= 0) return;
    if (threads_.empty() || jobs == 1) {
      for (int j = 0; j < jobs; ++j) fn(j);
      return;
    }
    generation(jobs, fn, nullptr);
  }

  /// Runs `mine` on the calling thread while one pooled worker runs
  /// `theirs`, and returns when both finished.  Unlike run(), which
  /// thread runs which job is fixed, so each job's allocations stay in
  /// its thread's malloc arena round after round (a structure that
  /// grew on alternating threads would leave freed blocks in both).
  /// If no worker has taken `theirs` by the time `mine` returns, the
  /// caller runs it.  Exceptions as in run().  Not reentrant.
  void run_beside(const std::function<void()>& mine,
                  const std::function<void()>& theirs) {
    if (threads_.empty()) {
      mine();
      theirs();
      return;
    }
    generation(1, [&theirs](int) { theirs(); }, &mine);
  }

 private:
  /// One published generation of `jobs` jobs; the caller first runs
  /// `mine` (when given), then pulls jobs like any worker.
  void generation(int jobs, const std::function<void(int)>& fn,
                  const std::function<void()>* mine) {
    // Per-generation flight-recorder probe: one "pool_gen" scope (value
    // = job count) plus the generation's summed per-job busy time, both
    // recorded from the calling thread (run() is not reentrant, so that
    // is the engine thread — deterministic event order).  Job latencies
    // are fully accumulated before run() observes done_ == jobs: each
    // busy_ns_ add happens before that job's done_ release-increment.
    obs::TraceRecorder* const rec = obs::TraceRecorder::active();
    std::uint64_t rec_seq = 0;
    std::uint64_t rec_t0 = 0;
    std::uint64_t rec_busy0 = 0;
    if (rec != nullptr) {
      rec_seq = rec->next_seq();
      rec_t0 = obs::trace_now_ns();
      rec_busy0 = busy_ns_.load(std::memory_order_relaxed);
    }
    {
      std::unique_lock<std::mutex> lock(m_);
      // Stragglers of the previous generation must have left pull_jobs
      // before the shared counters are recycled (they drain quickly:
      // the old counter is exhausted, so each performs one fetch_add
      // and exits).
      cv_idle_.wait(lock, [&] { return active_ == 0; });
      task_ = &fn;
      jobs_ = jobs;
      next_.store(0, std::memory_order_relaxed);
      done_.store(0, std::memory_order_relaxed);
      failed_.store(false, std::memory_order_relaxed);
      error_ = nullptr;
      SHC_AUDIT_CHECK(generation_ + 1 > generation_,
                      "WorkerPool generation counter must not wrap");
      ++generation_;
    }
    cv_work_.notify_all();
    if (mine != nullptr) run_timed(*mine);
    pull_jobs(fn, jobs);
    std::unique_lock<std::mutex> lock(m_);
    cv_done_.wait(lock, [&] { return done_.load(std::memory_order_acquire) >= jobs_; });
    SHC_AUDIT_CHECK(done_.load(std::memory_order_relaxed) == jobs_,
                    "WorkerPool generation must account every job exactly once");
    task_ = nullptr;
    if (rec != nullptr) {
      rec->scope_event("pool_gen", obs::kMainTrack, rec_seq, rec_t0,
                       obs::trace_now_ns() - rec_t0,
                       static_cast<std::uint64_t>(jobs + (mine != nullptr ? 1 : 0)));
      rec->counter("pool_busy_ns",
                   busy_ns_.load(std::memory_order_relaxed) - rec_busy0);
    }
    if (error_) {
      std::exception_ptr err = std::exchange(error_, nullptr);
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

  /// Runs one job body, adding its time to busy_ns_ while tracing and
  /// capturing (first wins) instead of propagating its exception.
  template <class Body>
  void run_timed(Body&& body) {
    const bool timed = obs::TraceRecorder::active() != nullptr;
    const std::uint64_t t0 = timed ? obs::trace_now_ns() : 0;
    try {
      body();
    } catch (...) {
      failed_.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(m_);
      if (!error_) error_ = std::current_exception();
    }
    if (timed) {
      busy_ns_.fetch_add(obs::trace_now_ns() - t0, std::memory_order_relaxed);
    }
  }

  void pull_jobs(const std::function<void(int)>& fn, int jobs) {
    for (;;) {
      const int j = next_.fetch_add(1, std::memory_order_relaxed);
      if (j >= jobs) return;
      if (!failed_.load(std::memory_order_relaxed)) run_timed([&] { fn(j); });
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 >= jobs) {
        std::lock_guard<std::mutex> lock(m_);
        cv_done_.notify_all();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* task = nullptr;
      int jobs = 0;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        SHC_AUDIT_CHECK(generation_ > seen,
                        "WorkerPool generations must be observed monotonically");
        seen = generation_;
        task = task_;
        jobs = jobs_;
        ++active_;  // counted before the lock drops: run() can't recycle
      }
      if (task) pull_jobs(*task, jobs);
      {
        std::lock_guard<std::mutex> lock(m_);
        SHC_AUDIT_CHECK(active_ > 0,
                        "WorkerPool active-worker count must stay balanced");
        if (--active_ == 0) cv_idle_.notify_one();
      }
    }
  }

  std::vector<std::thread> threads_;
  int total_ = 1;
  std::mutex m_;
  std::condition_variable cv_work_, cv_done_, cv_idle_;
  const std::function<void(int)>* task_ = nullptr;
  int jobs_ = 0;
  int active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;  ///< first task exception of the generation
  std::atomic<int> next_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> busy_ns_{0};  ///< traced job time (recorder on)
};

}  // namespace shc
