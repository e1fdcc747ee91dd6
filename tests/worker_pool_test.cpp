// WorkerPool stress and exception-propagation suite.
//
// The pool shards every per-round kernel of the streaming and symbolic
// validators; its exactly-once job accounting and generation recycling
// are correctness-critical under any thread count.  This suite is the
// TSan workload for the pool: oversubscription (more workers than
// cores), rapid generation reuse with tiny jobs (straggler drain races),
// and the exception path (a throwing task must surface cleanly and
// leave the pool reusable) — all patterns the production kernels either
// rely on or must survive.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "shc/sim/worker_pool.hpp"

namespace shc {
namespace {

TEST(WorkerPoolStressTest, OversubscribedPoolRunsEveryJobExactlyOnce) {
  // 16 workers on any box oversubscribes CI runners: contention on the
  // job counter and the done-notification is the point.
  WorkerPool pool(16);
  EXPECT_EQ(pool.workers(), 16);
  const int jobs = 1000;
  std::vector<std::atomic<int>> hits(jobs);
  pool.run(jobs, [&](int j) { hits[static_cast<std::size_t>(j)].fetch_add(1); });
  for (int j = 0; j < jobs; ++j) {
    EXPECT_EQ(hits[static_cast<std::size_t>(j)].load(), 1) << "job " << j;
  }
}

TEST(WorkerPoolStressTest, HundredGenerationsOfReuseStayExact) {
  WorkerPool pool(8);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t expected = 0;
  for (int gen = 0; gen < 100; ++gen) {
    const int jobs = 1 + (gen % 7);  // exercises the jobs == 1 inline path too
    pool.run(jobs, [&](int j) {
      total.fetch_add(static_cast<std::uint64_t>(j) + 1,
                      std::memory_order_relaxed);
    });
    expected += static_cast<std::uint64_t>(jobs) * (jobs + 1) / 2;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(WorkerPoolStressTest, BackToBackTinyGenerationsDrainStragglers) {
  // Two-job generations issued back to back: the previous generation's
  // stragglers are still inside pull_jobs when run() wants to recycle
  // the shared counters.  This is the cv_idle_ drain path under fire.
  WorkerPool pool(8);
  std::atomic<int> count{0};
  for (int gen = 0; gen < 500; ++gen) {
    pool.run(2, [&](int) { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(count.load(), 1000);
}

TEST(WorkerPoolStressTest, SingleThreadPoolRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  std::vector<int> order;
  pool.run(5, [&](int j) { order.push_back(j); });  // inline: no data race
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolStressTest, ThrowingTaskPropagatesAndPoolStaysReusable) {
  WorkerPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.run(64, [&](int j) {
      if (j == 13) throw std::runtime_error("job 13 failed");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "job 13 failed");
  }
  // Every job index was accounted for (the generation drained), even
  // though jobs claimed after the failure were skipped.
  EXPECT_LE(executed.load(), 63);

  // The pool must be fully reusable after the failure.
  std::atomic<int> after{0};
  pool.run(32, [&](int) { after.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(after.load(), 32);
}

TEST(WorkerPoolStressTest, ThrowOnSerialPathPropagatesDirectly) {
  WorkerPool pool(1);  // inline path: plain rethrow semantics
  EXPECT_THROW(pool.run(3,
                        [&](int j) {
                          if (j == 1) throw std::invalid_argument("bad");
                        }),
               std::invalid_argument);
}

TEST(WorkerPoolStressTest, RepeatedFailuresDoNotWedgeThePool) {
  WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(
        pool.run(8, [&](int j) {
          if (j == round % 8) throw std::runtime_error("boom");
        }),
        std::runtime_error);
  }
  std::atomic<int> ok{0};
  pool.run(8, [&](int) { ok.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(WorkerPoolRunBeside, MineRunsOnTheCallerBesideAPooledTheirs) {
  WorkerPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int gen = 0; gen < 200; ++gen) {
    std::thread::id mine_on;
    std::atomic<int> theirs_runs{0};
    pool.run_beside([&] { mine_on = std::this_thread::get_id(); },
                    [&] { theirs_runs.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(mine_on, caller) << "generation " << gen;
    EXPECT_EQ(theirs_runs.load(), 1) << "generation " << gen;
  }
}

TEST(WorkerPoolRunBeside, TheirsMayWaitOnMine) {
  // The validator's check job waits for ledgers the engine job
  // publishes; the reverse wait never happens.  Whether a worker or the
  // caller (after mine) runs theirs, the wait must resolve.
  WorkerPool pool(2);
  for (int gen = 0; gen < 200; ++gen) {
    std::atomic<bool> published{false};
    int seen = 0;
    int value = 0;
    pool.run_beside(
        [&] {
          value = gen;
          published.store(true, std::memory_order_release);
          published.notify_all();
        },
        [&] {
          published.wait(false, std::memory_order_acquire);
          seen = value;
        });
    EXPECT_EQ(seen, gen);
  }
}

TEST(WorkerPoolRunBeside, ExceptionsPropagateAndThePoolStaysReusable) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.run_beside([] { throw std::runtime_error("mine"); }, [] {}),
               std::runtime_error);
  EXPECT_THROW(pool.run_beside([] {}, [] { throw std::invalid_argument("theirs"); }),
               std::invalid_argument);
  std::atomic<int> ok{0};
  pool.run(8, [&](int) { ok.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ok.load(), 8);

  WorkerPool inline_pool(1);  // no workers: mine, then theirs, in order
  std::vector<int> order;
  inline_pool.run_beside([&] { order.push_back(0); }, [&] { order.push_back(1); });
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace shc
