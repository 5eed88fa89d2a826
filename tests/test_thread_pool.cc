// ParallelFor, the shared ThreadPool, and ResolveThreadCount: job
// coverage, the inline degenerate paths, nested submission, and
// exception propagation to the calling thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/telemetry/profile.h"
#include "common/thread_pool.h"

namespace ht {
namespace {

TEST(ThreadPoolTest, RunCoversEveryJobExactlyOnce) {
  ThreadPool pool(4);
  const uint64_t jobs = 300;
  std::vector<uint64_t> slots(jobs, 0);
  std::atomic<uint64_t> executed{0};
  pool.Run(jobs, 4, [&](uint64_t i) {
    slots[i] += i + 1;
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(executed.load(), jobs);
  for (uint64_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(slots[i], i + 1) << "job " << i;
  }
}

TEST(ThreadPoolTest, CallerParticipatesSoNestedRunCannotDeadlock) {
  // Every worker plus the caller submits a nested Run; with blocking
  // waits and no caller participation this would deadlock once the
  // helpers are all occupied by outer jobs.
  ThreadPool pool(3);
  std::atomic<uint64_t> inner_total{0};
  pool.Run(8, 8, [&](uint64_t) {
    pool.Run(16, 4, [&](uint64_t) { inner_total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(inner_total.load(), 8u * 16u);
}

TEST(ThreadPoolTest, SingleWorkerPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> order;
  pool.Run(6, 4, [&](uint64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // Safe: no helper threads exist.
  });
  ASSERT_EQ(order.size(), 6u);
  for (uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToSubmitter) {
  ThreadPool pool(4);
  std::atomic<uint64_t> executed{0};
  try {
    pool.Run(100, 4, [&](uint64_t i) {
      if (i == 7) {
        throw std::runtime_error("boom7");
      }
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "Run swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom7");
  }
  EXPECT_LT(executed.load(), 100u);
  // The pool survives a failed task and runs the next one normally.
  std::atomic<uint64_t> after{0};
  pool.Run(10, 4, [&](uint64_t) { after.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(after.load(), 10u);
}

TEST(ThreadPoolTest, SharedPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.workers(), 1u);
  std::atomic<uint64_t> executed{0};
  a.Run(32, 4, [&](uint64_t) { executed.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(executed.load(), 32u);
}

TEST(ParallelForTest, EveryJobRunsExactlyOnceIntoItsSlot) {
  const uint64_t jobs = 500;
  std::vector<uint64_t> slots(jobs, 0);
  std::atomic<uint64_t> executed{0};
  ParallelFor(jobs, 4, [&](uint64_t i) {
    slots[i] += i + 1;
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(executed.load(), jobs);
  for (uint64_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(slots[i], i + 1) << "job " << i;
  }
}

TEST(ParallelForTest, SingleThreadRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> order;
  ParallelFor(8, 1, [&](uint64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // Safe: inline path, no concurrency.
  });
  ASSERT_EQ(order.size(), 8u);
  for (uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, SingleJobRunsInlineOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  ParallelFor(1, 8, [&](uint64_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ParallelForTest, ZeroJobsIsANop) {
  bool ran = false;
  ParallelFor(0, 4, [&](uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, ExceptionPropagatesFromWorker) {
  std::atomic<uint64_t> executed{0};
  try {
    ParallelFor(200, 4, [&](uint64_t i) {
      if (i == 13) {
        throw std::runtime_error("boom13");
      }
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom13");
  }
  // Every non-throwing job that ran completed (no torn state), and the
  // throwing job was not counted.
  EXPECT_LT(executed.load(), 200u);
}

TEST(ParallelForTest, ExceptionPropagatesFromInlinePath) {
  EXPECT_THROW(
      ParallelFor(4, 1,
                  [&](uint64_t i) {
                    if (i == 2) {
                      throw std::logic_error("inline");
                    }
                  }),
      std::logic_error);
}

// --- Pool telemetry ----------------------------------------------------------

TEST(PoolStatsTest, CountsTasksJobsAndQueuePeak) {
  ThreadPool pool(4);
  pool.ResetStats();
  pool.Run(300, 4, [](uint64_t) {});
  pool.Run(7, 4, [](uint64_t) {});
  pool.Run(0, 4, [](uint64_t) {});  // Zero jobs: not a task, no jobs.

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks, 2u);
  EXPECT_EQ(stats.jobs, 307u);
  // queue_peak is the high-water of concurrently pending tasks: each
  // non-inline Run pushes one task, so two sequential Runs peak at 1.
  EXPECT_EQ(stats.queue_peak, 1u);
}

TEST(PoolStatsTest, InlinePathCountsJobsToo) {
  ThreadPool pool(1);  // Degenerate pool: everything runs inline.
  pool.ResetStats();
  pool.Run(12, 4, [](uint64_t) {});
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks, 1u);
  EXPECT_EQ(stats.jobs, 12u);
  EXPECT_EQ(stats.queue_peak, 0u);
}

TEST(PoolStatsTest, ResetStatsZeroesEverything) {
  ThreadPool pool(2);
  pool.Run(20, 2, [](uint64_t) {});
  pool.ResetStats();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_EQ(stats.queue_peak, 0u);
  EXPECT_EQ(stats.busy_seconds, 0.0);
}

TEST(PoolStatsTest, BusySecondsAccumulateOnlyUnderTheProfiler) {
  ThreadPool pool(2);

  // Disabled profiler: the hot path must not read clocks at all.
  Profiler::Global().Enable(false);
  pool.ResetStats();
  pool.Run(50, 2, [](uint64_t) {});
  EXPECT_EQ(pool.stats().busy_seconds, 0.0);

  Profiler::Global().Enable();
  pool.ResetStats();
  std::atomic<uint64_t> spin{0};
  pool.Run(50, 2, [&](uint64_t) {
    for (int i = 0; i < 1000; ++i) {
      spin.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_GT(pool.stats().busy_seconds, 0.0);
  EXPECT_EQ(pool.stats().jobs, 50u);
  Profiler::Global().Enable(false);
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
}

TEST(ResolveThreadCountTest, EnvironmentThenHardwareFallback) {
  const char* saved = std::getenv("HT_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";

  setenv("HT_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreadCount(0), 5u);
  setenv("HT_THREADS", "not-a-number", 1);
  EXPECT_GE(ResolveThreadCount(0), 1u);  // Falls through to hardware.
  unsetenv("HT_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1u);

  if (saved != nullptr) {
    setenv("HT_THREADS", saved_value.c_str(), 1);
  }
}

}  // namespace
}  // namespace ht
