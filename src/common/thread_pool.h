// A small persistent worker pool for parallel fan-out over whole
// simulations (one self-contained scenario or campaign cell per job).
// Jobs are indexed, results are written by index, so the output order is
// deterministic regardless of which worker ran which job.
#ifndef HAMMERTIME_SRC_COMMON_THREAD_POOL_H_
#define HAMMERTIME_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ht {

// Worker count resolution: explicit `requested` wins if nonzero, then the
// HT_THREADS environment variable, then the hardware concurrency.
unsigned ResolveThreadCount(unsigned requested = 0);

// Pool-level telemetry, exported by the profiler as the pool.* gauges in
// metrics.v1 (`profile` section). Counters are always maintained (one
// relaxed atomic increment per submission/job — never per simulated
// cycle); busy_seconds reads the clock per job and is only accumulated
// while the Profiler is enabled, keeping the disabled path cost-free.
struct PoolStats {
  uint64_t tasks = 0;         // Run() submissions, including inline ones.
  uint64_t jobs = 0;          // Individual job executions.
  uint64_t queue_peak = 0;    // Peak simultaneously-pending submissions.
  double busy_seconds = 0.0;  // Summed per-job wall-clock (profiler on).
};

// Fixed-size pool of persistent workers. The calling thread always
// participates in its own submission, which makes nested fan-out safe:
// a job running on a pool worker can itself Run() a fan-out, and even
// with zero free helpers the caller works through its task inline — the
// pool can never deadlock on its own capacity.
class ThreadPool {
 public:
  // Spawns `workers - 1` helper threads (the caller is the remaining
  // worker). workers <= 1 means a helperless pool: Run executes inline.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs body(i) for every i in [0, jobs), using the calling thread plus
  // at most `max_concurrency - 1` pool helpers. Each job must be
  // independent: no shared mutable state except its own output slot.
  // Blocks until every started job finished. If a job throws, unstarted
  // jobs are abandoned, already-running jobs finish, and the first
  // observed exception is rethrown on the calling thread.
  //
  // Degenerate cases (jobs <= 1, max_concurrency <= 1, or a helperless
  // pool) run inline on the caller in index order.
  void Run(uint64_t jobs, unsigned max_concurrency, const std::function<void(uint64_t)>& body);

  unsigned workers() const { return workers_; }

  // Snapshot / reset of the pool.* telemetry counters.
  PoolStats stats() const;
  void ResetStats();

  // The process-wide pool behind ParallelFor and RunScenarios. Sized
  // once, on first use, from ResolveThreadCount(0) — HT_THREADS or the
  // hardware concurrency — so nested fan-outs draw from one budget and
  // cannot oversubscribe the machine between them.
  static ThreadPool& Shared();

 private:
  // One Run() submission. Lives on the submitting caller's stack; workers
  // may only hold a pointer while registered as helpers (helpers > 0),
  // and the caller does not return before helpers drops to zero.
  struct Task {
    uint64_t jobs = 0;
    const std::function<void(uint64_t)>* body = nullptr;
    std::atomic<uint64_t> next{0};       // Claim cursor.
    std::atomic<bool> failed{false};
    std::exception_ptr error;            // Guarded by the pool mutex.
    unsigned helper_budget = 0;          // Max pool helpers (excl. caller).
    unsigned helpers = 0;                // Current helpers (pool mutex).
  };

  void WorkerLoop();
  // Claims and runs one job of `task`; returns false when the cursor is
  // exhausted or the task failed. Exceptions are captured into the task.
  bool RunOneJob(Task& task);

  unsigned workers_;
  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> jobs_{0};
  uint64_t queue_depth_ = 0;  // Pending submissions (pool mutex).
  std::atomic<uint64_t> queue_peak_{0};
  std::atomic<uint64_t> busy_nanos_{0};
  std::mutex mu_;
  std::condition_variable work_cv_;   // Workers: a claimable task appeared.
  std::condition_variable done_cv_;   // Callers: a helper left a task.
  std::vector<Task*> pending_;        // Tasks that may still have unclaimed jobs.
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// Runs body(i) for every i in [0, jobs) across `threads` workers (inline
// when threads <= 1 or jobs <= 1), drawing helpers from ThreadPool::
// Shared(). Same independence and exception contract as ThreadPool::Run.
void ParallelFor(uint64_t jobs, unsigned threads, const std::function<void(uint64_t)>& body);

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_THREAD_POOL_H_
