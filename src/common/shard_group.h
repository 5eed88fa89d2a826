// Persistent shard workers for the per-channel event scheduler.
//
// ThreadPool::Run posts every fan-out through the pool's mutex-guarded
// pending queue: one lock + notify_all on submission, a lock round-trip
// per helper registration, and a final cv wait — fine for whole-scenario
// jobs that run for seconds, ruinous for per-window channel shards that
// fire thousands of times per simulated millisecond. ShardWorkerGroup is
// the long-lived alternative: helpers are spawned once, then park/unpark
// on a seqlock-style epoch barrier. A dispatch is one seq_cst fetch_add
// plus (only if a helper actually parked) a notify; the completion
// barrier is a bounded spin on per-helper done epochs before falling
// back to a condition variable. Channel -> member assignment is a static
// stride (member m runs jobs j with j % members == m), so a channel's
// state stays hot in the same worker's cache across windows.
#ifndef HAMMERTIME_SRC_COMMON_SHARD_GROUP_H_
#define HAMMERTIME_SRC_COMMON_SHARD_GROUP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ht {

// Telemetry snapshot; maintained with plain caller-side counters plus one
// relaxed atomic for helper parks (helpers write it concurrently).
struct ShardGroupStats {
  uint64_t dispatches = 0;    // Dispatch() calls that engaged helpers.
  uint64_t inline_runs = 0;   // Dispatch() calls executed inline.
  uint64_t helper_parks = 0;  // Times any helper gave up spinning and slept.
  uint64_t caller_parks = 0;  // Times the caller slept on the done barrier.
};

// A group is owned by exactly one dispatching thread (the MC's driving
// thread); Dispatch is not reentrant and not thread-safe against itself.
// The job bodies run concurrently on the caller plus the helpers.
class ShardWorkerGroup {
 public:
  ShardWorkerGroup() = default;
  ~ShardWorkerGroup();
  ShardWorkerGroup(const ShardWorkerGroup&) = delete;
  ShardWorkerGroup& operator=(const ShardWorkerGroup&) = delete;

  // Runs body(j) for every j in [0, jobs). Member m (caller = member 0,
  // helper h = member h+1) runs the jobs with j % members == m, where
  // members = min(width, jobs). Helpers are spawned lazily up to the
  // largest width ever requested, minus the caller; width <= 1 or
  // jobs <= 1 runs inline. Blocks until every job finished; the first
  // exception thrown by any member is rethrown here after the barrier.
  void Dispatch(uint64_t jobs, unsigned width, const std::function<void(uint64_t)>& body);

  ShardGroupStats stats() const;
  unsigned helpers() const { return static_cast<unsigned>(helpers_.size()); }

 private:
  struct alignas(64) Helper {
    std::atomic<uint64_t> done_epoch{0};
    std::thread thread;
  };

  void EnsureHelpers(unsigned count);
  void HelperLoop(Helper& self, unsigned index, uint64_t initial_epoch);
  void RunStripe(unsigned member);

  // Barrier protocol (all epoch/flag accesses seq_cst — the Dekker-style
  // stores and loads below need a single total order):
  //   dispatch:  publish body_/jobs_/members_, bump epoch_, then notify
  //              work_cv_ only if parked_ != 0.
  //   helper:    spin on epoch_ != seen, then park: lock mu_, ++parked_,
  //              re-check the predicate under the lock, wait. The
  //              caller's bump either happens before the ++parked_ load
  //              (caller notifies) or is seen by the predicate re-check —
  //              a wakeup can never be missed.
  //   complete:  helper stores done_epoch, then notifies done_cv_ only if
  //              caller_waiting_; the caller sets caller_waiting_ under
  //              mu_ before waiting, with the same two-sided argument.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int> parked_{0};
  std::atomic<bool> caller_waiting_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> helper_parks_{0};

  // Dispatch parameters; written by the caller only while every helper
  // has retired the previous epoch, read by helpers only after acquiring
  // the new epoch value.
  const std::function<void(uint64_t)>* body_ = nullptr;
  uint64_t jobs_ = 0;
  unsigned members_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::exception_ptr error_;  // Guarded by mu_.
  std::vector<std::unique_ptr<Helper>> helpers_;

  uint64_t dispatches_ = 0;   // Caller-side only.
  uint64_t inline_runs_ = 0;  // Caller-side only.
  uint64_t caller_parks_ = 0;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_SHARD_GROUP_H_
