#include "common/shard_group.h"

#include <algorithm>

#include "common/telemetry/profile.h"
#include "common/thread_pool.h"

namespace ht {
namespace {

// Spin budget before parking, on both sides of the barrier. Shard
// windows are short (tens of microseconds of real work), so a parked
// helper would eat a futex round-trip per window; a few thousand pause
// iterations ride out the caller's merge work without burning a core
// for long when the simulation goes idle or the host is oversubscribed.
constexpr int kSpinIters = 1 << 12;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ShardWorkerGroup::~ShardWorkerGroup() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    const std::lock_guard<std::mutex> lock(mu_);
  }
  work_cv_.notify_all();
  for (auto& helper : helpers_) {
    if (helper->thread.joinable()) {
      helper->thread.join();
    }
  }
}

ShardGroupStats ShardWorkerGroup::stats() const {
  ShardGroupStats out;
  out.dispatches = dispatches_;
  out.inline_runs = inline_runs_;
  out.helper_parks = helper_parks_.load(std::memory_order_relaxed);
  out.caller_parks = caller_parks_;
  return out;
}

void ShardWorkerGroup::EnsureHelpers(unsigned count) {
  // Spawning happens strictly between dispatches: epoch_ is stable, and a
  // new helper starts with seen == the current epoch so it (a) waits for
  // the next bump instead of replaying stale parameters and (b) reports
  // done_epoch == epoch_ to the barrier until then.
  const uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
  while (helpers_.size() < count) {
    auto helper = std::make_unique<Helper>();
    helper->done_epoch.store(epoch, std::memory_order_seq_cst);
    // The thread gets its Helper by address: a later push_back here may
    // reallocate helpers_ while the thread runs, so it must not index it.
    Helper* self = helper.get();
    const unsigned index = static_cast<unsigned>(helpers_.size());
    helpers_.push_back(std::move(helper));
    self->thread = std::thread([this, self, index, epoch] { HelperLoop(*self, index, epoch); });
  }
}

void ShardWorkerGroup::RunStripe(unsigned member) {
  try {
    for (uint64_t j = member; j < jobs_; j += members_) {
      (*body_)(j);
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (error_ == nullptr) {
      error_ = std::current_exception();
    }
  }
}

void ShardWorkerGroup::HelperLoop(Helper& self, unsigned index, uint64_t initial_epoch) {
  uint64_t seen = initial_epoch;
  for (;;) {
    uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
    if (epoch == seen && !stop_.load(std::memory_order_seq_cst)) {
      for (int spin = 0; spin < kSpinIters; ++spin) {
        CpuRelax();
        epoch = epoch_.load(std::memory_order_seq_cst);
        if (epoch != seen || stop_.load(std::memory_order_relaxed)) {
          break;
        }
      }
      if (epoch == seen && !stop_.load(std::memory_order_seq_cst)) {
        helper_parks_.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(mu_);
        parked_.fetch_add(1, std::memory_order_seq_cst);
        work_cv_.wait(lock, [&] {
          return stop_.load(std::memory_order_seq_cst) ||
                 epoch_.load(std::memory_order_seq_cst) != seen;
        });
        parked_.fetch_sub(1, std::memory_order_seq_cst);
        epoch = epoch_.load(std::memory_order_seq_cst);
      }
    }
    if (stop_.load(std::memory_order_seq_cst)) {
      return;
    }
    if (epoch == seen) {
      continue;  // Spurious pass (stop_ raced false); re-enter the wait.
    }
    // The caller never advances epoch_ again before this helper reports
    // done, so epoch == seen + 1 exactly and the dispatch parameters are
    // stable for the whole stripe.
    seen = epoch;
    const unsigned member = index + 1;
    if (member < members_) {
      RunStripe(member);
    }
    self.done_epoch.store(seen, std::memory_order_seq_cst);
    if (caller_waiting_.load(std::memory_order_seq_cst)) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
      }
      done_cv_.notify_all();
    }
  }
}

void ShardWorkerGroup::Dispatch(uint64_t jobs, unsigned width,
                                const std::function<void(uint64_t)>& body) {
  if (jobs == 0) {
    return;
  }
  const unsigned members =
      static_cast<unsigned>(std::min<uint64_t>(std::max(1u, width), jobs));
  if (members <= 1) {
    ++inline_runs_;
    for (uint64_t j = 0; j < jobs; ++j) {
      body(j);
    }
    return;
  }
  EnsureHelpers(members - 1);
  ++dispatches_;
  // queue_peak accounting for the persistent-worker path: the shared pool
  // never sees these dispatches, so report them as one external in-flight
  // submission for the duration of the window.
  ThreadPool::Shared().NoteExternalDispatch(jobs);
  body_ = &body;
  jobs_ = jobs;
  members_ = members;
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
    }
    work_cv_.notify_all();
  }
  RunStripe(0);
  {
    ProfilePhase wait_phase("mc.shard_barrier_wait");
    // Every spawned helper participates in the barrier, members or not:
    // a non-member still reads members_ for this epoch, and the caller
    // must not scribble the next dispatch's parameters under that read.
    for (const auto& helper : helpers_) {
      if (helper->done_epoch.load(std::memory_order_seq_cst) == epoch) {
        continue;
      }
      int spin = 0;
      while (helper->done_epoch.load(std::memory_order_seq_cst) != epoch) {
        CpuRelax();
        if (++spin < kSpinIters) {
          continue;
        }
        ++caller_parks_;
        std::unique_lock<std::mutex> lock(mu_);
        caller_waiting_.store(true, std::memory_order_seq_cst);
        done_cv_.wait(lock, [&] {
          return helper->done_epoch.load(std::memory_order_seq_cst) == epoch;
        });
        caller_waiting_.store(false, std::memory_order_seq_cst);
        break;
      }
    }
  }
  ThreadPool::Shared().NoteExternalComplete();
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace ht
