// Idle/wakeup coordination for worker threads and blocked callers.
//
// In the runtime one loop sleeps here, Runtime::wait_until, on behalf of
// every blocked thread: idle workers, and every caller at a blocking call —
// the main thread at a barrier, a wait_on, a taskwait or the task window
// (woken when the live-task count hits zero or crosses the window's
// low-water mark, the two crossings Runtime::execute_task notifies at), a
// worker in an in-task taskwait (woken when the last child retires), and
// the threads that own no ready-list slot and only sleep: gated foreign
// submitters, stream drainers and future waiters. Every sleep is bounded by
// the 500 us default timeout, so a missed crossing costs one re-poll, never
// a hang.
//
// Workers that find no ready work spin briefly (task inter-arrival at the
// paper's target granularity is short), then block on a condition variable.
// Producers always bump an epoch (one relaxed-ish atomic on the hot path)
// but only take the mutex to notify when a sleeper is registered, so fine-
// grained task streams never serialize on the gate. The epoch recheck after
// registering as a sleeper plus a bounded sleep make lost wakeups impossible
// in the worst case (a worker re-polls after the timeout).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/cache.hpp"

namespace smpss {

class IdleGate {
 public:
  /// Consumer: snapshot to take *before* the final failed acquire attempt.
  std::uint64_t prepare_wait() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Consumer: block until the epoch moves past `seen` or timeout. The
  /// caller must have re-tried acquiring work between prepare_wait() and
  /// this call.
  void wait(std::uint64_t seen,
            std::chrono::microseconds timeout = std::chrono::microseconds(500)) {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (epoch_.load(std::memory_order_seq_cst) == seen) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, timeout, [&] {
        return epoch_.load(std::memory_order_acquire) != seen;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Producer: new work may be available.
  void notify_all() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      // The lock pairs the epoch bump with a waiter between its predicate
      // check and its cv wait; without it the notify could fall in the gap.
      { std::lock_guard<std::mutex> lk(mu_); }
      cv_.notify_all();
    }
  }

  void notify_one() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lk(mu_); }
      cv_.notify_one();
    }
  }

  /// Producer, batched: `want` new tasks became runnable at once (the
  /// batched-release path of a completion). Issues min(want, sleepers)
  /// wakeups behind a single epoch bump and returns how many it issued.
  ///
  /// When no sleeper is registered this returns 0 without even bumping the
  /// epoch — every wakeable worker is already running, so there is nobody
  /// the bump could inform. The one race this admits (a worker between its
  /// final acquire attempt and its sleeper registration misses the new
  /// work) is bounded by the sleep timeout every waiter passes: the worker
  /// re-polls within one timeout instead of hanging. That trade — a rare
  /// sub-millisecond oversleep for no seq_cst RMW on the busy path — is the
  /// point of the suppression.
  int notify_some(int want) noexcept {
    if (want <= 0) return 0;
    const int s = sleepers_.load(std::memory_order_seq_cst);
    if (s == 0) return 0;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    { std::lock_guard<std::mutex> lk(mu_); }
    if (want >= s) {
      cv_.notify_all();
      return s;
    }
    for (int i = 0; i < want; ++i) cv_.notify_one();
    return want;
  }

 private:
  alignas(kCacheLineSize) std::atomic<std::uint64_t> epoch_{0};
  alignas(kCacheLineSize) std::atomic<int> sleepers_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace smpss
