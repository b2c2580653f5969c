#include "runtime/worker.hpp"

#include "common/affinity.hpp"
#include "common/spin.hpp"
#include "common/timing.hpp"
#include "runtime/runtime.hpp"
#include "runtime/thread_context.hpp"

namespace smpss {

namespace {
/// Failed acquire passes before a worker blocks on the idle gate.
constexpr unsigned kSpinAcquires = 128;
}  // namespace

void worker_main(Runtime& rt, unsigned tid) {
  if (rt.cfg_.pin_threads) pin_current_thread(tid);
  // Register this thread with its runtime: nested spawns and taskwait()
  // route through the per-worker ready list this thread owns.
  detail::tls.rt = &rt;
  detail::tls.tid = tid;
  WorkerCounters& wc = rt.worker_state_[tid].counters;

  unsigned failures = 0;
  Backoff backoff;
  while (!rt.shutdown_.load(std::memory_order_acquire)) {
    if (TaskNode* t = rt.acquire(tid)) {
      // One acquire may run a whole bounded chain of tasks: execute_task
      // follows single released successors directly (Config::chain_depth)
      // before coming back here to the Sec. III lookup policy — which is
      // what bounds how long this worker can ignore the high-priority list
      // and the steal victims.
      rt.execute_task(t, tid);
      failures = 0;
      backoff.reset();
      continue;
    }
    if (++failures < kSpinAcquires) {
      // Exponential backoff between probe passes: dozens of idle workers
      // hammering the shared lists in lock-step would otherwise starve the
      // main thread's task generation (its pushes fight their pops for the
      // same cache lines).
      backoff.pause();
      continue;
    }
    // Two-phase sleep: snapshot the gate, re-try once, then block.
    std::uint64_t seen = rt.gate_.prepare_wait();
    if (TaskNode* t = rt.acquire(tid)) {
      rt.execute_task(t, tid);
      failures = 0;
      backoff.reset();
      continue;
    }
    if (rt.shutdown_.load(std::memory_order_acquire)) break;
    ++wc.idle_sleeps;
    const std::uint64_t w0 = now_ns();
    rt.gate_.wait(seen, std::chrono::microseconds(500));
    wc.idle_ns += now_ns() - w0;
    failures = 0;
    backoff.reset();
  }
}

}  // namespace smpss
