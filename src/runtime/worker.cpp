#include "runtime/worker.hpp"

#include "common/affinity.hpp"
#include "runtime/runtime.hpp"
#include "runtime/thread_context.hpp"

namespace smpss {

namespace {
/// Failed acquire passes before a worker blocks on the idle gate. Waiters
/// at a blocking call pass none: their spin would compete with the workers
/// for the lists without running anything sooner.
constexpr unsigned kSpinAcquires = 128;
}  // namespace

void worker_main(Runtime& rt, unsigned tid) {
  if (rt.cfg_.pin_threads) pin_current_thread(tid);
  // Register this thread with its runtime: nested spawns and taskwait()
  // route through the per-worker ready list this thread owns.
  detail::tls.rt = &rt;
  detail::tls.tid = tid;
  // One acquire may run a whole bounded chain of tasks: execute_task
  // follows single released successors directly (Config::chain_depth)
  // before coming back to the Sec. III lookup policy — which is what bounds
  // how long this worker can ignore the high-priority list and the steal
  // victims. The backoff between failed passes keeps idle workers from
  // hammering the shared lists in lock-step, which would starve the main
  // thread's task generation (its pushes fight their pops for the same
  // cache lines).
  rt.wait_until(
      [&rt] { return rt.shutdown_.load(std::memory_order_acquire); },
      kSpinAcquires);
}

}  // namespace smpss
