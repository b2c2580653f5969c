// Exclusion tokens for commutative access groups (QuickSched-style
// "conflicts": mutual exclusion without ordering). A task whose parameters
// include Dir::Commutative accesses carries one ConflictToken* per group in
// TaskNode::conflicts; the scheduler driver acquires them all-or-nothing
// around the ready-list acquire (Runtime::acquire) and releases them right
// after the task body runs.
//
// A ready-but-conflicted task is *deferred*, never spun on: the driver parks
// it on the busy token's waiter stack (a Treiber stack threaded through
// TaskNode::queue_next — the task is in no ready list while parked, so the
// link is free) and moves on to the next candidate. The token holder drains
// the stack back into the ready lists at release. The park/recheck dance
// below closes the lost-wakeup window; liveness holds because tokens are
// only ever held for the duration of one task body — the holder is running
// on some worker, so the system cannot sleep with only parked work.
#pragma once

#include <atomic>
#include <cstdint>

#include "graph/task.hpp"

namespace smpss {

struct AccessGroup;  // dep/access_group.hpp

struct ConflictToken {
  /// 0 = free, 1 = held by an executing task.
  std::atomic<std::uint32_t> held{0};
  /// Parked tasks waiting for release (Treiber stack via queue_next).
  std::atomic<TaskNode*> waiters{nullptr};
  /// Owning group; the driver releases the member's group ref at retire.
  AccessGroup* group = nullptr;

  bool try_acquire() noexcept {
    if (held.load(std::memory_order_relaxed) != 0) return false;
    std::uint32_t expected = 0;
    return held.compare_exchange_strong(expected, 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
  }

  /// Drop the token. The caller must afterwards take_waiters() and re-enqueue
  /// them (release/wake are split so the waker can use the runtime's
  /// gate-aware enqueue).
  void release() noexcept { held.store(0, std::memory_order_release); }

  /// Park a conflicted task. After parking, the caller MUST re-check
  /// `held == 0` and, if so, take_waiters() and re-enqueue them — the holder
  /// may have released between the failed acquire and the push, in which
  /// case nobody else will ever drain the stack. The caller holds its own
  /// group reference across both: the parked task's may be gone by then.
  void park(TaskNode* t) noexcept {
    TaskNode* head = waiters.load(std::memory_order_relaxed);
    do {
      t->queue_next = head;
    } while (!waiters.compare_exchange_weak(head, t,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
  }

  bool free_now() const noexcept {
    return held.load(std::memory_order_seq_cst) == 0;
  }

  /// Detach the whole waiter stack (each node exactly once across all
  /// concurrent callers).
  TaskNode* take_waiters() noexcept {
    return waiters.exchange(nullptr, std::memory_order_acq_rel);
  }
};

/// All-or-nothing acquisition of a task's tokens. `conflicts` is sorted by
/// pointer at submit, so concurrent multi-token tasks acquire in one global
/// order. Returns nullptr on success; otherwise the blocking token, with
/// every token acquired so far released again.
inline ConflictToken* try_acquire_conflicts(TaskNode* t) noexcept {
  auto& cs = t->conflicts;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!cs[i]->try_acquire()) {
      for (std::size_t k = 0; k < i; ++k) cs[k]->release();
      return cs[i];
    }
  }
  return nullptr;
}

}  // namespace smpss
