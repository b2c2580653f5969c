// The SMPSs ready-task structure, paper Sec. III verbatim:
//
//   "There are two main ready lists, one for high priority tasks and one for
//    normal priority tasks. [...] Each worker thread has its own ready list
//    that contains tasks whose last input dependency has been removed by
//    that thread. [...] Threads look up ready tasks first in the high
//    priority list. If it is empty, then they look up their own ready list.
//    If they do not succeed, they proceed to check out the main ready list.
//    In case of failure, they proceed to steal work from other threads in
//    creation order starting from the next one. Threads consume tasks from
//    their own list in LIFO order, they get tasks from the main list in FIFO
//    order, and they steal from other threads in FIFO order."
//
// ReadyLists<T> owns every placement, lookup and steal decision. The Runtime
// drives it over TaskNode; graph/sched_sim drives the very same template
// over its lightweight SimNode, so the simulator replays the real placement
// code instead of duplicating it. The node type T supplies queue_next (the
// intrusive FIFO link), high_priority and pref_tid.
//
// Two ablation knobs probe the design choices: SchedulerMode::Centralized
// collapses the per-worker lists into the main FIFO (the SuperMatrix-style
// single ready queue of Sec. VII.C), and StealOrder::Random replaces the
// creation-order victim walk.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/cache.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/mpmc_queue.hpp"

namespace smpss {

enum class SchedulerMode : unsigned char {
  Distributed,  ///< per-worker lists + stealing (the paper's design)
  Centralized,  ///< single shared FIFO (SuperMatrix-like ablation)
};

enum class StealOrder : unsigned char {
  CreationOrder,  ///< victims visited in thread-creation order (the paper)
  Random,         ///< victims visited in random order (ablation)
};

const char* to_string(SchedulerMode m) noexcept;
const char* to_string(StealOrder o) noexcept;

/// Result detail of an acquire, for the steal statistics.
enum class AcquireSource : unsigned char {
  None,
  HighPriority,
  OwnList,
  MainList,
  Steal,
};

/// Where an enqueue landed. The Runtime owns the wakeup protocol (it holds
/// the gate), so the lists report placement and the Runtime decides whether
/// to notify: High/Main always wake one sleeper; Local only when a backlog
/// builds up that a thief could take.
enum class Placed : unsigned char {
  High,   ///< shared high-priority FIFO
  Main,   ///< shared main FIFO
  Local,  ///< the enqueuing worker's own list
};

template <typename T>
class ReadyLists {
 public:
  /// "No owning worker": foreign submitters, and the unset pref_tid.
  static constexpr unsigned kNoWorker = ~0u;

  /// `nested_tasks` enables the nested-child placement of enqueue_creation.
  ReadyLists(unsigned nthreads, SchedulerMode mode, StealOrder order,
             bool nested_tasks = false)
      : nthreads_(nthreads),
        mode_(mode),
        order_(order),
        nested_tasks_(nested_tasks) {
    SMPSS_CHECK(nthreads >= 1, "need at least one thread");
    if (mode_ == SchedulerMode::Distributed) {
      local_.reserve(nthreads);
      for (unsigned i = 0; i < nthreads; ++i)
        local_.push_back(std::make_unique<ChaseLevDeque<T>>());
    }
  }

  /// High-priority tasks are "scheduled as soon as possible independently of
  /// any locality consideration".
  void push_high(T* t) { high_.push_back(t); }

  /// Dependency-free tasks from the main thread: "a point of distribution of
  /// tasks in areas of the graph that are not being explored".
  void push_main(T* t) { main_.push_back(t); }

  /// Task whose last input dependency was removed by thread `tid`: the
  /// worker's own list, or the main FIFO when Centralized collapses them.
  Placed push_local(unsigned tid, T* t) {
    if (mode_ == SchedulerMode::Distributed) {
      local_[tid]->push_bottom(t);
      return Placed::Local;
    }
    main_.push_back(t);
    return Placed::Main;
  }

  /// Batched form of push_local: a completion that released several tasks at
  /// once publishes them with one list operation (a single bottom store on
  /// the owner's deque; one exchange on the centralized FIFO).
  void push_local_batch(unsigned tid, T* const* items, std::size_t n) {
    if (mode_ == SchedulerMode::Distributed) {
      local_[tid]->push_bottom_batch(items, n);
    } else {
      main_.push_back_batch(items, n);
    }
  }

  // --- placement -------------------------------------------------------------

  /// Task ready at creation: submitted with no unsatisfied inputs. `tid` is
  /// the submitter's worker slot (kNoWorker for foreign threads); `in_task`
  /// reports whether the submitter is inside a task body (nested spawn).
  Placed enqueue_creation(T* t, unsigned tid, bool in_task) {
    if (t->high_priority) {
      push_high(t);
      return Placed::High;
    }
    // Nested children ready at creation go to the spawning worker's own
    // list: the child operates on data the parent just touched, so this is
    // the same locality argument Sec. III makes for last-dependence-removed
    // tasks. Main-thread and foreign-thread submissions keep the paper's
    // main-list distribution behavior.
    if (nested_tasks_ && in_task && tid != kNoWorker) {
      t->pref_tid = tid;
      return push_local(tid, t);
    }
    push_main(t);
    return Placed::Main;
  }

  /// Task whose last input dependence was removed by worker `tid`.
  Placed enqueue_released(T* t, unsigned tid) {
    if (t->high_priority) {
      push_high(t);
      return Placed::High;
    }
    // "Each worker thread has its own ready list that contains tasks whose
    // last input dependency has been removed by that thread."
    t->pref_tid = tid;
    return push_local(tid, t);
  }

  /// Batched release: one completion released `n >= 2` tasks; publish them
  /// with one list operation per destination (the caller issues at most one
  /// wakeup for the whole set).
  void enqueue_batch(T* const* ts, std::size_t n, unsigned tid) {
    SmallVector<T*, 8> normal;
    for (std::size_t i = 0; i < n; ++i) {
      if (ts[i]->high_priority) {
        push_high(ts[i]);
      } else {
        ts[i]->pref_tid = tid;
        normal.push_back(ts[i]);
      }
    }
    push_local_batch(tid, normal.begin(), normal.size());
  }

  /// Must a pending high-priority task preempt chaining into `next`? A
  /// completion never chains past one (see Runtime::execute_task); a
  /// high-priority successor is exempt — running it immediately IS the
  /// soonest possible dispatch. The emptiness probe is racy.
  bool preempt_chain(const T* next) const noexcept {
    return !next->high_priority && !high_.empty_estimate();
  }

  /// One full pass of the Sec. III lookup policy. `source` reports where the
  /// task came from (None on failure); `steal_attempts` counts victims
  /// probed.
  T* acquire(unsigned tid, Xoshiro256& rng, AcquireSource& source,
             unsigned& steal_attempts) {
    steal_attempts = 0;
    if (T* t = high_.try_pop_front()) {
      source = AcquireSource::HighPriority;
      return t;
    }
    if (mode_ == SchedulerMode::Distributed) {
      if (T* t = local_[tid]->pop_bottom()) {
        source = AcquireSource::OwnList;
        return t;
      }
    }
    if (T* t = main_.try_pop_front()) {
      source = AcquireSource::MainList;
      return t;
    }
    if (mode_ == SchedulerMode::Distributed && nthreads_ > 1) {
      if (order_ == StealOrder::CreationOrder) {
        for (unsigned i = 1; i < nthreads_; ++i) {
          unsigned victim = (tid + i) % nthreads_;
          ++steal_attempts;
          if (T* t = local_[victim]->steal_top()) {
            source = AcquireSource::Steal;
            return t;
          }
        }
      } else {
        for (unsigned i = 1; i < nthreads_; ++i) {
          unsigned victim =
              static_cast<unsigned>(rng.next_below(nthreads_ - 1)) + 1;
          victim = (tid + victim) % nthreads_;
          ++steal_attempts;
          if (T* t = local_[victim]->steal_top()) {
            source = AcquireSource::Steal;
            return t;
          }
        }
      }
    }
    source = AcquireSource::None;
    return nullptr;
  }

  /// Racy size of one worker's own list (wakeup heuristics); only a
  /// Distributed enqueue reports Placed::Local.
  std::size_t local_size_estimate(unsigned tid) const noexcept {
    return local_[tid]->size_estimate();
  }

  unsigned nthreads() const noexcept { return nthreads_; }
  SchedulerMode mode() const noexcept { return mode_; }

 private:
  unsigned nthreads_;
  SchedulerMode mode_;
  StealOrder order_;
  bool nested_tasks_;
  IntrusiveMpmcFifo<T> high_;
  IntrusiveMpmcFifo<T> main_;
  std::vector<std::unique_ptr<ChaseLevDeque<T>>> local_;
};

}  // namespace smpss
