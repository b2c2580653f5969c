// The runtime's statistics counters, declared once each.
//
// Every counter is one row of one of the three tables below: per worker,
// per submission (one set per Runtime) and per dependency analysis. The
// counters' storage (the cell structs here), the fields of WorkerStatsRow
// and StatsSnapshot, the sums in Runtime::stats() and the keys of
// Runtime::stats_json() are all expanded from these rows, so adding a row is
// the whole change. A row's name is also its JSON key. Kept in common/ so
// the dependency analyzers and the slab pools can count without depending
// on runtime/ headers.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cache.hpp"

namespace smpss {

/// Per worker, X(row_name, total_name): `row_name` names the WorkerCounters
/// cell and the WorkerStatsRow field, `total_name` the StatsSnapshot field
/// that sums the row over all workers (worker 0 is the main thread).
#define SMPSS_WORKER_COUNTERS(X)                                               \
  X(executed, tasks_executed)        /* task bodies run and retired */         \
  X(steals, steals)                  /* tasks taken from another's own list */ \
  X(steal_attempts, steal_attempts)  /* victim lists probed by the lookup */   \
  X(acquired_high, acquired_high)    /* tasks taken from the high list */      \
  X(acquired_own, acquired_own)      /* tasks taken from this worker's list */ \
  X(acquired_main, acquired_main)    /* tasks taken from the main list */      \
  X(idle_sleeps, idle_sleeps)        /* gate sleeps in Runtime::wait_until */  \
  X(idle_ns, idle_ns)                /* wall time of those sleeps */           \
  X(locality_hits, locality_hits)    /* ran a task placed for this worker */   \
  X(locality_misses, locality_misses) /* ran a task placed for another one */  \
  X(chained, chained_executions)     /* ran straight out of a completion */    \
  X(batched_releases, batched_releases) /* completions releasing >= 2 tasks */ \
  X(wakeups_suppressed, wakeups_suppressed) /* batch wakeups not issued */     \
  X(conflict_deferrals, conflict_deferrals) /* members parked on a token */    \
  X(conflict_wakeups, conflict_wakeups) /* parked members re-enqueued */

/// Per submission, X(name): one set of relaxed atomic cells per Runtime,
/// counted by whichever thread submits.
#define SMPSS_SUBMIT_COUNTERS(X)                                               \
  X(tasks_inlined)          /* nested spawns run as function calls */          \
  X(tasks_nested)           /* real child tasks (nested mode only) */          \
  X(taskwaits)              /* Runtime::taskwait() calls */                    \
  X(nested_throttled)       /* in-task submissions that drained at a limit */  \
  X(foreign_throttled)      /* foreign submissions that slept at a limit */    \
  X(ready_at_creation)      /* tasks with no pending input when submitted */   \
  X(barriers)               /* Runtime::barrier() calls */                     \
  X(main_blocked_on_window) /* main-thread stalls on the task window */        \
  X(main_blocked_on_memory) /* main-thread stalls on the rename memory */

/// Per dependency analysis, X(name): the address analyzer counts into one
/// DepCounters per submitter stripe, the region analyzer into one of its
/// own; the snapshot sums them all.
#define SMPSS_DEP_COUNTERS(X)                                                  \
  X(raw_edges)            /* true (read-after-write) edges */                  \
  X(war_edges)            /* anti edges (renaming disabled, or regions) */     \
  X(waw_edges)            /* output edges (renaming disabled, or regions) */   \
  X(in_place_reuses)      /* writes that reused the current storage */         \
  X(copy_ins)             /* inout renames and extent merges (copies) */       \
  X(copy_in_bytes)        /* bytes those copies moved */                       \
  X(copyback_bytes)       /* barrier and wait_on realignment bytes */          \
  X(tracked_objects)      /* data entries created */                           \
  X(lockfree_cas_retries) /* lost publication and pin races on chain heads */  \
  X(groups_opened)        /* commuting groups created */                       \
  X(group_joins)          /* member accesses folded into an open group */      \
  X(groups_closed)        /* groups sealed by a non-matching access/barrier */ \
  X(commute_edges)        /* member -> group-close completion edges */         \
  X(region_accesses)      /* region-qualified parameters analyzed */

/// Single-writer statistics cell: updated by exactly one thread with a
/// relaxed load+store pair (a plain add in machine code — no RMW needed
/// because there is only one writer), read by concurrent snapshots without
/// formal data races.
class Counter64 {
 public:
  void add(std::uint64_t d) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + d,
             std::memory_order_relaxed);
  }
  Counter64& operator+=(std::uint64_t d) noexcept {
    add(d);
    return *this;
  }
  Counter64& operator++() noexcept {
    add(1);
    return *this;
  }
  std::uint64_t get() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// One worker's row of cells. Written only by its worker; padded to avoid
/// false sharing.
struct alignas(kCacheLineSize) WorkerCounters {
#define SMPSS_WORKER_CELL(row, total) Counter64 row;
  SMPSS_WORKER_COUNTERS(SMPSS_WORKER_CELL)
#undef SMPSS_WORKER_CELL
};

// Expansions shared by the two atomic-cell sets below.
#define SMPSS_ATOMIC_CELL(name) std::atomic<std::uint64_t> name{0};
#define SMPSS_ADD_CELL(name) out.name += name.load(std::memory_order_relaxed);

/// The submission cells. Relaxed atomics: nested mode submits from many
/// threads at once.
struct SubmitCounters {
  SMPSS_SUBMIT_COUNTERS(SMPSS_ATOMIC_CELL)

  /// Add each cell into the same-named field of `out` (a StatsSnapshot).
  template <class Out>
  void add_to(Out& out) const noexcept {
    SMPSS_SUBMIT_COUNTERS(SMPSS_ADD_CELL)
  }
};

/// One set of dependency cells. Relaxed atomics: concurrent submitters may
/// share a stripe, and stats() sums them on any thread.
struct DepCounters {
  SMPSS_DEP_COUNTERS(SMPSS_ATOMIC_CELL)

  /// Add each cell into the same-named field of `out` (a StatsSnapshot).
  template <class Out>
  void add_to(Out& out) const noexcept {
    SMPSS_DEP_COUNTERS(SMPSS_ADD_CELL)
  }
};

#undef SMPSS_ATOMIC_CELL
#undef SMPSS_ADD_CELL

}  // namespace smpss
