// Runtime statistics: per-worker padded counters plus main-thread counters,
// flattened into a StatsSnapshot on demand. The ablation benches and several
// tests key off these (e.g. "Strassen is an intensive renaming test case" is
// asserted via renames > 0, locality via steal ratios).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cache.hpp"
#include "common/counters.hpp"

namespace smpss {

/// Written by exactly one worker; padded to avoid false sharing.
struct alignas(kCacheLineSize) WorkerCounters {
  Counter64 executed;
  Counter64 steals;
  Counter64 steal_attempts;
  Counter64 acquired_high;
  Counter64 acquired_own;
  Counter64 acquired_main;
  Counter64 idle_sleeps;
  Counter64 idle_ns;  ///< wall time spent blocked on the idle gate
  /// Executed tasks whose placement preference (TaskNode::pref_tid) matched /
  /// missed this worker. Own-list placements (released tasks, nested
  /// children ready at creation) set the preference; main-list placements
  /// carry none and count as neither.
  Counter64 locality_hits;
  Counter64 locality_misses;
  /// Tasks this worker ran by chaining directly out of a completion (the
  /// single released successor bypassed the ready lists entirely).
  Counter64 chained;
  /// Completions that released >= 2 successors and enqueued them with one
  /// ready-list batch operation + at most one wakeup.
  Counter64 batched_releases;
  /// Wakeups the batched-release path did not issue because every wakeable
  /// worker was already running (gate had no sleepers), or because one
  /// wakeup covered several released tasks.
  Counter64 wakeups_suppressed;
  /// Ready commutative members this worker could not acquire the group
  /// token(s) for and parked on the blocking token instead of running.
  Counter64 conflict_deferrals;
  /// Parked members this worker re-enqueued when it released a token.
  Counter64 conflict_wakeups;
};

/// Per-stream service-mode counters (one row per open_stream() call, closed
/// streams included — the registry is append-only).
struct StreamStats {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t weight = 1;
  std::uint8_t phase = 0;  ///< 0 Open, 1 Draining, 2 Closed
  std::uint64_t submitted = 0;
  std::uint64_t retired = 0;
  std::int64_t live = 0;
  std::uint64_t throttled = 0;      ///< admissions that had to queue
  std::uint64_t callbacks_run = 0;  ///< futures whose callback ran at retire
  std::uint64_t rename_bytes = 0;   ///< current renamed storage charged here
  std::uint64_t renames = 0;
  std::uint64_t dep_accesses = 0;
  std::uint64_t dep_edges = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
};

/// One worker's row in StatsSnapshot (index = worker id, 0 = main thread).
struct WorkerStatsRow {
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t acquired_high = 0;
  std::uint64_t acquired_own = 0;
  std::uint64_t acquired_main = 0;
  std::uint64_t idle_sleeps = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t locality_hits = 0;
  std::uint64_t locality_misses = 0;
  std::uint64_t chained = 0;
};

/// Aggregate view returned by Runtime::stats().
struct StatsSnapshot {
  // creation side (main thread)
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_inlined = 0;  ///< nested spawns run as function calls
  std::uint64_t tasks_nested = 0;   ///< real child tasks (nested mode only)
  std::uint64_t taskwaits = 0;      ///< Runtime::taskwait() calls
  /// In-task submissions that hit the task-window/rename-memory limit and
  /// drained ready tasks (a best-effort, never-sleeping throttle — see
  /// Runtime::submit; the hard blocking conditions remain main-thread).
  std::uint64_t nested_throttled = 0;
  /// Foreign-thread submissions that hit the task-window/rename-memory limit
  /// and slept on the gate until the graph drained below the low-water mark
  /// (a foreign thread executes no tasks, so it blocks hard instead of
  /// draining — see Runtime::submit).
  std::uint64_t foreign_throttled = 0;
  std::uint64_t ready_at_creation = 0;
  std::uint64_t barriers = 0;
  std::uint64_t main_blocked_on_window = 0;
  std::uint64_t main_blocked_on_memory = 0;

  // dependency engine
  std::uint64_t raw_edges = 0;
  std::uint64_t war_edges = 0;
  std::uint64_t waw_edges = 0;
  std::uint64_t renames = 0;
  std::uint64_t rename_bytes_total = 0;
  std::uint64_t rename_bytes_peak = 0;
  std::uint64_t in_place_reuses = 0;
  std::uint64_t copy_ins = 0;
  std::uint64_t copy_in_bytes = 0;
  std::uint64_t copyback_bytes = 0;
  std::uint64_t tracked_objects = 0;
  /// Lost CAS races on the dependency chain heads (publication retries +
  /// aborted reader pins); always zero with a single submitter.
  std::uint64_t lockfree_cas_retries = 0;
  std::uint64_t region_accesses = 0;

  // commuting access groups (Dir::Commutative / Dir::Concurrent)
  std::uint64_t groups_opened = 0;   ///< commuting groups created
  std::uint64_t group_joins = 0;     ///< member accesses folded into a group
  std::uint64_t groups_closed = 0;   ///< groups sealed by a non-matching access/barrier
  std::uint64_t commute_edges = 0;   ///< member -> close completion edges
  std::uint64_t conflict_deferrals = 0;  ///< token-busy parks (summed)
  std::uint64_t conflict_wakeups = 0;    ///< parked members re-enqueued

  // execution side (summed over workers)
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t acquired_high = 0;
  std::uint64_t acquired_own = 0;
  std::uint64_t acquired_main = 0;
  std::uint64_t idle_sleeps = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t locality_hits = 0;
  std::uint64_t locality_misses = 0;
  /// One row per worker (summed into the aggregates above).
  std::vector<WorkerStatsRow> workers;

  // retire fast path (summed over workers; see Config::chain_depth)
  std::uint64_t chained_executions = 0;
  std::uint64_t batched_releases = 0;
  std::uint64_t wakeups_suppressed = 0;

  // pooled task/closure allocator
  std::uint64_t pool_hits = 0;     ///< node+closure allocs served from lists
  std::uint64_t pool_refills = 0;  ///< batched trips to the overflow list
  std::uint64_t pool_slabs = 0;    ///< slab mallocs (the only real allocs)

  // service mode (empty/zero when no stream was ever opened)
  std::vector<StreamStats> streams;
  std::uint64_t stream_submitted = 0;  ///< sum over streams
  std::uint64_t stream_retired = 0;
  std::uint64_t stream_throttled = 0;
  std::uint64_t service_latency_count = 0;  ///< merged over streams
  std::uint64_t service_p50_ns = 0;
  std::uint64_t service_p99_ns = 0;

  // snapshot consistency (see Runtime::stats): the counters above were
  // gathered execution-side-first behind a seq_cst fence, and re-read until
  // two passes agreed (or the attempt bound was hit). `snapshot_epoch` is
  // the spawned_ value the accepted pass observed — monotone across calls.
  std::uint64_t snapshot_epoch = 0;
  bool snapshot_consistent = false;
};

}  // namespace smpss
