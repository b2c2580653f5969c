// Runtime configuration. Defaults follow the paper; every knob is also
// readable from the environment (the original SMPSs distribution was
// configured through CSS_* variables such as CSS_NUM_CPUS — we use the
// SMPSS_ prefix).
//
//   SMPSS_NUM_THREADS       total threads including the main thread
//   SMPSS_TASK_WINDOW       graph-size blocking condition (live tasks)
//   SMPSS_RENAME_MEMORY_MB  renamed-storage blocking condition
//   SMPSS_RENAMING          0/1 — disable/enable renaming
//   SMPSS_NESTED            0/1 — real nested tasks instead of inlining
//   SMPSS_CHAIN_DEPTH       max chained executions per acquire (0 = off)
//   SMPSS_SCHEDULER         distributed | centralized
//   SMPSS_STEAL_ORDER       creation | random
//   SMPSS_PIN_THREADS       0/1
//   SMPSS_TRACE             0/1 — record per-task timing events
//   SMPSS_RECORD_GRAPH      0/1 — record nodes/edges for DOT export
//   SMPSS_STATS_PERIOD_MS   periodic JSON stats exporter period (0 = off)
//   SMPSS_STATS_FILE        exporter destination ("" = stderr, appended)
//
// A variable that is set must parse and lie in range: from_env() fails a
// check naming the variable and the values it accepts, so a misspelt
// ablation knob never runs (and measures) the default.
#pragma once

#include <cstddef>
#include <string>

#include "sched/ready_lists.hpp"

namespace smpss {

struct Config {
  /// Total threads, main thread included ("the runtime creates as many
  /// worker threads as necessary to fill out the rest of the cores").
  /// 0 means use all available cores.
  unsigned num_threads = 0;

  /// Graph-size blocking condition: when the number of live (not yet
  /// completed) tasks reaches this, the main thread behaves as a worker
  /// until it drops to half of it.
  std::size_t task_window = 8192;

  /// Renamed-storage blocking condition, in bytes.
  std::size_t rename_memory_limit = std::size_t(512) << 20;

  /// Data renaming (paper default on; off reproduces a dependency-unaware
  /// WAR/WAW-edge runtime for the ablation benches).
  bool renaming = true;

  /// Nested task parallelism. Off (the paper-faithful default, Sec. VII.D)
  /// demotes a spawn from inside a task to a plain inline function call. On,
  /// any thread may submit real tasks: the per-datum version chains are
  /// published by CAS (per-datum serialization, as in the later BSC
  /// runtimes that lifted this restriction; see dep/dependency_analyzer.hpp),
  /// tasks track their parent, and Runtime::taskwait() waits for the calling
  /// task's children while executing other ready tasks.
  bool nested_tasks = false;

  /// Immediate-successor chaining bound: when completing a task releases
  /// exactly one successor (and no high-priority task is pending), the
  /// worker runs it directly — no ready-list push/pop, no wakeup — up to
  /// this many times per acquire before returning to the normal lookup
  /// policy (which keeps stealing/high-priority latency bounded). 0 turns
  /// chaining off and reproduces the paper's pure list-driven dispatch.
  unsigned chain_depth = 16;

  /// Per-submitter-slot cache size (in blocks) of the pooled TaskNode,
  /// closure, edge and version allocators; also their refill batch size
  /// (at least one block).
  unsigned pool_cache = 64;

  SchedulerMode scheduler_mode = SchedulerMode::Distributed;
  StealOrder steal_order = StealOrder::CreationOrder;

  /// Record task nodes/edges for DOT export and graph statistics.
  bool record_graph = false;

  /// Record per-task execution events (timeline / Paraver export).
  bool tracing = false;

  /// Pin threads round-robin over the allowed CPUs.
  bool pin_threads = false;

  /// Period of the JSON stats exporter thread (one line per period with
  /// tasks/s, window occupancy, per-stream counters + latency percentiles).
  /// 0 disables the thread entirely.
  unsigned stats_period_ms = 0;

  /// Exporter destination, opened in append mode. Empty = stderr.
  std::string stats_path;

  /// Defaults overridden by SMPSS_* environment variables.
  static Config from_env();

  /// Clamp/derive dependent fields; called by the Runtime constructor.
  void normalize();
};

}  // namespace smpss
