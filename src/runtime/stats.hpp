// Runtime statistics: the StatsSnapshot that Runtime::stats() fills on
// demand from the counter tables (common/counters.hpp), the rename and slab
// pools and the streams. The ablation benches and several tests key off
// these (e.g. "Strassen is an intensive renaming test case" is asserted via
// renames > 0, locality via steal ratios).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.hpp"

namespace smpss {

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
  std::uint64_t latency_count = 0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
};

/// One worker's row in StatsSnapshot (index = worker id, 0 = main thread):
/// one field per row of SMPSS_WORKER_COUNTERS.
struct WorkerStatsRow {
#define SMPSS_ROW_FIELD(row, total) std::uint64_t row = 0;
  SMPSS_WORKER_COUNTERS(SMPSS_ROW_FIELD)
#undef SMPSS_ROW_FIELD
};

/// Aggregate view returned by Runtime::stats().
struct StatsSnapshot {
  std::uint64_t tasks_spawned = 0;

  // One field per counter-table row (common/counters.hpp): the submission
  // and dependency counters, then each worker counter summed over workers.
#define SMPSS_SNAPSHOT_FIELD(name) std::uint64_t name = 0;
#define SMPSS_SNAPSHOT_TOTAL(row, total) std::uint64_t total = 0;
  SMPSS_SUBMIT_COUNTERS(SMPSS_SNAPSHOT_FIELD)
  SMPSS_DEP_COUNTERS(SMPSS_SNAPSHOT_FIELD)
  SMPSS_WORKER_COUNTERS(SMPSS_SNAPSHOT_TOTAL)
#undef SMPSS_SNAPSHOT_FIELD
#undef SMPSS_SNAPSHOT_TOTAL
  /// One row per worker (summed into the totals above).
  std::vector<WorkerStatsRow> workers;

  // rename pool
  std::uint64_t renames = 0;
  std::uint64_t rename_bytes_total = 0;
  std::uint64_t rename_bytes_peak = 0;

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
