// Placement bench: the same dependency-pattern graphs the conformance
// harness proves correct, timed under the Sec. III ready lists at compute
// grain on three families where placement and locality matter:
//   * stencil_1d — neighbor dataflow; a released task lands on the list of
//     the worker that removed its last dependence, next to its inputs.
//   * tree       — widening fan-out from a serial spine; the spine's
//     releases must keep the workers fed without starving the leaves.
//   * random_nearest — irregular mostly-local dependences, with no regular
//     structure for placement to lean on.
//
// Bodies carry a compute grain: with empty bodies the run measures pure
// enqueue/dequeue overhead, not placement. Each row reports tasks/s plus
// steals_per_ktask and locality_hit_ratio (the share of own-list placements
// that ran on the worker they were placed toward). The row names keep their
// `_paper` suffix so cached baselines keep matching; tools/bench_compare.py
// gates BENCH_sched.json at 20%.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_common.hpp"
#include "patterns/driver.hpp"

namespace {

using namespace smpss;
using namespace smpss::patterns;

constexpr unsigned kThreads = 4;

PatternSpec sched_spec(PatternKind kind) {
  PatternSpec s;
  s.kind = kind;
  s.width = 32 * smpss::benchutil::bench_scale();
  s.steps = 24;
  s.radix = 4;
  s.period = 3;
  s.seed = 0x5C4ED;
  // Enough work per body that placement matters (and that execution, not
  // submission, is the bottleneck — placement only counts once workers are
  // choosing between ready tasks).
  s.kernel = {KernelKind::Compute, 1024};
  return s;
}

void BM_SchedPolicy(benchmark::State& state, PatternKind kind) {
  const PatternSpec spec = sched_spec(kind);
  RunOptions opt;
  opt.cfg.num_threads = kThreads;
  opt.cfg.task_window = 1u << 16;
  opt.mode = address_mode_ok(spec) ? LowerMode::Address : LowerMode::Region;
  std::uint64_t tasks = 0;
  std::uint64_t sink = 0;
  std::uint64_t steals = 0, hits = 0, misses = 0;
  for (auto _ : state) {
    RunResult r = run_pattern(spec, opt);
    sink ^= image_checksum(r.image);
    tasks += spec.total_tasks();
    steals += r.stats.steals;
    hits += r.stats.locality_hits;
    misses += r.stats.locality_misses;
  }
  benchmark::DoNotOptimize(sink);
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.counters["steals_per_ktask"] =
      1000.0 * static_cast<double>(steals) / static_cast<double>(tasks);
  const double placed = static_cast<double>(hits + misses);
  state.counters["locality_hit_ratio"] =
      placed > 0 ? static_cast<double>(hits) / placed : 0.0;
}

}  // namespace

BENCHMARK_CAPTURE(BM_SchedPolicy, stencil_1d_paper, PatternKind::Stencil1D)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_SchedPolicy, tree_paper, PatternKind::Tree)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_SchedPolicy, random_nearest_paper,
                  PatternKind::RandomNearest)
    ->UseRealTime();
