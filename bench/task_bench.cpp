// Task-bench-style overhead matrix over the dependency-pattern engine
// (Slaughter et al.'s "task bench" methodology): the same parameterized
// graphs the conformance harness proves correct, timed as tasks/second per
// dependence pattern × task grain, for SMPSs against the dependency-free
// baselines (fork-join, OMP3-style task pool).
//
// What each axis isolates:
//   * pattern  — dependency-analysis + scheduling cost per graph shape
//     (chains stress the version chains, stencils/fft the multi-input
//     wiring, all_to_all/spread the region analyzer's wide fan-in,
//     trivial the pure spawn/retire floor).
//   * grain    — how fast runtime overhead amortizes as bodies grow
//     (empty vs. compute-bound busywork).
//   * baseline — what the dependency analysis costs relative to runtimes
//     that make the *program* synchronize (a barrier per timestep).
//
// CI's perf gate runs it against the parent commit in alternating pairs
// (tools/perfbench_ab.py --bench task_bench; docs/BENCHMARKS.md), so every
// analyzer/scheduler change is gated against every pattern family here.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_common.hpp"
#include "patterns/driver.hpp"

namespace {

using namespace smpss;
using namespace smpss::patterns;

constexpr unsigned kThreads = 4;

PatternSpec bench_spec(PatternKind kind, KernelSpec kernel = {}) {
  PatternSpec s;
  s.kind = kind;
  // Wide-fan-in families run through the region analyzer whose conflict
  // scan is per-interval; keep their rows narrower so one iteration stays
  // in the same ballpark as the address-mode families.
  const bool wide = kind == PatternKind::AllToAll || kind == PatternKind::Spread;
  s.width = (wide ? 32 : 64) * smpss::benchutil::bench_scale();
  s.steps = 32;
  s.radix = 4;
  s.period = 3;
  s.seed = 0xBE7C;
  s.kernel = kernel;
  return s;
}

void report(benchmark::State& state, std::uint64_t tasks) {
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.counters["ns_per_task"] = benchmark::Counter(
      static_cast<double>(tasks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Patterns_SMPSs(benchmark::State& state, PatternKind kind,
                       KernelSpec kernel) {
  const PatternSpec spec = bench_spec(kind, kernel);
  RunOptions opt;
  opt.cfg.num_threads = kThreads;
  opt.cfg.task_window = 1u << 16;  // measure the engine, not the throttle
  opt.mode =
      address_mode_ok(spec) ? LowerMode::Address : LowerMode::Region;
  std::uint64_t tasks = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    RunResult r = run_pattern(spec, opt);
    sink ^= image_checksum(r.image);
    tasks += spec.total_tasks();
  }
  benchmark::DoNotOptimize(sink);
  report(state, tasks);
}

void BM_Patterns_TaskPool(benchmark::State& state, PatternKind kind) {
  const PatternSpec spec = bench_spec(kind);
  const int nf = default_fields(spec);
  std::uint64_t tasks = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= image_checksum(run_taskpool_baseline(spec, nf, kThreads));
    tasks += spec.total_tasks();
  }
  benchmark::DoNotOptimize(sink);
  report(state, tasks);
}

void BM_Patterns_ForkJoin(benchmark::State& state, PatternKind kind) {
  const PatternSpec spec = bench_spec(kind);
  const int nf = default_fields(spec);
  std::uint64_t tasks = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= image_checksum(run_forkjoin_baseline(spec, nf, kThreads));
    tasks += spec.total_tasks();
  }
  benchmark::DoNotOptimize(sink);
  report(state, tasks);
}

}  // namespace

// Every pattern family with empty bodies: pure per-shape engine overhead.
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, trivial, PatternKind::Trivial,
                  KernelSpec{})->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, chain, PatternKind::Chain, KernelSpec{})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, stencil_1d, PatternKind::Stencil1D,
                  KernelSpec{})->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, stencil_1d_periodic,
                  PatternKind::Stencil1DPeriodic, KernelSpec{})->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, fft, PatternKind::Fft, KernelSpec{})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, tree, PatternKind::Tree, KernelSpec{})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, random_nearest,
                  PatternKind::RandomNearest, KernelSpec{})->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, all_to_all, PatternKind::AllToAll,
                  KernelSpec{})->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, spread, PatternKind::Spread,
                  KernelSpec{})->UseRealTime();

// Grain sweep on one stencil family: overhead amortization as bodies grow.
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, stencil_1d_compute64,
                  PatternKind::Stencil1D,
                  KernelSpec{KernelKind::Compute, 64})->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, stencil_1d_compute1k,
                  PatternKind::Stencil1D,
                  KernelSpec{KernelKind::Compute, 1024})->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_SMPSs, stencil_1d_memory4,
                  PatternKind::Stencil1D,
                  KernelSpec{KernelKind::Memory, 4})->UseRealTime();

// Dependency-free baselines (program-side step barriers) for the headline
// families — the apples-to-apples comparison task-bench exists for.
BENCHMARK_CAPTURE(BM_Patterns_TaskPool, trivial, PatternKind::Trivial)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_TaskPool, stencil_1d, PatternKind::Stencil1D)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_ForkJoin, trivial, PatternKind::Trivial)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Patterns_ForkJoin, stencil_1d, PatternKind::Stencil1D)
    ->UseRealTime();
