// Per-task overhead microbench for the retire-side fast path: spawn+retire
// latency with near-empty bodies, isolating what the runtime itself costs
// per task. Three shapes, each stressing one layer of the completion-side
// path, so CI's perf gate tracks every layer separately:
//
//   * independent  — N tasks with no edges: pure spawn/retire churn on the
//     pooled TaskNode/closure storage.
//   * chain1       — one long inout chain: every completion releases exactly
//     one successor. Its two rows are the ablation pair: immediate chaining
//     (Config::chain_depth) and the paper-faithful list round trip
//     (chain_depth = 0).
//   * fanout       — a producer releasing W readers per round: the batched
//     release path (one list publication + at most one wakeup per burst).
//   * stencil      — stencil_1d-shaped spawns (3 in + 1 out over two
//     fields, width 64), the shape of perfbench's stencil_fine. At 4
//     threads nearly every task is ready when it is created, so the row
//     measures the submitter's own cost per spawn and what it shares with
//     the workers retiring earlier tasks.
//
// CI's perf gate runs it against the parent commit in alternating pairs
// (tools/perfbench_ab.py --bench task_overhead; docs/BENCHMARKS.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "runtime/runtime.hpp"

namespace {

smpss::Config overhead_config(unsigned chain_depth) {
  smpss::Config cfg;
  cfg.num_threads = 4;
  cfg.chain_depth = chain_depth;
  cfg.task_window = 1u << 16;  // measure the lifecycle, not the throttle
  return cfg;
}

void report(benchmark::State& state, std::uint64_t tasks,
            const smpss::Runtime& rt) {
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.counters["ns_per_task"] = benchmark::Counter(
      static_cast<double>(tasks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  const auto s = rt.stats();
  state.counters["chained"] =
      benchmark::Counter(static_cast<double>(s.chained_executions));
  state.counters["pool_hits"] =
      benchmark::Counter(static_cast<double>(s.pool_hits));
  state.counters["wakeups_suppressed"] =
      benchmark::Counter(static_cast<double>(s.wakeups_suppressed));
}

// --- independent: spawn/retire churn ------------------------------------------

constexpr int kIndependentTasks = 20000;

void BM_TaskOverhead_Independent_Pooled(benchmark::State& state) {
  smpss::Runtime rt(overhead_config(smpss::Config{}.chain_depth));
  std::vector<long> lanes(256, 0);
  std::uint64_t tasks = 0;
  for (auto _ : state) {
    for (int i = 0; i < kIndependentTasks; ++i)
      rt.spawn([](long* p) { *p += 1; }, smpss::inout(&lanes[i % 256]));
    rt.barrier();
    tasks += kIndependentTasks;
  }
  report(state, tasks, rt);
}

// --- chain1: immediate-successor chaining ablation ---------------------------

constexpr int kChainLen = 20000;

void chain_bench(benchmark::State& state, unsigned chain_depth) {
  smpss::Runtime rt(overhead_config(chain_depth));
  long x = 0;
  std::uint64_t tasks = 0;
  for (auto _ : state) {
    for (int i = 0; i < kChainLen; ++i)
      rt.spawn([](long* p) { *p += 1; }, smpss::inout(&x));
    rt.barrier();
    tasks += kChainLen;
  }
  report(state, tasks, rt);
}

void BM_TaskOverhead_Chain1_Chained(benchmark::State& state) {
  chain_bench(state, smpss::Config{}.chain_depth);
}
void BM_TaskOverhead_Chain1_ListRoundTrip(benchmark::State& state) {
  chain_bench(state, /*chain_depth=*/0);
}

// --- fanout: batched multi-successor release ---------------------------------

constexpr int kFanRounds = 200;
constexpr int kFanWidth = 64;

void BM_TaskOverhead_FanOut(benchmark::State& state) {
  smpss::Runtime rt(overhead_config(smpss::Config{}.chain_depth));
  long src = 0;
  std::vector<long> sinks(kFanWidth, 0);
  std::uint64_t tasks = 0;
  for (auto _ : state) {
    for (int r = 0; r < kFanRounds; ++r) {
      rt.spawn([](long* p) { *p += 1; }, smpss::inout(&src));
      for (int w = 0; w < kFanWidth; ++w)
        rt.spawn(
            [](const long* s, long* d) { *d += *s; }, smpss::in(&src),
            smpss::inout(&sinks[w]));
    }
    rt.barrier();
    tasks += static_cast<std::uint64_t>(kFanRounds) * (kFanWidth + 1);
  }
  report(state, tasks, rt);
  state.counters["batched_releases"] = benchmark::Counter(
      static_cast<double>(rt.stats().batched_releases));
}

// --- stencil: the submitter's cost when tasks are ready at creation ---------

constexpr int kStencilWidth = 64;
constexpr int kStencilSteps = 256;

void BM_TaskOverhead_StencilReady(benchmark::State& state) {
  smpss::Runtime rt(overhead_config(smpss::Config{}.chain_depth));
  // Step s reads three neighbours (periodic) of field s % 2 and writes one
  // point of the other field.
  std::vector<long> fields(2 * kStencilWidth, 0);
  std::uint64_t tasks = 0;
  for (auto _ : state) {
    for (int s = 0; s < kStencilSteps; ++s) {
      const long* src = &fields[(s % 2) * kStencilWidth];
      long* dst = &fields[((s + 1) % 2) * kStencilWidth];
      for (int p = 0; p < kStencilWidth; ++p)
        rt.spawn([](const long*, const long*, const long*, long*) {},
                 smpss::in(&src[(p + kStencilWidth - 1) % kStencilWidth]),
                 smpss::in(&src[p]),
                 smpss::in(&src[(p + 1) % kStencilWidth]),
                 smpss::out(&dst[p]));
    }
    rt.barrier();
    tasks += static_cast<std::uint64_t>(kStencilSteps) * kStencilWidth;
  }
  report(state, tasks, rt);
  state.counters["ready_at_creation"] = benchmark::Counter(
      static_cast<double>(rt.stats().ready_at_creation));
}

}  // namespace

BENCHMARK(BM_TaskOverhead_Independent_Pooled)->UseRealTime();
BENCHMARK(BM_TaskOverhead_Chain1_Chained)->UseRealTime();
BENCHMARK(BM_TaskOverhead_Chain1_ListRoundTrip)->UseRealTime();
BENCHMARK(BM_TaskOverhead_FanOut)->UseRealTime();
BENCHMARK(BM_TaskOverhead_StencilReady)->UseRealTime();
