// Fig. 15 — "Performance of N Queens varying the number of processors",
// speedup vs. the sequential version (the honest sequential version with a
// single solution array — "a sequential version should not contain
// artifacts necessary for a parallel paradigm").
//
// Four series: SMPSs and the three dependency-unaware baselines, one
// recursion run on three task frames (Cilk-like, OMP3-like, and real OpenMP
// when the build has it). Expected shape: all four scale; the baselines pay
// for their per-task manual board copies at every node while SMPSs's
// runtime-renamed copies are made only when a hazard requires one.
#include <benchmark/benchmark.h>

#include <mutex>

#include "apps/nqueens.hpp"
#include "baselines/omp_real/omp_tasks.hpp"
#include "bench_common.hpp"
#include "common/timing.hpp"

namespace {

using namespace smpss;

constexpr int kN = 13;
constexpr int kDepth = 10;

double sequential_seconds() {
  static std::once_flag flag;
  static double secs = 0.0;
  std::call_once(flag, [] {
    auto t0 = now_ns();
    benchmark::DoNotOptimize(apps::nqueens_seq(kN));
    secs = seconds_between(t0, now_ns());
  });
  return secs;
}

template <typename RunFn>
void run_bench(benchmark::State& state, RunFn&& run) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  double total = 0.0;
  long count = 0;
  for (auto _ : state) {
    auto t0 = now_ns();
    count = run(threads);
    total += seconds_between(t0, now_ns());
  }
  double mean = total / static_cast<double>(state.iterations());
  state.counters["speedup_vs_seq"] = sequential_seconds() / mean;
  state.counters["threads"] = threads;
  state.counters["solutions"] = static_cast<double>(count);
}

void BM_NQueensSmpss(benchmark::State& state) {
  run_bench(state, [](unsigned threads) {
    Config cfg;
    cfg.num_threads = threads;
    Runtime rt(cfg);
    auto tt = apps::NQueensTasks::register_in(rt);
    return apps::nqueens_smpss(rt, tt, kN, kDepth);
  });
}

void BM_NQueensForkJoin(benchmark::State& state) {
  run_bench(state, [](unsigned threads) {
    fj::Scheduler s(threads);
    return apps::nqueens_fj(s, kN, kDepth);
  });
}

void BM_NQueensTaskPool(benchmark::State& state) {
  run_bench(state, [](unsigned threads) {
    omp3::TaskPool p(threads);
    return apps::nqueens_omp3(p, kN, kDepth);
  });
}

BENCHMARK(BM_NQueensSmpss)
    ->Name("Fig15/SMPSs")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_NQueensForkJoin)
    ->Name("Fig15/Cilk-like")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_NQueensTaskPool)
    ->Name("Fig15/OMP3-like")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_NQueensOmpReal(benchmark::State& state) {
  if (!ompreal::available()) {
    state.SkipWithError("built without OpenMP");
    return;
  }
  run_bench(state, [](unsigned threads) {
    return apps::nqueens_omp(threads, kN, kDepth);
  });
}
BENCHMARK(BM_NQueensOmpReal)
    ->Name("Fig15/OpenMP-real")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
