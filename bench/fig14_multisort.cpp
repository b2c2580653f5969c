// Fig. 14 — "Performance of multisort varying the number of processors."
//
// Four series over the same decomposition: SMPSs (array regions) and the
// three dependency-unaware baselines, one recursion run on three task
// frames: the Cilk-like fork-join scheduler, the OMP3-like task pool and
// real OpenMP tasks (skipped without OpenMP). The reported counter is
// speedup vs. the sequential multisort, matching the paper's y-axis.
// Expected shape: all four scale similarly, SMPSs slightly ahead (it needs
// no barriers between merge levels — dependencies release merges as their
// inputs arrive).
#include <benchmark/benchmark.h>

#include <mutex>
#include <vector>

#include "apps/multisort.hpp"
#include "baselines/omp_real/omp_tasks.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"

namespace {

using namespace smpss;
using apps::ELM;

constexpr long kQuick = 1 << 15;
constexpr long kMerge = 1 << 14;

long problem_size() { return (1L << 22) * benchutil::bench_scale(); }

const std::vector<ELM>& input_data() {
  static std::vector<ELM> data = [] {
    Xoshiro256 rng(14);
    std::vector<ELM> v(static_cast<std::size_t>(problem_size()));
    for (auto& x : v) x = static_cast<ELM>(rng.next());
    return v;
  }();
  return data;
}

double sequential_seconds() {
  static std::once_flag flag;
  static double secs = 0.0;
  std::call_once(flag, [] {
    auto data = input_data();
    std::vector<ELM> tmp(data.size());
    auto t0 = now_ns();
    apps::multisort_seq(data.data(), tmp.data(),
                        static_cast<long>(data.size()), kQuick);
    secs = seconds_between(t0, now_ns());
  });
  return secs;
}

template <typename RunFn>
void run_sort_bench(benchmark::State& state, RunFn&& run) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const long n = problem_size();
  double total = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto data = input_data();
    std::vector<ELM> tmp(data.size());
    state.ResumeTiming();
    auto t0 = now_ns();
    run(threads, data.data(), tmp.data(), n);
    total += seconds_between(t0, now_ns());
  }
  double mean = total / static_cast<double>(state.iterations());
  state.counters["speedup_vs_seq"] = sequential_seconds() / mean;
  state.counters["threads"] = threads;
}

void BM_MultisortSmpss(benchmark::State& state) {
  run_sort_bench(state, [](unsigned threads, ELM* d, ELM* t, long n) {
    Config cfg;
    cfg.num_threads = threads;
    Runtime rt(cfg);
    auto tt = apps::MultisortTasks::register_in(rt);
    apps::multisort_smpss_regions(rt, tt, d, t, n, kQuick, kMerge);
  });
}

void BM_MultisortForkJoin(benchmark::State& state) {
  run_sort_bench(state, [](unsigned threads, ELM* d, ELM* t, long n) {
    fj::Scheduler s(threads);
    apps::multisort_fj(s, d, t, n, kQuick, kMerge);
  });
}

void BM_MultisortTaskPool(benchmark::State& state) {
  run_sort_bench(state, [](unsigned threads, ELM* d, ELM* t, long n) {
    omp3::TaskPool p(threads);
    apps::multisort_omp3(p, d, t, n, kQuick, kMerge);
  });
}

void BM_MultisortOmpReal(benchmark::State& state) {
  if (!ompreal::available()) {
    state.SkipWithError("built without OpenMP");
    return;
  }
  run_sort_bench(state, [](unsigned threads, ELM* d, ELM* t, long n) {
    apps::multisort_omp(threads, d, t, n, kQuick, kMerge);
  });
}

BENCHMARK(BM_MultisortSmpss)
    ->Name("Fig14/SMPSs")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_MultisortForkJoin)
    ->Name("Fig14/Cilk-like")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_MultisortTaskPool)
    ->Name("Fig14/OMP3-like")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_MultisortOmpReal)
    ->Name("Fig14/OpenMP-real")
    ->Apply(benchutil::apply_thread_axis)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
