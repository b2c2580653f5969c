// Ablation — nested task parallelism on/off (SMPSS_NESTED).
//
// The paper's runtime demotes task calls inside tasks to inline function
// calls (Sec. VII.D), so recursive workloads expose only the parallelism
// the outermost expansion creates — and pay the main thread's serial task
// generation for the whole tree. With nested mode on, the recursion itself
// runs as tasks: generation is spread over the workers and joined with
// taskwait. This bench quantifies the trade on the two recursive apps the
// paper stresses (Strassen: deep arithmetic recursion with temporaries;
// multisort: region-analyzed sort/merge tree) — nested wins when the tree
// is deep enough that serial generation is the bottleneck, and pays the
// concurrent submission path plus taskwait joins when it is not.
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/multisort.hpp"
#include "apps/strassen.hpp"
#include "bench_common.hpp"
#include "common/timing.hpp"
#include "hyper/flat_matrix.hpp"

namespace {

using namespace smpss;

void BM_StrassenNested(benchmark::State& state) {
  const bool nested = state.range(0) != 0;
  const int nb = 8, m = 64;
  const int n = nb * m;
  FlatMatrix a(n), b(n);
  fill_random(a, 5);
  fill_random(b, 6);
  HyperMatrix ha(nb, m, true), hb(nb, m, true);
  blocked_from_flat(ha, a.data());
  blocked_from_flat(hb, b.data());
  std::uint64_t nested_tasks = 0, taskwaits = 0, tasks = 0;
  for (auto _ : state) {
    HyperMatrix hc(nb, m, true);
    Config cfg;
    cfg.nested_tasks = nested;
    Runtime rt(cfg);
    auto tt = apps::StrassenTasks::register_in(rt);
    auto t0 = now_ns();
    apps::strassen_smpss(rt, tt, ha, hb, hc, blas::tuned_kernels());
    state.SetIterationTime(seconds_between(t0, now_ns()));
    nested_tasks = rt.stats().tasks_nested;
    taskwaits = rt.stats().taskwaits;
    tasks = rt.stats().tasks_executed;
  }
  state.counters["Gflops"] = benchmark::Counter(
      apps::strassen_flops(nb, m),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.counters["tasks"] = static_cast<double>(tasks);
  state.counters["nested_tasks"] = static_cast<double>(nested_tasks);
  state.counters["taskwaits"] = static_cast<double>(taskwaits);
}
BENCHMARK(BM_StrassenNested)
    ->Name("Ablation/Strassen-nested")
    ->Arg(0)->Arg(1)  // inline (paper) / nested spawn
    ->Unit(benchmark::kMillisecond)->UseManualTime();

void BM_MultisortNested(benchmark::State& state) {
  const bool nested = state.range(0) != 0;
  const long n = 1L << 20;
  const long quick = 4096, merge = 4096;
  std::vector<apps::ELM> init(static_cast<std::size_t>(n));
  Xoshiro256 rng(7);
  for (auto& x : init) x = static_cast<apps::ELM>(rng.next());
  std::uint64_t nested_tasks = 0, taskwaits = 0;
  for (auto _ : state) {
    std::vector<apps::ELM> data = init;
    std::vector<apps::ELM> tmp(data.size());
    Config cfg;
    cfg.nested_tasks = nested;
    Runtime rt(cfg);
    auto tt = apps::MultisortTasks::register_in(rt);
    auto t0 = now_ns();
    apps::multisort_smpss_regions(rt, tt, data.data(), tmp.data(), n, quick,
                                  merge);
    state.SetIterationTime(seconds_between(t0, now_ns()));
    nested_tasks = rt.stats().tasks_nested;
    taskwaits = rt.stats().taskwaits;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["nested_tasks"] = static_cast<double>(nested_tasks);
  state.counters["taskwaits"] = static_cast<double>(taskwaits);
}
BENCHMARK(BM_MultisortNested)
    ->Name("Ablation/Multisort-nested")
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseManualTime();

}  // namespace
