// Commutative-mode payoff bench: push-style PageRank (apps/pagerank.hpp)
// with its per-destination-block accumulators lowered two ways:
//
//   * inout       — the paper-faithful vocabulary: all scatter tasks hitting
//                   one accumulator chain in program order, an O(blocks^2)
//                   serialization per iteration that the dataflow never
//                   asked for.
//   * commutative — the same tasks under Dir::Commutative: mutual exclusion
//                   through the group's conflict token, no ordering, so any
//                   ready writer runs the moment the token is free.
//
// Both rows produce bit-identical ranks (fixed-point integer arithmetic);
// every iteration is checked against the sequential oracle, so the speedup
// is never bought with a wrong answer. CI's perf gate runs it against the
// parent commit like the other gated benches (docs/BENCHMARKS.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "apps/pagerank.hpp"
#include "bench_common.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace smpss;

struct Problem {
  int n, degree, iters, block;
};

Problem problem() {
  const int scale = benchutil::bench_scale();
  return Problem{2048 * scale, 8, 4, 128};
}

void BM_PageRank(benchmark::State& state, bool use_commutative) {
  const Problem pr = problem();
  const unsigned nthreads = static_cast<unsigned>(state.range(0));

  std::vector<std::int64_t> want(static_cast<std::size_t>(pr.n));
  apps::pagerank_init(pr.n, want.data());
  apps::pagerank_seq(pr.n, pr.degree, pr.iters, want.data());

  std::vector<std::int64_t> ranks(static_cast<std::size_t>(pr.n));
  std::vector<std::int64_t> accum(static_cast<std::size_t>(pr.n));
  std::uint64_t tasks = 0, deferrals = 0, wakeups = 0;
  for (auto _ : state) {
    apps::pagerank_init(pr.n, ranks.data());
    Config cfg;
    cfg.num_threads = nthreads;
    Runtime rt(cfg);
    const apps::PageRankTasks tt = apps::PageRankTasks::register_in(rt);
    apps::pagerank_smpss(rt, tt, pr.n, pr.degree, pr.iters, pr.block,
                         ranks.data(), accum.data(), use_commutative);
    const StatsSnapshot s = rt.stats();
    tasks += s.tasks_spawned;
    deferrals += s.conflict_deferrals;
    wakeups += s.conflict_wakeups;
    if (ranks != want) {
      state.SkipWithError("ranks diverged from the sequential oracle");
      return;
    }
  }
  const double iters_done = static_cast<double>(state.iterations());
  state.counters["edges_per_s"] = benchmark::Counter(
      iters_done * static_cast<double>(pr.n) * pr.degree * pr.iters,
      benchmark::Counter::kIsRate);
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.counters["deferrals_per_ktask"] =
      tasks ? 1000.0 * static_cast<double>(deferrals) /
                  static_cast<double>(tasks)
            : 0.0;
  state.counters["wakeups_per_ktask"] =
      tasks ? 1000.0 * static_cast<double>(wakeups) /
                  static_cast<double>(tasks)
            : 0.0;
}

}  // namespace

BENCHMARK_CAPTURE(BM_PageRank, commutative, true)
    ->Apply(smpss::benchutil::apply_thread_axis)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_PageRank, inout, false)
    ->Apply(smpss::benchutil::apply_thread_axis)
    ->UseRealTime();
