// Spawn throughput with 1–8 concurrent in-task submitters on the CAS
// version-chain pipeline (no dependency mutex on the submission path).
//
// Each submitter is a generator task that spawns a stream of small
// dependent tasks over its own private lanes; generators run on distinct
// workers, so their submissions hit the dependency pipeline concurrently.
// The reported rate counts every spawned task (generators + children) per
// second of wall time, end to end (analysis + scheduling + execution of
// trivial bodies).
//
// CI's perf gate runs it against the parent commit in alternating pairs
// (tools/perfbench_ab.py --bench submission_throughput; docs/BENCHMARKS.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "runtime/runtime.hpp"

namespace {

constexpr int kChildrenPerSubmitter = 4000;
constexpr int kLanesPerSubmitter = 64;

void run_submission_round(smpss::Runtime& rt, int submitters,
                          std::vector<std::vector<long>>& lanes) {
  for (int s = 0; s < submitters; ++s) {
    rt.spawn(
        [&rt](long* lane0) {
          for (int i = 0; i < kChildrenPerSubmitter; ++i)
            rt.spawn([](long* q) { *q += 1; },
                     smpss::inout(lane0 + (i % kLanesPerSubmitter)));
          rt.taskwait();
        },
        smpss::inout(lanes[static_cast<std::size_t>(s)].data(),
                     kLanesPerSubmitter));
  }
  rt.barrier();
}

// The series keeps its historical name: a renamed row reads `new` in the
// perf gate and goes ungated for the change that renames it.
void BM_SpawnThroughput_Lockfree(benchmark::State& state) {
  const int submitters = static_cast<int>(state.range(0));
  smpss::Config cfg;
  cfg.nested_tasks = true;
  // One worker per generator plus the main thread; children interleave on
  // the same workers, so submission and execution contend realistically.
  cfg.num_threads = static_cast<unsigned>(submitters) + 1;
  cfg.task_window = 1u << 20;  // measure the pipeline, not the throttle
  smpss::Runtime rt(cfg);

  std::vector<std::vector<long>> lanes(static_cast<std::size_t>(submitters));
  for (auto& l : lanes) l.assign(kLanesPerSubmitter, 0);

  std::uint64_t tasks = 0;
  for (auto _ : state) {
    run_submission_round(rt, submitters, lanes);
    tasks += static_cast<std::uint64_t>(submitters) *
             (kChildrenPerSubmitter + 1);
  }
  state.counters["tasks_per_s"] =
      benchmark::Counter(static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.counters["submitters"] =
      benchmark::Counter(static_cast<double>(submitters));
}

void submitter_axis(benchmark::internal::Benchmark* b) {
  for (long s : {1L, 2L, 4L, 8L}) b->Arg(s);
}

}  // namespace

BENCHMARK(BM_SpawnThroughput_Lockfree)->Apply(submitter_axis)->UseRealTime();
