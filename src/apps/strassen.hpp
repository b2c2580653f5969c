// Strassen matrix multiplication over hyper-matrices (paper Sec. VI.C).
//
// "Strassen's algorithm makes heavy usage of temporary matrices, which
// combined with a recursive implementation, results in an intensive renaming
// test case." We reproduce that structure deliberately: each recursion level
// keeps only TWO operand temporaries (tS for left-operand sums, tT for
// right-operand sums) and reuses them across the seven products. Every reuse
// is a WAW/WAR hazard on live data that renaming absorbs without
// serializing — with renaming disabled the graph collapses to a chain
// (asserted in the ablation tests/bench).
#pragma once

#include <cstdint>

#include "blas/kernels.hpp"
#include "hyper/hyper_matrix.hpp"
#include "runtime/runtime.hpp"

namespace smpss::apps {

struct StrassenTasks {
  TaskType mul, add, sub, acc, rec;
  static StrassenTasks register_in(Runtime& rt);
};

/// C = A * B (overwrite) by Strassen's recursion on the hyper-block level;
/// recursion bottoms out at single blocks (one sgemm task each). The number
/// of blocks per side must be a power of two. Spawns tasks and runs to the
/// barrier.
///
/// With Config::nested_tasks enabled the recursion itself runs as tasks
/// (one `strassen_rec` generator task per product) instead of being fully
/// unrolled on the main thread: each generator emits its block tasks from a
/// worker and taskwait()s. Two structural changes versus the inline build:
/// operand temporaries are per-product instead of reused (sibling subtrees
/// submit concurrently, so the reuse hazard that renaming absorbs under
/// program order would be submission-order-dependent), and the seven
/// products are joined with a taskwait before the combination tasks are
/// emitted (a child's writes must be *submitted* before the parent's reads
/// are analyzed).
void strassen_smpss(Runtime& rt, const StrassenTasks& tt, HyperMatrix& A,
                    HyperMatrix& B, HyperMatrix& C, const blas::Kernels& k);

/// Strassen's operation count (the paper reports Gflops "calculated using
/// Strassen's formula"): 7 recursive products + 18 half-size additions per
/// level, 2 m^3 per leaf product.
double strassen_flops(int nb, int m);

}  // namespace smpss::apps
