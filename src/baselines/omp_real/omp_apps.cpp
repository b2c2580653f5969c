// The real-OpenMP builds of the dependency-unaware baselines: the shared
// decompositions instantiated for ompreal::Frame. Compiled with OpenMP, as
// omp_tasks.cpp is, and kept out of the app objects so that only programs
// calling these two functions link the OpenMP runtime.
#include "apps/frame_decompositions.hpp"
#include "apps/nqueens.hpp"
#include "baselines/omp_real/omp_tasks.hpp"

namespace smpss::apps {

bool multisort_omp(unsigned threads, ELM* data, ELM* tmp, long n,
                   long quick_size, long merge_size) {
  return ompreal::run(threads, [&](ompreal::Frame& f) {
    dc_sort(f, data, tmp, 0, n - 1, quick_size, merge_size);
  });
}

long nqueens_omp(unsigned threads, int n, int task_depth) {
  std::atomic<long> total{0};
  const bool ran = ompreal::run(threads, [&](ompreal::Frame& f) {
    dc_queens_root(f, n, task_depth, total);
  });
  return ran ? total.load(std::memory_order_relaxed) : -1;
}

}  // namespace smpss::apps
