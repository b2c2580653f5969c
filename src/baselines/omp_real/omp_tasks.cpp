#include "baselines/omp_real/omp_tasks.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "apps/multisort.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smpss::ompreal {

#if !defined(_OPENMP)

bool available() noexcept { return false; }
unsigned max_threads() noexcept { return 0; }
bool multisort(long*, long*, long, long, long, unsigned) { return false; }
long nqueens(int, int, unsigned) { return -1; }

#else

bool available() noexcept { return true; }

unsigned max_threads() noexcept {
  return static_cast<unsigned>(omp_get_max_threads());
}

namespace {

using apps::ELM;

void omp_merge(const ELM* a, long la, const ELM* b, long lb, ELM* out,
               long t0, long t1, long merge_size);

void omp_sort(ELM* data, ELM* tmp, long i, long j, long quick_size,
              long merge_size) {
  long size = j - i + 1;
  if (size < quick_size || size < 8) {
    apps::seqquick(data, i, j);
    return;
  }
  long q = size / 4;
  long i1 = i, j1 = i + q - 1;
  long i2 = i + q, j2 = i + 2 * q - 1;
  long i3 = i + 2 * q, j3 = i + 3 * q - 1;
  long i4 = i + 3 * q, j4 = j;
#pragma omp task default(shared)
  omp_sort(data, tmp, i1, j1, quick_size, merge_size);
#pragma omp task default(shared)
  omp_sort(data, tmp, i2, j2, quick_size, merge_size);
#pragma omp task default(shared)
  omp_sort(data, tmp, i3, j3, quick_size, merge_size);
  omp_sort(data, tmp, i4, j4, quick_size, merge_size);
#pragma omp taskwait
#pragma omp task default(shared)
  omp_merge(data + i1, j1 - i1 + 1, data + i2, j2 - i2 + 1, tmp + i1, 0,
            j2 - i1 + 1, merge_size);
  omp_merge(data + i3, j3 - i3 + 1, data + i4, j4 - i4 + 1, tmp + i3, 0,
            j4 - i3 + 1, merge_size);
#pragma omp taskwait
  omp_merge(tmp + i1, j2 - i1 + 1, tmp + i3, j4 - i3 + 1, data + i1, 0,
            j4 - i1 + 1, merge_size);
#pragma omp taskwait
}

void omp_merge(const ELM* a, long la, const ELM* b, long lb, ELM* out,
               long t0, long t1, long merge_size) {
  if (t1 - t0 <= merge_size) {
    apps::merge_piece(a, la, b, lb, t0, t1, out);
    return;
  }
  long mid = (t0 + t1) / 2;
#pragma omp task default(shared)
  omp_merge(a, la, b, lb, out, t0, mid, merge_size);
  omp_merge(a, la, b, lb, out, mid, t1, merge_size);
#pragma omp taskwait
}

bool nq_safe(const int* board, int d, int c) {
  for (int k = 0; k < d; ++k) {
    int bc = board[k];
    if (bc == c || std::abs(bc - c) == d - k) return false;
  }
  return true;
}

long nq_count_tail(int* board, int d, int n) {
  if (d == n) return 1;
  long total = 0;
  for (int c = 0; c < n; ++c) {
    if (nq_safe(board, d, c)) {
      board[d] = c;
      total += nq_count_tail(board, d + 1, n);
    }
  }
  return total;
}

void nq_rec(std::vector<int> board, int d, int n, int cutoff,
            std::atomic<long>& total) {
  if (d >= cutoff) {
    total.fetch_add(nq_count_tail(board.data(), d, n),
                    std::memory_order_relaxed);
    return;
  }
  for (int c = 0; c < n; ++c) {
    if (!nq_safe(board.data(), d, c)) continue;
    // Per-task copy of the partial solution array, as the paper describes
    // for the OpenMP tasking version.
    std::vector<int> child = board;
    child[d] = c;
#pragma omp task default(shared) firstprivate(child, d)
    nq_rec(std::move(child), d + 1, n, cutoff, total);
  }
#pragma omp taskwait
}

}  // namespace

bool multisort(long* data, long* tmp, long n, long quick_size,
               long merge_size, unsigned threads) {
#pragma omp parallel num_threads(static_cast<int>(threads))
  {
#pragma omp single nowait
    omp_sort(data, tmp, 0, n - 1, quick_size, merge_size);
  }
  return true;
}

long nqueens(int n, int task_depth, unsigned threads) {
  const int cutoff = std::max(0, n - task_depth);
  std::atomic<long> total{0};
#pragma omp parallel num_threads(static_cast<int>(threads))
  {
#pragma omp single nowait
    nq_rec(std::vector<int>(static_cast<std::size_t>(n), 0), 0, n, cutoff,
           total);
  }
  return total.load(std::memory_order_relaxed);
}

#endif  // _OPENMP

}  // namespace smpss::ompreal
