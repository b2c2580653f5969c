// The dependency-unaware decompositions of multisort and N-queens, written
// once over a task frame: `spawn(fn)` runs fn(Frame&) as a child task and
// `sync()` waits for every child of the current task. fj::Context,
// omp3::TaskPool and ompreal::Frame provide the frame. The templates live in
// this header so that the real-OpenMP instantiation can sit in an object of
// its own (baselines/omp_real/omp_apps.cpp), the only app code compiled with
// OpenMP: a program that never calls multisort_omp or nqueens_omp then does
// not load the OpenMP runtime.
#pragma once

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "apps/multisort.hpp"

namespace smpss::apps {

// --- multisort ------------------------------------------------------------------

/// The four quarters [i1..j1] .. [i4..j4] of a multisort split of [i..j].
struct Quarters {
  long i1, j1, i2, j2, i3, j3, i4, j4;
};

inline Quarters split4(long i, long j) {
  long size = j - i + 1;
  long q = size / 4;
  Quarters s;
  s.i1 = i;           s.j1 = i + q - 1;
  s.i2 = i + q;       s.j2 = i + 2 * q - 1;
  s.i3 = i + 2 * q;   s.j3 = i + 3 * q - 1;
  s.i4 = i + 3 * q;   s.j4 = j;
  return s;
}

/// Merges output positions [t0, t1) of merge(a[0..la), b[0..lb)) into out,
/// halving the range down to `merge_size`: the first half is a child task,
/// the second runs inline.
template <typename Frame>
void dc_merge(Frame& f, const ELM* a, long la, const ELM* b, long lb,
              ELM* out, long t0, long t1, long merge_size) {
  if (t1 - t0 <= merge_size) {
    merge_piece(a, la, b, lb, t0, t1, out);
    return;
  }
  const long mid = (t0 + t1) / 2;
  f.spawn([=](Frame& c) { dc_merge(c, a, la, b, lb, out, t0, mid, merge_size); });
  dc_merge(f, a, la, b, lb, out, mid, t1, merge_size);
  f.sync();
}

/// The multisort recursion with sync() in place of the dependencies: the
/// quarter sorts, then the two half merges, then the final merge. Each
/// phase spawns every part but its last and runs the last inline, and each
/// call returns only after every task it spawned is done.
template <typename Frame>
void dc_sort(Frame& f, ELM* data, ELM* tmp, long i, long j, long quick_size,
             long merge_size) {
  const long size = j - i + 1;
  if (size < quick_size || size < 8) {
    seqquick(data, i, j);
    return;
  }
  const Quarters q = split4(i, j);
  f.spawn([=](Frame& c) { dc_sort(c, data, tmp, q.i1, q.j1, quick_size, merge_size); });
  f.spawn([=](Frame& c) { dc_sort(c, data, tmp, q.i2, q.j2, quick_size, merge_size); });
  f.spawn([=](Frame& c) { dc_sort(c, data, tmp, q.i3, q.j3, quick_size, merge_size); });
  dc_sort(f, data, tmp, q.i4, q.j4, quick_size, merge_size);
  f.sync();
  f.spawn([=](Frame& c) {
    dc_merge(c, data + q.i1, q.j1 - q.i1 + 1, data + q.i2, q.j2 - q.i2 + 1,
             tmp + q.i1, 0, q.j2 - q.i1 + 1, merge_size);
  });
  dc_merge(f, data + q.i3, q.j3 - q.i3 + 1, data + q.i4, q.j4 - q.i4 + 1,
           tmp + q.i3, 0, q.j4 - q.i3 + 1, merge_size);
  f.sync();
  dc_merge(f, tmp + q.i1, q.j2 - q.i1 + 1, tmp + q.i3, q.j4 - q.i3 + 1,
           data + q.i1, 0, q.j4 - q.i1 + 1, merge_size);
}

// --- N-queens -------------------------------------------------------------------

/// Queen at (d, c) compatible with queens in rows [0, d)?
bool queen_safe(const int* board, int d, int c);

/// Count completions of the prefix board[0..d) sequentially.
long count_tail(int* board, int d, int n);

/// One child task per safe column, each with its own copy of the partial
/// solution array, down to `cutoff`; a node at the cutoff counts its
/// completions inline. Returns after every task it spawned is done.
template <typename Frame>
void dc_queens(Frame& f, std::vector<int> board, int d, int n, int cutoff,
               std::atomic<long>& total) {
  if (d >= cutoff) {
    total.fetch_add(count_tail(board.data(), d, n), std::memory_order_relaxed);
    return;
  }
  for (int c = 0; c < n; ++c) {
    if (!queen_safe(board.data(), d, c)) continue;
    // Manual duplication of the partial solution array — the artifact the
    // paper points out Cilk and OpenMP tasks require.
    std::vector<int> child = board;
    child[d] = c;
    f.spawn([child = std::move(child), d, n, cutoff, &total](
                Frame& c2) mutable {
      dc_queens(c2, std::move(child), d + 1, n, cutoff, total);
    });
  }
  f.sync();
}

/// The root call of every N-queens baseline: an empty board, task levels
/// down to `task_depth` rows from the bottom.
template <typename Frame>
void dc_queens_root(Frame& f, int n, int task_depth, std::atomic<long>& total) {
  dc_queens(f, std::vector<int>(static_cast<std::size_t>(n), 0), 0, n,
            std::max(0, n - task_depth), total);
}

}  // namespace smpss::apps
