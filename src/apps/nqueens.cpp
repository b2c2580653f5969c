#include "apps/nqueens.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "baselines/omp_real/omp_tasks.hpp"

namespace smpss::apps {

NQueensTasks NQueensTasks::register_in(Runtime& rt) {
  NQueensTasks t;
  t.set = rt.register_task_type("set_cell");
  t.solve = rt.register_task_type("solve_tail");
  return t;
}

namespace {

constexpr int kMaxBoard = 24;

/// Fixed-size prefix payload so `value()` can copy it into the task closure.
struct Prefix {
  int cells[kMaxBoard];
};

/// Queen at (d, c) compatible with queens in rows [0, d)?
bool safe(const int* board, int d, int c) {
  for (int k = 0; k < d; ++k) {
    int bc = board[k];
    if (bc == c || std::abs(bc - c) == d - k) return false;
  }
  return true;
}

/// Count completions of the prefix board[0..d) sequentially.
long count_tail(int* board, int d, int n) {
  if (d == n) return 1;
  long total = 0;
  for (int c = 0; c < n; ++c) {
    if (safe(board, d, c)) {
      board[d] = c;
      total += count_tail(board, d + 1, n);
    }
  }
  return total;
}

}  // namespace

long nqueens_seq(int n) {
  std::vector<int> board(static_cast<std::size_t>(n), 0);
  return count_tail(board.data(), 0, n);
}

namespace {

/// Nested-mode recursion: runs inside a `solve_tail` task. The prefix
/// travels by value in the closure (the per-branch copy the runtime's
/// renaming provides in the flat build, made explicit here because nested
/// children of different parents submit concurrently).
void nq_nested_rec(Runtime& rt, TaskType solve, Prefix p, int d, int n,
                   int cutoff, std::atomic<long>* total) {
  if (d >= cutoff) {
    total->fetch_add(count_tail(p.cells, d, n), std::memory_order_relaxed);
    return;
  }
  for (int c = 0; c < n; ++c) {
    if (!safe(p.cells, d, c)) continue;
    Prefix child = p;
    child.cells[d] = c;
    rt.spawn(solve, [&rt, solve, child, d, n, cutoff, total] {
      nq_nested_rec(rt, solve, child, d + 1, n, cutoff, total);
    });
  }
}

long nqueens_smpss_nested(Runtime& rt, const NQueensTasks& tt, int n,
                          int cutoff) {
  std::atomic<long> total{0};
  Prefix root{};
  rt.spawn(tt.solve, [&rt, solve = tt.solve, root, n, cutoff, tp = &total] {
    nq_nested_rec(rt, solve, root, 0, n, cutoff, tp);
  });
  rt.barrier();
  return total.load(std::memory_order_relaxed);
}

}  // namespace

long nqueens_smpss(Runtime& rt, const NQueensTasks& tt, int n,
                   int task_depth) {
  SMPSS_CHECK(n <= kMaxBoard, "board too large for the fixed prefix buffer");
  const int cutoff = std::max(0, n - task_depth);
  if (rt.config().nested_tasks) return nqueens_smpss_nested(rt, tt, n, cutoff);
  std::vector<int> board(static_cast<std::size_t>(n), 0);   // runtime-tracked
  std::vector<int> shadow(static_cast<std::size_t>(n), 0);  // main-side pruning
  std::atomic<long> total{0};
  int* bp = board.data();

  // Prefix expansion in the main code. At every cutoff node one `set` task
  // writes the branch's prefix into the shared board, and one `solve` task
  // reads it. The set is an *output* access: every branch overwrites the
  // same array, a WAW/WAR hazard on the pending solver readers that the
  // runtime resolves by renaming — each branch transparently gets its own
  // copy of the partial-solution array (Sec. VI.E), and, because only true
  // dependencies remain, all branches run in parallel. With renaming
  // disabled the same program serializes behind hazard edges (see the
  // ablation bench).
  auto rec = [&](auto&& self, int d) -> void {
    if (d == cutoff) {
      Prefix p{};
      for (int i = 0; i < d; ++i) p.cells[i] = shadow[static_cast<std::size_t>(i)];
      rt.spawn(tt.set,
               [](int* b, const Prefix& pr, const int& dd) {
                 for (int i = 0; i < dd; ++i) b[i] = pr.cells[i];
               },
               out(bp, static_cast<std::size_t>(n)), value(p), value(d));
      rt.spawn(tt.solve,
               [](const int* b, const int& dd, const int& nn,
                  std::atomic<long>* acc) {
                 // Work on a private copy of the (renamed, stable) version.
                 std::vector<int> local(b, b + nn);
                 acc->fetch_add(count_tail(local.data(), dd, nn),
                                std::memory_order_relaxed);
               },
               in(bp, static_cast<std::size_t>(n)), value(d), value(n),
               opaque(&total));
      return;
    }
    for (int c = 0; c < n; ++c) {
      if (!safe(shadow.data(), d, c)) continue;
      shadow[d] = c;
      self(self, d + 1);
    }
  };
  rec(rec, 0);
  rt.barrier();
  return total.load(std::memory_order_relaxed);
}

// --- dependency-unaware baselines (Cilk-like, OMP3-like, real OpenMP) ----------

namespace {

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
    if (!safe(board.data(), d, c)) continue;
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

std::vector<int> empty_board(int n) {
  return std::vector<int>(static_cast<std::size_t>(n), 0);
}

}  // namespace

long nqueens_fj(fj::Scheduler& s, int n, int task_depth) {
  std::atomic<long> total{0};
  s.run_root([&](fj::Context& ctx) {
    dc_queens(ctx, empty_board(n), 0, n, std::max(0, n - task_depth), total);
  });
  return total.load(std::memory_order_relaxed);
}

long nqueens_omp3(omp3::TaskPool& p, int n, int task_depth) {
  std::atomic<long> total{0};
  p.run_root([&] {
    dc_queens(p, empty_board(n), 0, n, std::max(0, n - task_depth), total);
  });
  return total.load(std::memory_order_relaxed);
}

long nqueens_omp(unsigned threads, int n, int task_depth) {
  std::atomic<long> total{0};
  const bool ran = ompreal::run(threads, [&](ompreal::Frame& f) {
    dc_queens(f, empty_board(n), 0, n, std::max(0, n - task_depth), total);
  });
  return ran ? total.load(std::memory_order_relaxed) : -1;
}

}  // namespace smpss::apps
