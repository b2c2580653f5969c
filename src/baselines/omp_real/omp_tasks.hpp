// Real OpenMP tasking (optional, compiled when the toolchain has OpenMP).
// The paper's "OMP3 tasks" series used the Nanos research runtime; our
// primary stand-in is baselines/taskpool. When libgomp is available the
// dependency-unaware app decompositions (apps::multisort_omp,
// apps::nqueens_omp) also run as real OpenMP tasks, giving an external
// reference point for Figs. 14/15.
//
// Frame is the task-frame interface those decompositions are written
// against, shared with fj::Context and omp3::TaskPool: spawn(fn) runs
// fn(Frame&) as a child task, sync() waits for every child of the current
// task.
#pragma once

namespace smpss::ompreal {

/// True when this build has real OpenMP support.
bool available() noexcept;

/// Threads OpenMP will use (0 if unavailable).
unsigned max_threads() noexcept;

/// The current OpenMP task: spawn is `omp task firstprivate(fn)`, sync is
/// `taskwait`. Stateless, so a child task builds its own. Without OpenMP it
/// still compiles (spawn runs fn inline), but run() never reaches it.
struct Frame {
  template <typename F>
  void spawn(F fn) {
#if defined(_OPENMP)
#pragma omp task firstprivate(fn)
#endif
    {
      Frame child;
      fn(child);
    }
  }

  void sync() {
#if defined(_OPENMP)
#pragma omp taskwait
#endif
  }
};

/// Runs root(Frame&) on one thread of a `threads`-wide parallel region and
/// returns once it and every task it spawned are done. Returns false,
/// without running root, when OpenMP is unavailable.
template <typename F>
bool run(unsigned threads, F&& root) {
#if defined(_OPENMP)
#pragma omp parallel num_threads(static_cast<int>(threads))
  {
#pragma omp single nowait
    {
      Frame f;
      root(f);
    }
  }
  return true;
#else
  (void)threads;
  (void)root;
  return false;
#endif
}

}  // namespace smpss::ompreal
