// An OpenMP-3.0-style task pool — the "OMP3 tasks" comparison curves of
// Figs. 14-16.
//
// Models the original OpenMP tasking proposal the paper compares against
// (Sec. VII.B): nested tasks, `taskwait` for the children of the current
// task, a shared central FIFO pool, and — crucially — NO dependency
// analysis ("the original task pool proposal does not contemplate
// dependencies, greatly limiting its effectiveness in case of their
// existence") and no renaming (per-sibling array copies are the program's
// job, as in the paper's N-Queens discussion).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "sched/idle_wait.hpp"
#include "sched/mpmc_queue.hpp"

namespace smpss::omp3 {

class TaskPool {
 public:
  explicit TaskPool(unsigned nthreads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Spawn a child of the current task (nested tasks allowed; callable from
  /// inside tasks and from the thread that entered run_root).
  void task(std::function<void()> fn);

  /// Wait for the children spawned by the current task, executing queued
  /// tasks meanwhile (a task scheduling point, as in OpenMP).
  void taskwait();

  /// The task-frame interface shared with fj::Context and ompreal::Frame:
  /// spawn(fn) is task() running fn(*this), sync() is taskwait().
  template <typename F>
  void spawn(F fn) {
    task([this, fn = std::move(fn)]() mutable { fn(*this); });
  }
  void sync() { taskwait(); }

  /// Enter a "parallel region": run `root` on the caller with the pool's
  /// workers participating; returns after root and all tasks complete.
  void run_root(const std::function<void()>& root);

  unsigned nthreads() const noexcept { return nthreads_; }

 private:
  struct Node {
    Node* queue_next = nullptr;
    std::function<void()> fn;
    std::atomic<std::int64_t>* parent_pending = nullptr;
  };

  void execute(Node* n);
  void worker_loop();

  unsigned nthreads_;
  IntrusiveMpmcFifo<Node> pool_;
  IdleGate gate_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace smpss::omp3
