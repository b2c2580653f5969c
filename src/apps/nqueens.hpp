// N-Queens (paper Sec. VI.E): count the placements of N queens on an N x N
// board so that no two attack each other.
//
// The paper's point is the partial-solution array: "the OpenMP 3.0 tasking
// version and the Cilk version [...] require allocating a copy of the
// partial solution array so that tasks at the same recursion level do not
// overwrite each other's partial solutions. Like the sequential version,
// SMPSs does not require duplicating the partial solution array by hand. The
// runtime takes care of it by renaming the array as needed."
//
// Realization here: SMPSs has no recursive tasks, so the prefix levels are
// expanded by the main thread ("the queens function is decomposed
// recursively until the last 4 levels, and those are handled by tasks").
// Board-cell writes go through tiny inout `set` tasks — the runtime renames
// the board whenever pending readers exist, i.e. it performs exactly the
// per-sibling copies the other models need by hand. Leaf counting tasks read
// the board version their branch produced and accumulate into an opaque
// atomic counter. The Cilk-like, OMP3-like and real-OpenMP baselines copy
// the board manually, as the paper describes; the sequential version uses a
// single board.
#pragma once

#include "baselines/forkjoin/forkjoin.hpp"
#include "baselines/taskpool/taskpool.hpp"
#include "runtime/runtime.hpp"

namespace smpss::apps {

struct NQueensTasks {
  TaskType set, solve;
  static NQueensTasks register_in(Runtime& rt);
};

/// Sequential oracle: single board, full recursion, no copies.
long nqueens_seq(int n);

/// SMPSs version; the last `task_depth` recursion levels run inside tasks.
///
/// With Config::nested_tasks enabled the version is totally recursive, like
/// the Cilk one: every prefix node is a task that spawns one child task per
/// safe column, carrying the partial board by value (the nested model makes
/// the paper's renaming trick unnecessary — no shared board, no hazards),
/// and leaves below the cutoff count sequentially. Exercises deep nesting
/// with a fan-out far beyond the worker count.
long nqueens_smpss(Runtime& rt, const NQueensTasks& tt, int n, int task_depth);

/// The dependency-unaware baselines: one recursion, written once over a
/// task frame. Every prefix node above the cutoff `n - task_depth` spawns
/// one child task per safe column, each carrying its own copy of the board,
/// and syncs them; a node at the cutoff counts its last `task_depth` levels
/// sequentially inside its task.
///
/// Cilk-like (fj::Scheduler).
long nqueens_fj(fj::Scheduler& s, int n, int task_depth);

/// OpenMP-3-like (omp3::TaskPool).
long nqueens_omp3(omp3::TaskPool& p, int n, int task_depth);

/// Real OpenMP tasks on `threads` threads (ompreal::Frame); -1 when the
/// build has no OpenMP.
long nqueens_omp(unsigned threads, int n, int task_depth);

}  // namespace smpss::apps
