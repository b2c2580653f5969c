// Multisort (paper Fig. 7 and Sec. VI.D): mergesort that splits into four
// subarrays per recursion step, sorts leaves with quicksort, and merges with
// a divide-and-conquer parallel merge (after Akl & Santoro, the paper's
// ref. [16]: the merge is decomposed by *output position*, each piece
// locating its input segments by co-ranking — value-oblivious at spawn time,
// which is exactly what a main-thread-spawning model needs).
//
// Variants:
//  * smpss_regions: the Sec. V.A array-region build — seqquick tasks take
//    `inout(data{i..j})`, merge pieces read both run regions and write one
//    output chunk region.
//  * smpss_repr:    the Sec. V.B representant build — Fig. 7 shape, one
//    representant per sort-tree node, data arrays passed as opaque pointers.
//  * fj / omp3 / omp: the Cilk-like, OpenMP-3-like and real-OpenMP
//    baselines (Fig. 14 curves), one decomposition over three task frames.
//  * seq:           the same decomposition run inline (Fig. 14's baseline).
#pragma once

#include "baselines/forkjoin/forkjoin.hpp"
#include "baselines/taskpool/taskpool.hpp"
#include "runtime/runtime.hpp"

namespace smpss::apps {

using ELM = long;  // the Cilk distribution's element type

struct MultisortTasks {
  TaskType seqquick, seqmerge, sort_rec;
  static MultisortTasks register_in(Runtime& rt);
};

/// Sequential quicksort of data[i..j] inclusive, the leaf task of every
/// multisort build. Exposed for tests.
///  * Partition: the median of first, middle and last is moved to the end,
///    and a Lomuto loop without a branch on the comparison swaps each
///    element with the first one not yet known to be smaller and advances
///    the cut by `x < pivot`.
///  * Equal-pivot rule (pdqsort): a range right of an earlier pivot has that
///    pivot as a floor. If the new pivot equals the floor it is the range's
///    minimum, so the range is partitioned with `<=` and everything left of
///    the cut, all copies of the pivot, is skipped. Few distinct keys then
///    cost linear passes, not quadratic ones.
///  * Depth bound (introsort): after 2 * floor(log2 n) partitions a range is
///    heap-sorted, so no input (organ pipe, median-of-3 killer) is quadratic.
///  * Insertion sort finishes ranges of at most 32 elements.
/// It is built for random keys, which every multisort benchmark draws, and
/// trades structured input for them. Against a median-of-3 Hoare quicksort
/// at 2^14 keys (one thread, 4-vCPU Xeon, gcc 12.2 -O2), random keys take
/// 438-639 us against 1,082-1,398 us, but sorted input takes 509 against
/// 140 us, reverse 616 against 184 us, and organ pipe, which reaches the
/// depth bound, 2,277 against 841 us (x2.7-3.6).
void seqquick(ELM* data, long i, long j);

/// Merge sorted data[i1..j1] and data[i2..j2] into dest starting at dest[i1]
/// (the seqmerge task of Fig. 7): merge_piece over the whole output.
void seqmerge(const ELM* data, long i1, long j1, long i2, long j2, ELM* dest);

/// Co-rank: number of elements of a (length la) among the first `t` of the
/// merge of a and b (length lb). Exposed for property tests.
long co_rank(long t, const ELM* a, long la, const ELM* b, long lb);

/// Merge output positions [t0, t1) of merge(a[0..la), b[0..lb)) into
/// out[t0..t1); inputs must be sorted. Co-ranks t0 and t1 to find the input
/// segments, then merges them from both ends at once: each pass writes the
/// smallest remaining element at the front and the largest at the back,
/// with selects instead of branches. The front takes a on a tie and the back
/// takes b, so the result equals std::merge's. The one merge loop of every
/// multisort build (SMPSs, Cilk-like, OMP3-like, real OpenMP, sequential).
void merge_piece(const ELM* a, long la, const ELM* b, long lb, long t0,
                 long t1, ELM* out);

/// Sequential multisort (same recursion, inline).
void multisort_seq(ELM* data, ELM* tmp, long n, long quick_size);

/// SMPSs with array regions; merges split into output chunks of at most
/// `merge_size` elements.
///
/// With Config::nested_tasks enabled the sort recursion runs as `sort_rec`
/// generator tasks: each quarter of the tree is expanded from a worker, the
/// generator taskwait()s its quarters (so their writes are submitted before
/// the merges' reads are analyzed) and then emits its merge tasks. The
/// paper-faithful default expands the whole tree on the main thread.
void multisort_smpss_regions(Runtime& rt, const MultisortTasks& tt, ELM* data,
                             ELM* tmp, long n, long quick_size,
                             long merge_size);

/// SMPSs with representants (Fig. 7 shape: whole-node merges).
void multisort_smpss_repr(Runtime& rt, const MultisortTasks& tt, ELM* data,
                          ELM* tmp, long n, long quick_size);

/// The dependency-unaware baselines: one recursion, written once over a
/// task frame (spawn a child, sync all children of the current task), with
/// a sync() wherever SMPSs has a dependency. Each split spawns every part
/// but its last and runs the last inline: three quarter sorts, the first
/// half merge, and the first half of every merge range down to
/// `merge_size`. At 2^22 keys, quick 2^15, merge 2^14 a sort spawns 2,133
/// tasks on every frame.
///
/// Cilk-like (fj::Scheduler).
void multisort_fj(fj::Scheduler& s, ELM* data, ELM* tmp, long n,
                  long quick_size, long merge_size);

/// OpenMP-3-like (omp3::TaskPool).
void multisort_omp3(omp3::TaskPool& p, ELM* data, ELM* tmp, long n,
                    long quick_size, long merge_size);

/// Real OpenMP tasks on `threads` threads (ompreal::Frame). Returns false,
/// with the data untouched, when the build has no OpenMP.
bool multisort_omp(unsigned threads, ELM* data, ELM* tmp, long n,
                   long quick_size, long merge_size);

}  // namespace smpss::apps
