#include "apps/multisort.hpp"

#include <algorithm>

#include "baselines/omp_real/omp_tasks.hpp"
#include "dep/representant.hpp"

namespace smpss::apps {

MultisortTasks MultisortTasks::register_in(Runtime& rt) {
  MultisortTasks t;
  t.seqquick = rt.register_task_type("seqquick");
  t.seqmerge = rt.register_task_type("seqmerge");
  t.sort_rec = rt.register_task_type("sort_rec");
  return t;
}

// --- sequential primitives ----------------------------------------------------

namespace {
constexpr long kInsertionThreshold = 32;

void insertion_sort(ELM* a, long lo, long hi) {
  for (long i = lo + 1; i <= hi; ++i) {
    ELM v = a[i];
    long j = i - 1;
    while (j >= lo && a[j] > v) {
      a[j + 1] = a[j];
      --j;
    }
    a[j + 1] = v;
  }
}

/// Partitions a[lo..hi] around the pivot a[hi] and returns its final index
/// s: a[lo..s) < pivot (<= pivot with kTakeEqual) and a[s..hi] >= it. The
/// loop carries no branch on the comparison: every element is swapped
/// with the first one not yet known to belong on the left, and the cut
/// only advances when it does.
template <bool kTakeEqual>
long partition(ELM* a, long lo, long hi) {
  const ELM pivot = a[hi];
  long s = lo;
  for (long k = lo; k < hi; ++k) {
    const ELM x = a[k];
    a[k] = a[s];
    a[s] = x;
    s += kTakeEqual ? x <= pivot : x < pivot;
  }
  a[hi] = a[s];
  a[s] = pivot;
  return s;
}

/// Sorts a[lo..hi]. `floored` says a[lo - 1] is an earlier pivot, no
/// greater than any element of the range. `depth` partitions remain
/// before the range falls back to heap sort.
void quick_rec(ELM* a, long lo, long hi, bool floored, int depth) {
  while (hi - lo + 1 > kInsertionThreshold) {
    if (depth-- == 0) {
      std::make_heap(a + lo, a + hi + 1);
      std::sort_heap(a + lo, a + hi + 1);
      return;
    }
    // Median of first, middle and last, moved to a[hi].
    const long mid = lo + (hi - lo) / 2;
    if (a[mid] < a[lo]) std::swap(a[mid], a[lo]);
    if (a[hi] < a[mid]) std::swap(a[hi], a[mid]);
    if (a[mid] < a[lo]) std::swap(a[mid], a[lo]);
    std::swap(a[mid], a[hi]);
    if (floored && a[lo - 1] == a[hi]) {
      // pdqsort's equal-pivot rule: the pivot is the range's minimum, so
      // everything `<=` takes left equals it and is already in place.
      lo = partition<true>(a, lo, hi) + 1;
      continue;
    }
    const long s = partition<false>(a, lo, hi);
    // Recurse into the smaller side, iterate on the larger (O(log n) stack).
    if (s - lo < hi - s) {
      quick_rec(a, lo, s - 1, floored, depth);
      lo = s + 1;
      floored = true;
    } else {
      quick_rec(a, s + 1, hi, true, depth);
      hi = s - 1;
    }
  }
  insertion_sort(a, lo, hi);
}
}  // namespace

void seqquick(ELM* data, long i, long j) {
  int depth = 0;
  for (long n = j - i + 1; n > 1; n >>= 1) depth += 2;  // 2 * floor(log2 n)
  quick_rec(data, i, j, false, depth);
}

void seqmerge(const ELM* data, long i1, long j1, long i2, long j2, ELM* dest) {
  const long la = j1 - i1 + 1;
  const long lb = j2 - i2 + 1;
  merge_piece(data + i1, la, data + i2, lb, 0, la + lb, dest + i1);
}

long co_rank(long t, const ELM* a, long la, const ELM* b, long lb) {
  // Find ia in [max(0, t-lb), min(t, la)] with ib = t - ia such that
  // a[ia-1] <= b[ib] and b[ib-1] < a[ia] (treating out-of-range as +/-inf).
  // The strict side makes the split unique (a goes first on a tie, as in
  // std::merge), so co_rank is monotone in t and adjacent pieces meet.
  long lo = std::max<long>(0, t - lb);
  long hi = std::min(t, la);
  while (lo < hi) {
    long ia = lo + (hi - lo) / 2;
    long ib = t - ia;
    if (ia < la && ib > 0 && b[ib - 1] >= a[ia]) {
      lo = ia + 1;  // need more of a
    } else if (ia > 0 && ib < lb && a[ia - 1] > b[ib]) {
      hi = ia;      // need less of a
    } else {
      return ia;
    }
  }
  return lo;
}

void merge_piece(const ELM* a, long la, const ELM* b, long lb, long t0,
                 long t1, ELM* out) {
  long ia = co_rank(t0, a, la, b, lb);
  long ib = t0 - ia;
  const long ja = co_rank(t1, a, la, b, lb);
  long ka = ja - 1, kb = t1 - ja - 1;  // the last elements of a and b to take
  long o = t0, e = t1 - 1;
  // The front and back select chains are independent, so one pass runs
  // both; their tie rules (front takes a, back takes b) keep the two ends
  // from ever taking the same element.
  while (ia <= ka && ib <= kb) {
    const ELM x = a[ia], y = b[ib];
    const bool ta = x <= y;
    out[o++] = ta ? x : y;
    ia += ta;
    ib += !ta;
    const ELM u = a[ka], v = b[kb];
    const bool sa = u > v;
    out[e--] = sa ? u : v;
    ka -= sa;
    kb -= !sa;
  }
  // One run is used up; the rest of the other fills out[o..e].
  std::copy(b + ib, b + (kb + 1), std::copy(a + ia, a + (ka + 1), out + o));
}

namespace {

struct Quarters {
  long i1, j1, i2, j2, i3, j3, i4, j4;
};

Quarters split4(long i, long j) {
  long size = j - i + 1;
  long q = size / 4;
  Quarters s;
  s.i1 = i;           s.j1 = i + q - 1;
  s.i2 = i + q;       s.j2 = i + 2 * q - 1;
  s.i3 = i + 2 * q;   s.j3 = i + 3 * q - 1;
  s.i4 = i + 3 * q;   s.j4 = j;
  return s;
}

}  // namespace

// --- sequential multisort -------------------------------------------------------

namespace {
void seq_sort_rec(ELM* data, ELM* tmp, long i, long j, long quick_size) {
  long size = j - i + 1;
  if (size < quick_size || size < 8) {
    seqquick(data, i, j);
    return;
  }
  Quarters q = split4(i, j);
  seq_sort_rec(data, tmp, q.i1, q.j1, quick_size);
  seq_sort_rec(data, tmp, q.i2, q.j2, quick_size);
  seq_sort_rec(data, tmp, q.i3, q.j3, quick_size);
  seq_sort_rec(data, tmp, q.i4, q.j4, quick_size);
  seqmerge(data, q.i1, q.j1, q.i2, q.j2, tmp);
  seqmerge(data, q.i3, q.j3, q.i4, q.j4, tmp);
  seqmerge(tmp, q.i1, q.j2, q.i3, q.j4, data);
}
}  // namespace

void multisort_seq(ELM* data, ELM* tmp, long n, long quick_size) {
  seq_sort_rec(data, tmp, 0, n - 1, quick_size);
}

// --- SMPSs with array regions (Sec. V.A + Sec. VI.D) ---------------------------

namespace {

/// Divide-and-conquer merge: src[i1..j1] and src[i2..j2] -> dst[i1..j2],
/// decomposed by output chunks ("calls a recursive merge function that
/// ends up calling [the seqmerge] task when the operated range is small
/// enough", Sec. VI.D). Region analysis keys on the base pointer, so every
/// access names the array base (`src`/`dst`) with absolute-index regions —
/// the paper's `data{i1..j1}` syntax rendered literally. The task function
/// receives the base once per region (as the pragma's repeated parameter
/// would) and applies the offsets itself. Shared by the inline and nested
/// builds.
void spawn_merge(Runtime& rt, const MultisortTasks& tt, ELM* src, ELM* dst,
                 long i1, long j1, long i2, long j2, long merge_size) {
  const long la = j1 - i1 + 1;
  const long lb = j2 - i2 + 1;
  const long total = la + lb;
  for (long t0 = 0; t0 < total; t0 += merge_size) {
    long t1 = std::min(total, t0 + merge_size);
    // Reads: both run regions. Write: one disjoint output chunk.
    rt.spawn(tt.seqmerge,
             [i1, la, i2, lb, t0, t1](const ELM* s, const ELM*, ELM* d) {
               merge_piece(s + i1, la, s + i2, lb, t0, t1, d + i1);
             },
             in(src, Region{{Bound::closed(i1, j1)}}),
             in(src, Region{{Bound::closed(i2, j2)}}),
             out(dst, Region{{Bound::closed(i1 + t0, i1 + t1 - 1)}}));
  }
}

void spawn_quick(Runtime& rt, const MultisortTasks& tt, ELM* data, long i,
                 long j) {
  rt.spawn(tt.seqquick, [i, j](ELM* d) { seqquick(d, i, j); },
           inout(data, Region{{Bound::closed(i, j)}}));
}

struct RegionCtx {
  Runtime& rt;
  const MultisortTasks& tt;
  ELM* data;
  ELM* tmp;
  long n;
  long quick_size;
  long merge_size;

  void sort_rec(long i, long j) {
    long size = j - i + 1;
    if (size < quick_size || size < 8) {
      spawn_quick(rt, tt, data, i, j);
      return;
    }
    Quarters q = split4(i, j);
    sort_rec(q.i1, q.j1);
    sort_rec(q.i2, q.j2);
    sort_rec(q.i3, q.j3);
    sort_rec(q.i4, q.j4);
    spawn_merge(rt, tt, data, tmp, q.i1, q.j1, q.i2, q.j2, merge_size);
    spawn_merge(rt, tt, data, tmp, q.i3, q.j3, q.i4, q.j4, merge_size);
    spawn_merge(rt, tt, tmp, data, q.i1, q.j2, q.i3, q.j4, merge_size);
  }
};

// --- nested-spawn build (Config::nested_tasks) ---------------------------------

struct NestedSortCtx {
  Runtime& rt;
  const MultisortTasks& tt;
  ELM* data;
  ELM* tmp;
  long quick_size;
  long merge_size;
};

/// Runs inside a `sort_rec` generator task (or on the main thread for the
/// root call). The taskwait between the quarter sorts and the merges is
/// what makes concurrent submission sound: a generator completes only after
/// its whole subtree's accesses were submitted, so when the merges' regions
/// are analyzed every conflicting quarter access is either a live record
/// (edge inserted) or already retired (its effect is in memory). Sibling
/// quarters touch disjoint index ranges, so their interleaved submissions
/// gain no edges against each other and any submission order is equivalent.
void nested_sort_rec(NestedSortCtx& c, long i, long j) {
  long size = j - i + 1;
  if (size < c.quick_size || size < 8) {
    spawn_quick(c.rt, c.tt, c.data, i, j);
    return;
  }
  Quarters q = split4(i, j);
  auto quarter = [&](long qi, long qj) {
    c.rt.spawn(c.tt.sort_rec,
               [cp = &c, qi, qj] { nested_sort_rec(*cp, qi, qj); });
  };
  quarter(q.i1, q.j1);
  quarter(q.i2, q.j2);
  quarter(q.i3, q.j3);
  quarter(q.i4, q.j4);
  c.rt.taskwait();
  spawn_merge(c.rt, c.tt, c.data, c.tmp, q.i1, q.j1, q.i2, q.j2, c.merge_size);
  spawn_merge(c.rt, c.tt, c.data, c.tmp, q.i3, q.j3, q.i4, q.j4, c.merge_size);
  spawn_merge(c.rt, c.tt, c.tmp, c.data, q.i1, q.j2, q.i3, q.j4, c.merge_size);
}

}  // namespace

void multisort_smpss_regions(Runtime& rt, const MultisortTasks& tt, ELM* data,
                             ELM* tmp, long n, long quick_size,
                             long merge_size) {
  if (rt.config().nested_tasks) {
    NestedSortCtx ctx{rt, tt, data, tmp, quick_size, merge_size};
    nested_sort_rec(ctx, 0, n - 1);
    rt.barrier();
    return;
  }
  RegionCtx ctx{rt, tt, data, tmp, n, quick_size, merge_size};
  ctx.sort_rec(0, n - 1);
  rt.barrier();
}

// --- SMPSs with representants (Sec. V.B) ----------------------------------------

namespace {

struct ReprCtx {
  Runtime& rt;
  const MultisortTasks& tt;
  ELM* data;
  ELM* tmp;
  long quick_size;
  RepresentantPool nodes;  // one representant per sort-tree node (Sec. V.B)

  char* fresh() { return nodes.fresh(); }

  /// Returns the representant that stands for "data[i..j] is sorted".
  char* sort_rec(long i, long j) {
    long size = j - i + 1;
    if (size < quick_size || size < 8) {
      char* r = fresh();
      rt.spawn(tt.seqquick,
               [i, j](ELM* d, char*) { seqquick(d, i, j); },
               opaque(data), out(r));
      return r;
    }
    Quarters q = split4(i, j);
    char* r1 = sort_rec(q.i1, q.j1);
    char* r2 = sort_rec(q.i2, q.j2);
    char* r3 = sort_rec(q.i3, q.j3);
    char* r4 = sort_rec(q.i4, q.j4);
    // Fig. 7 shape: three whole-node merges. Dependencies flow through the
    // representants; the data/tmp pointers are opaque.
    char* m1 = fresh();
    char* m2 = fresh();
    char* mp = fresh();
    ELM* d = data;
    ELM* t = tmp;
    rt.spawn(tt.seqmerge,
             [q](const ELM* src, ELM* dst, const char*, const char*, char*) {
               seqmerge(src, q.i1, q.j1, q.i2, q.j2, dst);
             },
             opaque(static_cast<const ELM*>(d)), opaque(t), in(r1), in(r2),
             out(m1));
    rt.spawn(tt.seqmerge,
             [q](const ELM* src, ELM* dst, const char*, const char*, char*) {
               seqmerge(src, q.i3, q.j3, q.i4, q.j4, dst);
             },
             opaque(static_cast<const ELM*>(d)), opaque(t), in(r3), in(r4),
             out(m2));
    rt.spawn(tt.seqmerge,
             [q](const ELM* src, ELM* dst, const char*, const char*, char*) {
               seqmerge(src, q.i1, q.j2, q.i3, q.j4, dst);
             },
             opaque(static_cast<const ELM*>(t)), opaque(d), in(m1), in(m2),
             out(mp));
    return mp;
  }
};

}  // namespace

void multisort_smpss_repr(Runtime& rt, const MultisortTasks& tt, ELM* data,
                          ELM* tmp, long n, long quick_size) {
  ReprCtx ctx{rt, tt, data, tmp, quick_size, {}};
  ctx.sort_rec(0, n - 1);
  rt.barrier();  // ctx.nodes must outlive all tasks
}

// --- dependency-unaware baselines (Cilk-like, OMP3-like, real OpenMP) ----------

namespace {

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

}  // namespace

void multisort_fj(fj::Scheduler& s, ELM* data, ELM* tmp, long n,
                  long quick_size, long merge_size) {
  s.run_root([&](fj::Context& ctx) {
    dc_sort(ctx, data, tmp, 0, n - 1, quick_size, merge_size);
  });
}

void multisort_omp3(omp3::TaskPool& p, ELM* data, ELM* tmp, long n,
                    long quick_size, long merge_size) {
  p.run_root([&] { dc_sort(p, data, tmp, 0, n - 1, quick_size, merge_size); });
}

bool multisort_omp(unsigned threads, ELM* data, ELM* tmp, long n,
                   long quick_size, long merge_size) {
  return ompreal::run(threads, [&](ompreal::Frame& f) {
    dc_sort(f, data, tmp, 0, n - 1, quick_size, merge_size);
  });
}

}  // namespace smpss::apps
