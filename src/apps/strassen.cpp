#include "apps/strassen.hpp"

#include <cstring>
#include <memory>
#include <vector>

namespace smpss::apps {

StrassenTasks StrassenTasks::register_in(Runtime& rt) {
  StrassenTasks t;
  t.mul = rt.register_task_type("sgemm_t");
  t.add = rt.register_task_type("sadd_t");
  t.sub = rt.register_task_type("ssub_t");
  t.acc = rt.register_task_type("sacc_t");
  t.rec = rt.register_task_type("strassen_rec");
  return t;
}

namespace {

/// A square window into a hyper-matrix, in block coordinates.
struct View {
  HyperMatrix* h;
  int i0, j0, n;
  float* block(int i, int j) const { return h->block(i0 + i, j0 + j); }
  View quad(int qi, int qj) const {
    return View{h, i0 + qi * (n / 2), j0 + qj * (n / 2), n / 2};
  }
};

// Element-wise block bodies beyond the Kernels set.
void body_acc_add(int m, const float* a, float* c) {
  for (int i = 0; i < m * m; ++i) c[i] += a[i];
}
void body_acc_sub(int m, const float* a, float* c) {
  for (int i = 0; i < m * m; ++i) c[i] -= a[i];
}
void body_mul_overwrite(int m, const blas::Kernels* k, const float* a,
                        const float* b, float* c) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * m);
  k->gemm_nn_acc(m, a, b, c);
}

// Task-emission helpers shared by the inline (main-thread-unrolled) and the
// nested (generator-task) builds.

/// One sgemm task: C00 = A00 * B00.
void spawn_mul(Runtime& rt, const StrassenTasks& tt, const blas::Kernels* k,
               int m, std::size_t be, const View& A, const View& B,
               const View& C) {
  rt.spawn(tt.mul,
           [k, m](const float* x, const float* y, float* z) {
             body_mul_overwrite(m, k, x, y, z);
           },
           in(A.block(0, 0), be), in(B.block(0, 0), be),
           out(C.block(0, 0), be));
}

/// dst = a + b (block-wise tasks).
void spawn_add(Runtime& rt, const StrassenTasks& tt, const blas::Kernels* k,
               int m, std::size_t be, const View& a, const View& b,
               const View& dst) {
  for (int i = 0; i < a.n; ++i)
    for (int j = 0; j < a.n; ++j)
      rt.spawn(tt.add,
               [k, m](const float* x, const float* y, float* z) {
                 k->add(m, x, y, z);
               },
               in(a.block(i, j), be), in(b.block(i, j), be),
               out(dst.block(i, j), be));
}

/// dst = a - b.
void spawn_sub(Runtime& rt, const StrassenTasks& tt, const blas::Kernels* k,
               int m, std::size_t be, const View& a, const View& b,
               const View& dst) {
  for (int i = 0; i < a.n; ++i)
    for (int j = 0; j < a.n; ++j)
      rt.spawn(tt.sub,
               [k, m](const float* x, const float* y, float* z) {
                 k->sub(m, x, y, z);
               },
               in(a.block(i, j), be), in(b.block(i, j), be),
               out(dst.block(i, j), be));
}

/// dst += a  /  dst -= a.
void spawn_acc(Runtime& rt, const StrassenTasks& tt, int m, std::size_t be,
               const View& a, const View& dst, bool negate) {
  for (int i = 0; i < a.n; ++i)
    for (int j = 0; j < a.n; ++j) {
      if (negate) {
        rt.spawn(tt.acc,
                 [m](const float* x, float* z) { body_acc_sub(m, x, z); },
                 in(a.block(i, j), be), inout(dst.block(i, j), be));
      } else {
        rt.spawn(tt.acc,
                 [m](const float* x, float* z) { body_acc_add(m, x, z); },
                 in(a.block(i, j), be), inout(dst.block(i, j), be));
      }
    }
}

struct Ctx {
  Runtime& rt;
  const StrassenTasks& tt;
  const blas::Kernels* k;
  int m;                 // block dimension
  std::size_t be;        // block element count
  std::vector<std::unique_ptr<HyperMatrix>> arena;  // temps live to barrier

  View fresh(int n) {
    arena.push_back(std::make_unique<HyperMatrix>(n, m, true));
    return View{arena.back().get(), 0, 0, n};
  }

  void emit_add(const View& a, const View& b, const View& dst) {
    spawn_add(rt, tt, k, m, be, a, b, dst);
  }
  void emit_sub(const View& a, const View& b, const View& dst) {
    spawn_sub(rt, tt, k, m, be, a, b, dst);
  }
  void emit_acc(const View& a, const View& dst, bool negate) {
    spawn_acc(rt, tt, m, be, a, dst, negate);
  }

  void recurse(const View& A, const View& B, const View& C) {
    if (A.n == 1) {
      spawn_mul(rt, tt, k, m, be, A, B, C);
      return;
    }
    const int h = A.n / 2;
    View A11 = A.quad(0, 0), A12 = A.quad(0, 1), A21 = A.quad(1, 0),
         A22 = A.quad(1, 1);
    View B11 = B.quad(0, 0), B12 = B.quad(0, 1), B21 = B.quad(1, 0),
         B22 = B.quad(1, 1);
    View C11 = C.quad(0, 0), C12 = C.quad(0, 1), C21 = C.quad(1, 0),
         C22 = C.quad(1, 1);

    // Only two operand temporaries, reused across all seven products: the
    // renaming-intensive structure Sec. VI.C describes. The product results
    // must coexist, so M1..M7 are distinct.
    View tS = fresh(h), tT = fresh(h);
    View M1 = fresh(h), M2 = fresh(h), M3 = fresh(h), M4 = fresh(h),
         M5 = fresh(h), M6 = fresh(h), M7 = fresh(h);

    emit_add(A11, A22, tS);  // M1 = (A11+A22)(B11+B22)
    emit_add(B11, B22, tT);
    recurse(tS, tT, M1);
    emit_add(A21, A22, tS);  // M2 = (A21+A22) B11      (tS reused: rename)
    recurse(tS, B11, M2);
    emit_sub(B12, B22, tT);  // M3 = A11 (B12-B22)      (tT reused: rename)
    recurse(A11, tT, M3);
    emit_sub(B21, B11, tT);  // M4 = A22 (B21-B11)
    recurse(A22, tT, M4);
    emit_add(A11, A12, tS);  // M5 = (A11+A12) B22
    recurse(tS, B22, M5);
    emit_sub(A21, A11, tS);  // M6 = (A21-A11)(B11+B12)
    emit_add(B11, B12, tT);
    recurse(tS, tT, M6);
    emit_sub(A12, A22, tS);  // M7 = (A12-A22)(B21+B22)
    emit_add(B21, B22, tT);
    recurse(tS, tT, M7);

    emit_add(M1, M4, C11);   // C11 = M1 + M4 - M5 + M7
    emit_acc(M5, C11, /*negate=*/true);
    emit_acc(M7, C11, /*negate=*/false);
    emit_add(M3, M5, C12);   // C12 = M3 + M5
    emit_add(M2, M4, C21);   // C21 = M2 + M4
    emit_sub(M1, M2, C22);   // C22 = M1 - M2 + M3 + M6
    emit_acc(M3, C22, /*negate=*/false);
    emit_acc(M6, C22, /*negate=*/false);
  }
};

// --- nested-spawn build (Config::nested_tasks) --------------------------------

struct NestedCtx {
  Runtime& rt;
  const StrassenTasks& tt;
  const blas::Kernels* k;
  int m;
  std::size_t be;
};

/// Runs inside a `strassen_rec` generator task (or on the main thread for
/// the root call). Temporaries live on this invocation's stack; the final
/// taskwait keeps them alive until every reader completed. Unlike the
/// inline build, operand temporaries are NOT reused across the seven
/// products: sibling generators submit concurrently, and renaming a reused
/// temporary would make the dependency outcome depend on the submission
/// interleaving. Fresh temporaries make every interleaving equivalent.
void nested_recurse(NestedCtx& c, View A, View B, View C) {
  Runtime& rt = c.rt;
  if (A.n == 1) {
    spawn_mul(rt, c.tt, c.k, c.m, c.be, A, B, C);
    return;  // ordered behind us by RAW edges; awaited by an ancestor
  }
  const int h = A.n / 2;
  View A11 = A.quad(0, 0), A12 = A.quad(0, 1), A21 = A.quad(1, 0),
       A22 = A.quad(1, 1);
  View B11 = B.quad(0, 0), B12 = B.quad(0, 1), B21 = B.quad(1, 0),
       B22 = B.quad(1, 1);
  View C11 = C.quad(0, 0), C12 = C.quad(0, 1), C21 = C.quad(1, 0),
       C22 = C.quad(1, 1);

  std::vector<std::unique_ptr<HyperMatrix>> arena;
  auto fresh = [&](int n) {
    arena.push_back(std::make_unique<HyperMatrix>(n, c.m, true));
    return View{arena.back().get(), 0, 0, n};
  };

  View M1 = fresh(h), M2 = fresh(h), M3 = fresh(h), M4 = fresh(h),
       M5 = fresh(h), M6 = fresh(h), M7 = fresh(h);

  // One generator task per product. Operand sums/differences are emitted
  // first; the generator's grandchildren pick them up through RAW edges.
  auto product = [&](const View& L, const View& R, const View& M) {
    rt.spawn(c.tt.rec, [cp = &c, L, R, M] { nested_recurse(*cp, L, R, M); });
  };

  {
    View s = fresh(h), t = fresh(h);                 // M1 = (A11+A22)(B11+B22)
    spawn_add(rt, c.tt, c.k, c.m, c.be, A11, A22, s);
    spawn_add(rt, c.tt, c.k, c.m, c.be, B11, B22, t);
    product(s, t, M1);
  }
  {
    View s = fresh(h);                               // M2 = (A21+A22) B11
    spawn_add(rt, c.tt, c.k, c.m, c.be, A21, A22, s);
    product(s, B11, M2);
  }
  {
    View t = fresh(h);                               // M3 = A11 (B12-B22)
    spawn_sub(rt, c.tt, c.k, c.m, c.be, B12, B22, t);
    product(A11, t, M3);
  }
  {
    View t = fresh(h);                               // M4 = A22 (B21-B11)
    spawn_sub(rt, c.tt, c.k, c.m, c.be, B21, B11, t);
    product(A22, t, M4);
  }
  {
    View s = fresh(h);                               // M5 = (A11+A12) B22
    spawn_add(rt, c.tt, c.k, c.m, c.be, A11, A12, s);
    product(s, B22, M5);
  }
  {
    View s = fresh(h), t = fresh(h);                 // M6 = (A21-A11)(B11+B12)
    spawn_sub(rt, c.tt, c.k, c.m, c.be, A21, A11, s);
    spawn_add(rt, c.tt, c.k, c.m, c.be, B11, B12, t);
    product(s, t, M6);
  }
  {
    View s = fresh(h), t = fresh(h);                 // M7 = (A12-A22)(B21+B22)
    spawn_sub(rt, c.tt, c.k, c.m, c.be, A12, A22, s);
    spawn_add(rt, c.tt, c.k, c.m, c.be, B21, B22, t);
    product(s, t, M7);
  }

  // The combinations read M1..M7; their dependency analysis must happen
  // after the products' writes were *submitted*, which generator completion
  // guarantees (each generator taskwaits before returning).
  rt.taskwait();

  spawn_add(rt, c.tt, c.k, c.m, c.be, M1, M4, C11);  // C11 = M1+M4-M5+M7
  spawn_acc(rt, c.tt, c.m, c.be, M5, C11, /*negate=*/true);
  spawn_acc(rt, c.tt, c.m, c.be, M7, C11, /*negate=*/false);
  spawn_add(rt, c.tt, c.k, c.m, c.be, M3, M5, C12);  // C12 = M3+M5
  spawn_add(rt, c.tt, c.k, c.m, c.be, M2, M4, C21);  // C21 = M2+M4
  spawn_sub(rt, c.tt, c.k, c.m, c.be, M1, M2, C22);  // C22 = M1-M2+M3+M6
  spawn_acc(rt, c.tt, c.m, c.be, M3, C22, /*negate=*/false);
  spawn_acc(rt, c.tt, c.m, c.be, M6, C22, /*negate=*/false);

  rt.taskwait();  // arena (and the leaf muls feeding it) must not outlive us
}

bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

}  // namespace

void strassen_smpss(Runtime& rt, const StrassenTasks& tt, HyperMatrix& A,
                    HyperMatrix& B, HyperMatrix& C, const blas::Kernels& k) {
  SMPSS_CHECK(is_pow2(A.nblocks()), "Strassen needs a power-of-two block grid");
  if (rt.config().nested_tasks) {
    NestedCtx ctx{rt, tt, &k, A.block_dim(), A.block_elems()};
    nested_recurse(ctx, View{&A, 0, 0, A.nblocks()},
                   View{&B, 0, 0, B.nblocks()}, View{&C, 0, 0, C.nblocks()});
    rt.barrier();
    return;
  }
  Ctx ctx{rt, tt, &k, A.block_dim(), A.block_elems(), {}};
  ctx.recurse(View{&A, 0, 0, A.nblocks()}, View{&B, 0, 0, B.nblocks()},
              View{&C, 0, 0, C.nblocks()});
  rt.barrier();  // temps in ctx.arena stay alive until here
}

double strassen_flops(int nb, int m) {
  if (nb == 1) {
    const double d = m;
    return 2.0 * d * d * d;
  }
  const double half = static_cast<double>(nb) / 2.0 * m;
  return 7.0 * strassen_flops(nb / 2, m) + 18.0 * half * half;
}

}  // namespace smpss::apps
