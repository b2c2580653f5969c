// Tuned kernels: the "Goto tiles" curve. The Cholesky kernels run their
// inner loops along the output row on 4-float vectors (GCC/Clang vector
// types, so plain SSE2 on any x86-64 and no -march):
//   - gemm_nt and syrk share one 4x8 register-tiled micro-kernel over a
//     k-major packed copy of the second operand, one 8-row panel at a time;
//   - trsm and potrf are right-looking row updates, y[q] -= x * v[q],
//     against a packed column of L; trsm applies four columns per pass.
// A compiler vectorizes a dot product along k only under -ffast-math,
// because that reorders the sum. Running along the row instead keeps each
// output element's IEEE operation sequence exactly as in the plain loop
// nests: the same products, summed in ascending k from zero and subtracted
// once, and the same multiply by 1/L[j][j]. gemm_nt, syrk and potrf are
// therefore bit-identical to the ref kernels; trsm multiplies by the
// reciprocal where ref divides. Packing uses one per-thread scratch buffer,
// grown to the largest block seen and reused after that.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "blas/kernels.hpp"

namespace smpss::blas {
namespace {

#define RESTRICT __restrict__

using v4f = float __attribute__((vector_size(16)));
constexpr int kLanes = 4;

inline v4f load(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }
inline v4f splat(float s) { return v4f{s, s, s, s}; }

/// The calling thread's packing buffer, at least `n` floats long.
float* scratch(std::size_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// y[q] -= x * v[q] for q in [q0, q1): the row update of trsm and potrf.
inline void row_update(float* RESTRICT y, const float* RESTRICT v, float x,
                       int q0, int q1) {
  const v4f xv = splat(x);
  int q = q0;
  for (; q + kLanes <= q1; q += kLanes)
    store(y + q, load(y + q) - xv * load(v + q));
  for (; q < q1; ++q) y[q] -= x * v[q];
}

// The same for four rows v, v + ldv, v + 2 ldv, v + 3 ldv and multipliers
// x[0..4), applied in that order to each y[q] while it is in a register.
// x may point into y's row, but not into [q0, q1).
inline void row_update4(float* RESTRICT y, const float* RESTRICT v, int ldv,
                        const float* RESTRICT x, int q0, int q1) {
  const float* v0 = v;
  const float* v1 = v0 + ldv;
  const float* v2 = v1 + ldv;
  const float* v3 = v2 + ldv;
  const v4f x0 = splat(x[0]), x1 = splat(x[1]), x2 = splat(x[2]),
            x3 = splat(x[3]);
  int q = q0;
  for (; q + kLanes <= q1; q += kLanes) {
    v4f yq = load(y + q);
    yq -= x0 * load(v0 + q);
    yq -= x1 * load(v1 + q);
    yq -= x2 * load(v2 + q);
    yq -= x3 * load(v3 + q);
    store(y + q, yq);
  }
  for (; q < q1; ++q) {
    float yq = y[q];
    yq -= x[0] * v0[q];
    yq -= x[1] * v1[q];
    yq -= x[2] * v2[q];
    yq -= x[3] * v3[q];
    y[q] = yq;
  }
}

// --- gemm_nt / syrk micro-kernel ---------------------------------------------

constexpr int kMr = 4;  // rows of C per tile
constexpr int kNr = 8;  // columns of C per tile: two vectors

/// Packs rows j0..j0+nr of `b` k-major: p[k * kNr + jj] = b[j0 + jj][k].
/// Lanes past nr are zero, so a short panel runs the full tile.
void pack_panel(int m, const float* RESTRICT b, int j0, int nr,
                float* RESTRICT p) {
  for (int jj = 0; jj < nr; ++jj) {
    const float* bj = b + (j0 + jj) * m;
    for (int k = 0; k < m; ++k) p[k * kNr + jj] = bj[k];
  }
  for (int jj = nr; jj < kNr; ++jj)
    for (int k = 0; k < m; ++k) p[k * kNr + jj] = 0.0f;
}

/// C[i0 + r][j0 + jj] -= sum_k A[i0 + r][k] * panel[k][jj] for r < R and
/// jj < nr, each sum accumulated from zero in ascending k. With `lower` set,
/// only the entries on or below the diagonal (j <= i) are written.
template <int R>
void micro_tile(int m, const float* RESTRICT a, const float* RESTRICT p,
                float* RESTRICT c, int i0, int j0, int nr, bool lower) {
  v4f acc[R][2] = {};
  const float* ar[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) ar[r] = a + (i0 + r) * m;
  for (int k = 0; k < m; ++k) {
    const v4f b0 = load(p + k * kNr), b1 = load(p + k * kNr + kLanes);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const v4f x = splat(ar[r][k]);
      acc[r][0] += x * b0;
      acc[r][1] += x * b1;
    }
  }
  for (int r = 0; r < R; ++r) {
    float* cr = c + (i0 + r) * m + j0;
    const int n = lower ? std::min(nr, i0 + r - j0 + 1) : nr;
    if (n == kNr) {
      store(cr, load(cr) - acc[r][0]);
      store(cr + kLanes, load(cr + kLanes) - acc[r][1]);
    } else {
      float s[kNr];
      std::memcpy(s, acc[r], sizeof s);
      for (int jj = 0; jj < n; ++jj) cr[jj] -= s[jj];
    }
  }
}

/// Runs the micro-kernel down rows i0..m of one packed panel.
void panel_rows(int m, const float* a, const float* p, float* c, int i0,
                int j0, int nr, bool lower) {
  int i = i0;
  for (; i + kMr <= m; i += kMr) micro_tile<kMr>(m, a, p, c, i, j0, nr, lower);
  switch (m - i) {
    case 3: micro_tile<3>(m, a, p, c, i, j0, nr, lower); break;
    case 2: micro_tile<2>(m, a, p, c, i, j0, nr, lower); break;
    case 1: micro_tile<1>(m, a, p, c, i, j0, nr, lower); break;
    default: break;
  }
}

// C -= A * B^T.
void tuned_gemm_nt_minus(int m, const float* RESTRICT a,
                         const float* RESTRICT b, float* RESTRICT c) {
  float* p = scratch(static_cast<std::size_t>(kNr) * m);
  for (int j0 = 0; j0 < m; j0 += kNr) {
    const int nr = std::min(kNr, m - j0);
    pack_panel(m, b, j0, nr, p);
    panel_rows(m, a, p, c, 0, j0, nr, false);
  }
}

// C += A * B. ikj (axpy) form: the inner loop streams rows of B and C with
// unit stride; k unrolled by 4 to feed the vector units.
void tuned_gemm_nn_acc(int m, const float* RESTRICT a, const float* RESTRICT b,
                       float* RESTRICT c) {
  for (int i = 0; i < m; ++i) {
    float* RESTRICT ci = c + i * m;
    int k = 0;
    for (; k + 4 <= m; k += 4) {
      float aik0 = a[i * m + k], aik1 = a[i * m + k + 1];
      float aik2 = a[i * m + k + 2], aik3 = a[i * m + k + 3];
      const float *b0 = b + k * m, *b1 = b + (k + 1) * m;
      const float *b2 = b + (k + 2) * m, *b3 = b + (k + 3) * m;
      for (int j = 0; j < m; ++j)
        ci[j] += aik0 * b0[j] + aik1 * b1[j] + aik2 * b2[j] + aik3 * b3[j];
    }
    for (; k < m; ++k) {
      float aik = a[i * m + k];
      const float* bk = b + k * m;
      for (int j = 0; j < m; ++j) ci[j] += aik * bk[j];
    }
  }
}

// C(lower) -= A * A^T: the gemm_nt micro-kernel with B = A. Rows above a
// panel have no entry in it on or below the diagonal, and the tiles that
// cross the diagonal are masked, so the strict upper triangle stays as is.
void tuned_syrk_ln_minus(int m, const float* RESTRICT a, float* RESTRICT c) {
  float* p = scratch(static_cast<std::size_t>(kNr) * m);
  for (int j0 = 0; j0 < m; j0 += kNr) {
    const int nr = std::min(kNr, m - j0);
    pack_panel(m, a, j0, nr, p);
    panel_rows(m, a, p, c, j0, j0, nr, true);
  }
}

// --- trsm / potrf: right-looking row updates ---------------------------------

/// Forward substitution on `rows` rows of X, four columns of L at a time.
/// Within a block, X[r][k] is final once scaled by 1/L[k][k] and is then
/// subtracted, times column k of L, from the block's later entries; the
/// block's four columns then update the rest of the row in one pass, in
/// ascending k per element. `lt` row k holds 1/L[k][k] at k and L[q][k] at
/// q > k. Each 4-row slab of `lt` is reused across the rows while in cache.
void trsm_rows(int m, const float* RESTRICT lt, float* RESTRICT x, int rows) {
  constexpr int kCols = 4;  // columns of L per row_update4 pass
  for (int k0 = 0; k0 < m; k0 += kCols) {
    const int k1 = std::min(k0 + kCols, m);
    for (int r = 0; r < rows; ++r) {
      float* xr = x + r * m;
      for (int k = k0; k < k1; ++k) {
        xr[k] *= lt[k * m + k];
        row_update(xr, lt + k * m, xr[k], k + 1, k1);
      }
      if (k1 - k0 == kCols) row_update4(xr, lt + k0 * m, m, xr + k0, k1, m);
    }
  }
}

// X <- X * L^-T.
void tuned_trsm_rltn(int m, const float* RESTRICT l, float* RESTRICT x) {
  float* lt = scratch(static_cast<std::size_t>(m) * m);
  for (int q = 0; q < m; ++q) {
    for (int k = 0; k < q; ++k) lt[k * m + q] = l[q * m + k];
    lt[q * m + q] = 1.0f / l[q * m + q];
  }
  for (int i = 0; i < m; i += kMr)
    trsm_rows(m, lt, x + i * m, std::min(kMr, m - i));
}

// In-place lower Cholesky. Step k scales column k and packs it into v; each
// later row i then takes v[i] * v[q] off its entries q in (k, i].
int tuned_potrf_ln(int m, float* RESTRICT a) {
  float* v = scratch(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) {
    float d = a[k * m + k];
    if (!(d > 0.0f)) return k + 1;
    d = std::sqrt(d);
    a[k * m + k] = d;
    const float inv = 1.0f / d;
    for (int i = k + 1; i < m; ++i) v[i] = a[i * m + k] *= inv;
    for (int i = k + 1; i < m; ++i)
      row_update(a + i * m, v, v[i], k + 1, i + 1);
  }
  return 0;
}

void tuned_add(int m, const float* RESTRICT a, const float* RESTRICT b,
               float* RESTRICT c) {
  for (int i = 0; i < m * m; ++i) c[i] = a[i] + b[i];
}

void tuned_sub(int m, const float* RESTRICT a, const float* RESTRICT b,
               float* RESTRICT c) {
  for (int i = 0; i < m * m; ++i) c[i] = a[i] - b[i];
}

#undef RESTRICT

}  // namespace

const Kernels& tuned_kernels() noexcept {
  static const Kernels k{"tuned",           tuned_gemm_nt_minus,
                         tuned_gemm_nn_acc, tuned_syrk_ln_minus,
                         tuned_trsm_rltn,   tuned_potrf_ln,
                         tuned_add,         tuned_sub};
  return k;
}

}  // namespace smpss::blas
